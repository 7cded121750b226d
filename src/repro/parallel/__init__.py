"""Parallel Voyager: snapshot-partitioned multi-process runs.

Section 4.2: "Voyager partitions its workload between processors by
assigning different processors different snapshots to process [so] there
is little communication involved … we expect the speedup brought by
GODIVA in parallel mode to be similar to that obtained in our sequential
mode tests", confirmed with four Voyager processes on Turing.

The paper uses MPI; communication is nil by design, so
``multiprocessing`` preserves the behaviour (each worker owns its private
GODIVA database, exactly like the per-processor GBO objects of
section 3.3).

The sharded build (:mod:`repro.parallel.sharded`) goes one step
further: the per-process engines allocate from shared-memory arenas,
rendezvous placement assigns units to shards deterministically, and
the coordinator reads frames zero-copy. Each shard's budget is a
fixed share of the global one, as in the paper.
:mod:`repro.parallel.placement` owns both splits.
"""

from repro.parallel.launcher import ParallelResult, run_parallel_voyager
from repro.parallel.placement import (
    PlacementMap,
    partition_snapshots,
    rendezvous_shard,
)
from repro.parallel.sharded import (
    ShardedGBO,
    ShardedResult,
    ShardSpec,
    render_sharded,
)

__all__ = [
    "partition_snapshots",
    "run_parallel_voyager",
    "ParallelResult",
    "PlacementMap",
    "rendezvous_shard",
    "ShardedGBO",
    "ShardedResult",
    "ShardSpec",
    "render_sharded",
]
