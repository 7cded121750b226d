"""Simulated sharded-GBO sweep: Figure-3 methodology at cluster scale.

The real sharded build (:mod:`repro.parallel.sharded`) is bounded by
what one machine can spawn; this module answers the scaling question
the paper's Figure 3 asks — how does aggregate throughput grow with
processors? — for *dozens* of simulated shard-host processes, using the
**real placement code**: snapshot units are named with
:func:`repro.io.readers.snapshot_unit_name` and assigned by the same
rendezvous :class:`~repro.parallel.placement.PlacementMap` the live
coordinator uses, so the simulated sweep inherits the genuine placement
skew (binomial imbalance shrinking as units/shard grows), not an
idealized even split.

Each point is one :func:`~repro.simulate.runner.simulate_sharded_gbo`
run: every simulated shard host replays the TG schedule of
:func:`~repro.simulate.runner.simulate_voyager` over its shard's units,
on private disks or one shared device (the cluster-filesystem regime,
where the storage service time bounds the makespan regardless of shard
count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.simulate.machine import Machine
from repro.simulate.runner import simulate_sharded_gbo
from repro.simulate.workload import TestWorkload

#: Default shard counts of :func:`shard_sweep` — "dozens of simulated
#: processes" at the top end.
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8, 16, 24, 32)


@dataclass
class ShardSweepPoint:
    """One sweep point: the fleet's outcome at a given shard count."""

    n_shards: int
    total_units: int
    makespan_s: float
    throughput_units_s: float
    speedup: float
    #: Placement skew: units on the fullest shard over the even share
    #: (1.0 = perfectly balanced).
    balance: float
    visible_io_s: float


@dataclass
class ShardSweepResult:
    """A full sweep plus its workload identification."""

    test: str
    shared_disk: bool
    points: List[ShardSweepPoint] = field(default_factory=list)

    def point(self, n_shards: int) -> ShardSweepPoint:
        """The sweep point at ``n_shards`` (raises if absent)."""
        for candidate in self.points:
            if candidate.n_shards == n_shards:
                return candidate
        raise KeyError(f"no sweep point at {n_shards} shards")


def shard_sweep(
    machine: Machine,
    workload: TestWorkload,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    shared_disk: bool = False,
    window_units: int = 12,
) -> ShardSweepResult:
    """Throughput vs shard count over the real placement function."""
    sweep = ShardSweepResult(test=workload.test,
                             shared_disk=shared_disk)
    base_makespan = None
    for n_shards in shard_counts:
        run = simulate_sharded_gbo(
            machine, workload, n_shards,
            shared_disk=shared_disk, window_units=window_units,
        )
        makespan = run.makespan_s
        if base_makespan is None:
            base_makespan = makespan
        counts = [w.n_units for w in run.workers if w.n_units]
        even_share = workload.n_snapshots / n_shards
        sweep.points.append(ShardSweepPoint(
            n_shards=n_shards,
            total_units=sum(w.n_units for w in run.workers),
            makespan_s=makespan,
            throughput_units_s=(
                workload.n_snapshots / makespan if makespan else 0.0
            ),
            speedup=base_makespan / makespan if makespan else 0.0,
            balance=(max(counts) / even_share) if counts else 0.0,
            visible_io_s=run.total_visible_io_s,
        ))
    return sweep
