"""Multi-process Voyager launcher.

Each worker process runs a full Voyager pass over its snapshot partition
with its own private GODIVA database (one GBO per processor, no
inter-database communication — section 3.3). The parent aggregates
per-worker results into a :class:`ParallelResult`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List

from repro.core.child import Child, ready
from repro.parallel.placement import partition_snapshots
from repro.viz.voyager import Voyager, VoyagerConfig, VoyagerResult


@dataclass
class ParallelResult:
    """Aggregate of one parallel run."""

    n_workers: int
    workers: List[VoyagerResult]

    @property
    def makespan_s(self) -> float:
        """Wall time of the slowest worker — the parallel run's length."""
        return max((w.total_wall_s for w in self.workers), default=0.0)

    @property
    def total_bytes_read(self) -> int:
        """Bytes every worker read, summed."""
        return sum(w.bytes_read for w in self.workers)

    @property
    def total_visible_io_s(self) -> float:
        """Visible I/O wall time of every worker, summed — the time the
        workers spent waiting on input (paper §4.2)."""
        return sum(w.visible_io_wall_s for w in self.workers)

    @property
    def total_virtual_io_s(self) -> float:
        """The disk model's I/O cost of every worker's traffic (volume
        and seeks), summed."""
        return sum(w.virtual_io_s for w in self.workers)

    @property
    def n_snapshots(self) -> int:
        """Snapshots processed by all workers together."""
        return sum(w.n_snapshots for w in self.workers)


def _run_worker(conn, config: VoyagerConfig) -> None:
    """Worker process body: one partition's pass, answered with
    ``(result, error)``."""
    try:
        conn.send((Voyager(config).run(), None))
    except Exception as err:  # re-raised in the parent
        conn.send((None, err))


def run_parallel_voyager(
    config: VoyagerConfig,
    n_workers: int,
    use_processes: bool = True,
) -> ParallelResult:
    """Run Voyager over ``n_workers`` contiguous blocks of the snapshot
    series.

    ``config`` is the per-worker template; each worker receives the same
    configuration with its own ``snapshot_indices`` (and a worker-suffixed
    image directory so outputs never collide). With
    ``use_processes=False`` the partitions run sequentially in-process —
    useful for deterministic tests and for measuring partition overhead
    alone. A worker's exception is re-raised once every worker answered;
    a worker gone unanswered raises :class:`~repro.errors.ChildExitedError`
    naming it (``voyager-w1 (exitcode -9)``) at once.
    """
    from repro.gen.snapshot import load_manifest

    manifest = load_manifest(config.data_dir)
    n = len(manifest.snapshots)
    if config.steps is not None:
        n = min(n, config.steps)
    assignment = partition_snapshots(n, n_workers)

    worker_configs: List[VoyagerConfig] = []
    for worker, indices in enumerate(assignment):
        out_dir = config.out_dir
        if out_dir is not None:
            out_dir = f"{out_dir}/worker{worker:02d}"
        worker_config = copy.copy(config)
        worker_config.snapshot_indices = indices
        worker_config.steps = None
        worker_config.out_dir = out_dir
        worker_configs.append(worker_config)

    if not (use_processes and n_workers > 1):
        return ParallelResult(n_workers=n_workers, workers=[
            Voyager(cfg).run() for cfg in worker_configs])
    workers = [Child(_run_worker, cfg, name=f"voyager-w{index}")
               for index, cfg in enumerate(worker_configs)]
    replies: Dict[Child, tuple] = {}
    try:
        while len(replies) < len(workers):
            for worker in ready([w for w in workers if w not in replies],
                                None):
                replies[worker] = worker.recv()
    finally:
        for worker in workers:
            if worker not in replies:  # the run failed; it never reads
                worker.proc.terminate()
            worker.close()
    for _, error in replies.values():
        if error is not None:
            raise error
    return ParallelResult(n_workers=n_workers,
                          workers=[replies[w][0] for w in workers])
