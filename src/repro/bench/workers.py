"""W1 — background I/O worker-pool scaling.

The paper's TG library hides I/O behind *one* background thread; the
worker-pool build asks how much visible I/O remains when several workers
drain the prefetch queue concurrently. The experiment uses the workload
shape where a pool can help at all: snapshots split into several file
units, so the files of one snapshot can stream and decode in parallel.

Two complementary measurements:

* :func:`run_real_worker_sweep` drives the actual GBO over a generated
  dataset with per-file units whose reads are *paced* — each read call
  sleeps for its disk-model virtual duration
  (:func:`repro.io.readers.make_file_read_fn` with ``pace=True``), so
  wall-clock timings reflect the profiled disk rather than the host's
  page cache, and sleeping readers genuinely overlap;
* :func:`run_sim_worker_sweep` replays the traced workload on a
  simulated machine (:func:`repro.simulate.runner.simulate_voyager`
  with ``io_workers``/``files_per_snapshot``), where disk contention
  and CPU scheduling are modelled exactly.

``worker_sweep_json`` archives both sweeps machine-readably
(``BENCH_io_workers.json``) for downstream tooling.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence

from repro.bench.report import Table, host_info, mean_ci95
from repro.core.database import GBO
from repro.gen.snapshot import DatasetManifest
from repro.io.disk import ENGLE_DISK, DiskProfile, IoStats
from repro.io.readers import file_unit_name, make_file_read_fn
from repro.simulate.machine import Machine
from repro.simulate.runner import simulate_voyager
from repro.simulate.workload import TestWorkload

#: Worker counts the sweep visits by default (1 = paper-faithful).
DEFAULT_WORKERS = (1, 2, 4, 8)


def run_real_worker_sweep(
    manifest: DatasetManifest,
    workers: Sequence[int] = (1, 2, 4),
    mem_mb: float = 96.0,
    disk: DiskProfile = ENGLE_DISK,
    compute_s: float = 0.02,
    steps: Optional[int] = None,
) -> List[Dict]:
    """Run the real pipeline once per worker count; one row each.

    Every snapshot becomes ``files_per_snapshot`` per-file units added
    up front (priority = reverse processing order, so the queue drains
    in the order the main loop will consume). The main loop waits for
    each snapshot's files, "renders" for ``compute_s`` seconds, and
    deletes the units. Visible I/O is the GBO's own accounting.
    """
    n_steps = len(manifest.snapshots)
    if steps is not None:
        n_steps = min(steps, n_steps)
    files = len(manifest.snapshot_paths(0))

    rows: List[Dict] = []
    for count in workers:
        io_stats = IoStats()
        read_fn = make_file_read_fn(
            manifest, stats=io_stats, profile=disk, pace=True
        )
        with GBO(mem_mb=mem_mb, io_workers=count) as gbo:
            for step in range(n_steps):
                for index in range(files):
                    gbo.add_unit(
                        file_unit_name(step, index), read_fn,
                        priority=float(n_steps - step),
                    )
            t0 = time.perf_counter()
            for step in range(n_steps):
                handles = [
                    gbo.unit(file_unit_name(step, index)).wait()
                    for index in range(files)
                ]
                time.sleep(compute_s)
                for handle in handles:
                    handle.finish()
                    handle.delete()
            wall_s = time.perf_counter() - t0
            stats = gbo.stats
            rows.append({
                "io_workers": count,
                "files_per_snapshot": files,
                "n_snapshots": n_steps,
                "wall_s": wall_s,
                "visible_io_s": stats.visible_io_seconds,
                "io_thread_read_s": stats.io_thread_read_seconds,
                "wait_histogram": stats.wait_time_histogram(),
                "queue_depth_peak": stats.queue_depth_peak,
                "worker_report": gbo.worker_report(),
                "bytes_read": io_stats.bytes_read,
            })
    return rows


def run_sim_worker_sweep(
    machine: Machine,
    workload: TestWorkload,
    workers: Sequence[int] = DEFAULT_WORKERS,
    files_per_snapshot: int = 4,
    window_units: int = 12,
    jitter: float = 0.15,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> List[Dict]:
    """Simulate the TG schedule per worker count; one averaged row each."""
    rows: List[Dict] = []
    for count in workers:
        visible: List[float] = []
        totals: List[float] = []
        for seed in seeds:
            result = simulate_voyager(
                machine, workload, "TG",
                window_units=window_units,
                jitter=jitter, seed=seed,
                io_workers=count,
                files_per_snapshot=files_per_snapshot,
            )
            visible.append(result.visible_io_s)
            totals.append(result.total_s)
        visible_mean, visible_ci = mean_ci95(visible)
        total_mean, total_ci = mean_ci95(totals)
        rows.append({
            "io_workers": count,
            "files_per_snapshot": files_per_snapshot,
            "machine": machine.name,
            "test": workload.test,
            "n_snapshots": workload.n_snapshots,
            "visible_io_s": visible_mean,
            "visible_io_ci95_s": visible_ci,
            "total_s": total_mean,
            "total_ci95_s": total_ci,
        })
    return rows


def real_sweep_table(rows: Sequence[Dict], title: str) -> Table:
    table = Table(
        title=title,
        headers=("io_workers", "files/snap", "wall (s)",
                 "visible I/O (s)", "worker read (s)", "queue peak"),
    )
    for row in rows:
        table.add(
            row["io_workers"], row["files_per_snapshot"], row["wall_s"],
            row["visible_io_s"], row["io_thread_read_s"],
            row["queue_depth_peak"],
        )
    table.note(
        "paced reads: each file read sleeps its disk-model virtual time"
    )
    return table


def sim_sweep_table(rows: Sequence[Dict], title: str) -> Table:
    table = Table(
        title=title,
        headers=("io_workers", "files/snap", "visible I/O (s)",
                 "±95% (s)", "total (s)", "±95% (s)"),
    )
    for row in rows:
        table.add(
            row["io_workers"], row["files_per_snapshot"],
            row["visible_io_s"], row["visible_io_ci95_s"],
            row["total_s"], row["total_ci95_s"],
        )
    return table


def worker_sweep_json(
    directory: str,
    real_rows: Sequence[Dict],
    sim_rows: Sequence[Dict],
    filename: str = "BENCH_io_workers.json",
) -> str:
    """Archive both sweeps as machine-readable JSON; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    payload = {
        "experiment": "io_worker_sweep",
        "host": host_info(),
        "real_pipeline": list(real_rows),
        "simulated": list(sim_rows),
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
