"""P1 — process-backed compute plane: serial vs thread4 vs process4.

Runs the full complex op-set with the compute plane serial, threaded
(4 workers) and process-backed (4 workers) over the identical TG
schedule; emits ``BENCH_compute_proc.json``.

Acceptance bars (the issue's criteria, asserted here):

* rendered frames bit-identical between every backend and serial;
* the process backend actually dispatches tokenized tasks to worker
  processes (``compute_dispatches > 0``);
* the deterministic four-core simulator sweep shows >= 3x compute-wall
  speedup at process/4 workers, beating thread/4 (the GIL model) —
  host-independent, so the bar holds on single-core CI boxes where
  real walls cannot scale.
"""

import os

import pytest

from repro.bench.compute_proc import (
    compute_proc_json,
    run_compute,
    run_compute_sweep,
    scenario_row,
    sweep_rows,
    sweep_speedup,
)
from repro.bench.derived import image_bytes
from repro.bench.workloads import ensure_dataset

DATA_ROOT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), ".data"
)

#: A dense mesh (~28k triangles a frame), so compositing and
#: extraction dominate the frame.
SCALE = 0.3
STEPS = 3

SCENARIOS = (
    ("serial", 1, "thread"),
    ("thread4", 4, "thread"),
    ("process4", 4, "process"),
)


@pytest.fixture(scope="module")
def compute_dataset():
    return ensure_dataset(DATA_ROOT, scale=SCALE, n_steps=STEPS,
                          files_per_snapshot=2)


@pytest.fixture(scope="module")
def compute_runs(compute_dataset, tmp_path_factory):
    """Every scenario over the identical schedule (best-of-2 walls)."""
    runs = {}
    for scenario, workers, backend in SCENARIOS:
        out_dir = str(tmp_path_factory.mktemp(f"frames_{scenario}"))
        runs[scenario] = (workers, backend, run_compute(
            compute_dataset, compute_workers=workers,
            compute_backend=backend, out_dir=out_dir,
        ))
    return runs


@pytest.fixture(scope="module")
def sim_sweep():
    return run_compute_sweep()


def test_compute_proc_bit_identity(compute_runs):
    """Every backend renders the serial build's exact bytes."""
    _w, _b, serial = compute_runs["serial"]
    frames_serial = image_bytes(serial)
    assert frames_serial
    for scenario in ("thread4", "process4"):
        _w, _b, run = compute_runs[scenario]
        frames = image_bytes(run)
        assert frames.keys() == frames_serial.keys()
        assert all(
            frames[name] == frames_serial[name] for name in frames
        ), f"{scenario} rendered output differs from serial"


def test_compute_proc_dispatches(compute_runs):
    """The process backend ships tokenized tasks to real workers."""
    _w, _b, run = compute_runs["process4"]
    stats = run.gbo_stats
    assert stats["compute_tasks"] > 0
    assert stats["compute_dispatches"] > 0, (
        "process backend never dispatched a task to a worker process"
    )
    assert stats["compute_token_bytes"] > 0, (
        "process backend never shipped a shared-memory token"
    )


def test_compute_proc_sim_sweep(sim_sweep):
    """Four-core model host: process/4 >= 3x, beating thread/4."""
    process4 = sweep_speedup(sim_sweep, "process", 4)
    thread4 = sweep_speedup(sim_sweep, "thread", 4)
    assert process4 >= 3.0, (
        f"simulated process/4 compute speedup {process4:.2f}x < 3x"
    )
    assert thread4 < process4, (
        f"thread/4 ({thread4:.2f}x) should trail process/4 "
        f"({process4:.2f}x) under the GIL model"
    )


def test_compute_proc_json(compute_runs, sim_sweep, results_dir):
    rows = [
        scenario_row(name, workers, backend, result)
        for name, (workers, backend, result) in compute_runs.items()
    ]
    _w, _b, serial = compute_runs["serial"]
    _w, _b, process4 = compute_runs["process4"]
    identical = image_bytes(serial) == image_bytes(process4)
    path = compute_proc_json(
        results_dir, rows,
        workload={
            "test": "complex", "mode": "TG",
            "scale": SCALE, "steps": STEPS,
        },
        sweep=sweep_rows(sim_sweep),
        speedup_compute=(
            serial.compute_wall_s / process4.compute_wall_s
            if process4.compute_wall_s > 0 else float("inf")
        ),
        sim_speedup_process4=sweep_speedup(sim_sweep, "process", 4),
        sim_speedup_thread4=sweep_speedup(sim_sweep, "thread", 4),
        bit_identical=identical,
    )
    assert os.path.exists(path)
