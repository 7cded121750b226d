"""Simulator model of the compute plane (W1-style compute sweep).

The deterministic discrete-event model is what lets CI assert the
issue's >=3x process/4 bar on a single-core runner: the sweep runs on
a zero-contention four-core model host, the thread backend pays the
GIL serial fraction, the process backend only a dispatch overhead.
"""

import pytest

from repro.simulate import (
    ENGLE,
    PROCESS_DISPATCH_OVERHEAD,
    THREAD_GIL_FRACTION,
    ComputeSweepPoint,
    TestWorkload,
    compute_host,
    compute_sweep,
    simulate_voyager,
)
from repro.simulate.workload import IoProfile

#: The shape EXPERIMENTS.md's PC1 model table is computed on: complex
#: op-set, compute-heavy.
WORKLOAD = TestWorkload(
    test="complex",
    n_snapshots=32,
    original=IoProfile(120e6, 600, 60, 480, 48),
    godiva=IoProfile(20e6, 100, 10, 80, 8),
    compute_s=0.8,
)


def _point(points, backend, workers):
    for p in points:
        if p.backend == backend and p.workers == workers:
            return p
    raise AssertionError(f"no sweep point {backend}/{workers}")


def test_defaults_unchanged():
    """compute_workers=1 is event-for-event the pre-compute-plane run."""
    base = simulate_voyager(ENGLE, WORKLOAD, "G")
    explicit = simulate_voyager(ENGLE, WORKLOAD, "G",
                                compute_workers=1,
                                compute_backend="process")
    assert explicit.total_s == base.total_s
    assert explicit.visible_io_s == base.visible_io_s
    assert explicit.computation_s == base.computation_s


def test_result_carries_compute_knobs():
    run = simulate_voyager(compute_host(4), WORKLOAD, "G",
                           compute_workers=4,
                           compute_backend="process")
    assert run.compute_workers == 4
    assert run.compute_backend == "process"


def test_compute_args_validated():
    with pytest.raises(ValueError):
        simulate_voyager(ENGLE, WORKLOAD, "G", compute_workers=0)
    with pytest.raises(ValueError):
        simulate_voyager(ENGLE, WORKLOAD, "G", compute_backend="fibers")


def test_compute_host_is_zero_contention():
    machine = compute_host(4)
    assert machine.n_cpus == 4
    assert machine.smp_contention == 0.0
    assert compute_host(8).n_cpus == 8


def test_thread_backend_pays_gil_fraction():
    """Amdahl check: wall == f*C + (1-f)*C/W on the contention-free
    host, so the model's speedup is analytic, not tuned."""
    points = compute_sweep(WORKLOAD, backends=("thread",))
    base = _point(points, "thread", 1)
    four = _point(points, "thread", 4)
    f = THREAD_GIL_FRACTION
    expected = 1.0 / (f + (1.0 - f) / 4.0)
    assert four.speedup == pytest.approx(expected, rel=1e-6)
    assert base.speedup == pytest.approx(1.0)


def test_process_backend_pays_dispatch_overhead():
    points = compute_sweep(WORKLOAD, backends=("process",))
    four = _point(points, "process", 4)
    expected = 4.0 / (1.0 + PROCESS_DISPATCH_OVERHEAD)
    assert four.speedup == pytest.approx(expected, rel=1e-6)


def test_sweep_meets_issue_bar():
    """The committed acceptance bar: process/4 >= 3x and it beats the
    GIL-bound thread backend at the same width."""
    points = compute_sweep(WORKLOAD)
    process4 = _point(points, "process", 4)
    thread4 = _point(points, "thread", 4)
    assert process4.speedup >= 3.0
    assert thread4.speedup < process4.speedup
    assert isinstance(process4, ComputeSweepPoint)


def test_sweep_speedups_monotone_in_workers():
    points = compute_sweep(WORKLOAD, workers=(1, 2, 4))
    for backend in ("thread", "process"):
        speedups = [_point(points, backend, w).speedup
                    for w in (1, 2, 4)]
        assert speedups == sorted(speedups)
        assert speedups[0] == pytest.approx(1.0)
