"""ProcessComputePool: GIL-free compute plane over the arena seam.

The contracts under test (DESIGN.md, compute plane):

* **one pool core** — a :class:`ComputePool` subclass: ``submit``/
  ``map``/``wait_all``/priority/steal/stats are the inherited methods,
  so the renderer and pipeline never know which backend they run on;
* **zero-copy transport** — ndarray inputs at or above the token
  threshold travel as sealed shared-memory tokens, results come back
  as tokens the coordinator attaches read-only;
* **graceful degradation** — non-importable callables run inline,
  ``workers == 1`` never forks, a worker killed mid-task, while idle
  or before its first task has its tasks run in-process instead;
* **shm hygiene** — ``close()`` drains, joins, and leaves zero
  residual ``/dev/shm`` segments, under both ``fork`` and ``spawn``.

Marked ``races`` (by ``conftest.py``, filename prefix) so the sanitizer
job replays the coordinator-side locking under the lockset detector.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.shared_arena import SharedMemoryArena
from repro.core.compute import ComputePool
from repro.core.compute_proc import (
    ProcessComputePool,
    SharedInput,
    sweep_shm_prefix,
)
from repro.core.stats import GodivaStats
from repro.errors import ComputePoolClosedError

#: Start methods exercised for the real-worker tests. Both must hold:
#: fork is linux's default, spawn is what macOS/Windows (and any
#: fork-unsafe embedder) would use.
START_METHODS = ("fork", "spawn")

#: Big enough to clear the 32 KiB token threshold.
SHAPE = (200, 128)


def _shm_entries(prefix):
    try:
        return [n for n in os.listdir("/dev/shm") if prefix in n]
    except FileNotFoundError:
        return []


def _let_workers_settle(tasks, timeout=10.0):
    """Block *without helping* until the pool's own threads settled
    every task — ``wait()`` would run queued ones in this process."""
    deadline = time.monotonic() + timeout
    while not all(task.done for task in tasks):
        assert time.monotonic() < deadline, "workers never settled"
        time.sleep(0.005)


# ----------------------------------------------------------------------
# Module-level task kernels (workers re-import this module by name).
# ----------------------------------------------------------------------

_ORDER = []


def double(array):
    return array * 2.0


def add(a, b):
    return a + b


def total(array):
    return float(np.sum(array))


def slow_block(seconds):
    """A result big enough to come back as a worker-held token."""
    time.sleep(seconds)
    return np.zeros(SHAPE)


def boom():
    raise ValueError("kernel exploded")


def record(tag):
    _ORDER.append(tag)
    return tag


def wait_for_flag(marker_dir, payload):
    """Touch a started-marker, then loop until a stop-file appears."""
    marker = os.path.join(marker_dir, f"started-{os.getpid()}")
    with open(marker, "w") as f:
        f.write("x")
    stop = os.path.join(marker_dir, "stop")
    deadline = time.monotonic() + 30.0
    while not os.path.exists(stop) and time.monotonic() < deadline:
        time.sleep(0.01)
    return payload * 3.0


# ----------------------------------------------------------------------
# Serial / helping-waiter paths (no real processes)
# ----------------------------------------------------------------------

def test_workers_validated():
    with pytest.raises(ValueError):
        ProcessComputePool(0)
    with pytest.raises(ValueError):
        ProcessComputePool(2, max_procs=0)


def test_serial_submit_runs_inline():
    pool = ProcessComputePool(1)
    task = pool.submit(add, 2, 3)
    assert task.done
    assert task.wait() == 5
    assert not pool.procs
    pool.close()


def test_surface_parity_with_thread_pool():
    """Every public entry point of ComputePool exists here too."""
    for name in ("submit", "map", "wait_all", "start", "close",
                 "share", "queue_len", "workers", "parallel",
                 "closed", "stats"):
        assert hasattr(ProcessComputePool(1), name), name
    assert ProcessComputePool.distributed is True
    assert ComputePool.distributed is False


def test_queue_and_waiting_are_the_thread_pools():
    """One pool core: the process pool *is* a ComputePool and defines
    no private copy of the queueing/waiting surface."""
    assert issubclass(ProcessComputePool, ComputePool)
    for name in ("submit", "map", "wait_all", "_wait", "__enter__",
                 "__exit__", "workers", "parallel", "closed",
                 "queue_len"):
        assert name not in ProcessComputePool.__dict__, name
        assert getattr(ProcessComputePool, name) \
            is getattr(ComputePool, name), name


def test_waiter_helps_without_processes():
    """spawn_procs=0: waiters steal and run queued tasks inline."""
    stats = GodivaStats()
    pool = ProcessComputePool(4, stats=stats, spawn_procs=0)
    pool.start()
    tasks = [pool.submit(add, i, i) for i in range(5)]
    assert [t.wait() for t in tasks] == [0, 2, 4, 6, 8]
    assert stats.compute_steals > 0
    assert stats.compute_dispatches == 0
    pool.close()


def test_waiter_helps_in_priority_order():
    """Stolen tasks drain the queue most-urgent-first."""
    del _ORDER[:]
    pool = ProcessComputePool(4, spawn_procs=0)
    pool.start()
    low = pool.submit(record, "low", priority=-1.0)
    first = pool.submit(record, "first")
    second = pool.submit(record, "second")
    low.wait()
    assert _ORDER == ["first", "second", "low"]
    pool.wait_all([first, second])
    pool.close()


def test_undispatchable_callable_falls_back_inline():
    """Closures cannot be re-imported by a worker: run inline, count."""
    stats = GodivaStats()
    pool = ProcessComputePool(4, stats=stats, spawn_procs=0)
    pool.start()
    task = pool.submit(lambda: 41 + 1)
    assert task.wait() == 42
    assert stats.compute_fallback_inline == 1
    pool.close()


def test_error_reraised_at_wait_inline():
    pool = ProcessComputePool(1)
    task = pool.submit(boom)
    with pytest.raises(ValueError, match="kernel exploded"):
        task.wait()
    pool.close()


def test_submit_after_close_raises():
    pool = ProcessComputePool(2, spawn_procs=0)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(ComputePoolClosedError):
        pool.submit(add, 1, 2)


def test_close_cancels_queued_tasks():
    """Still-queued (never dispatched) tasks are cancelled at close,
    exactly like the thread pool's."""
    pool = ProcessComputePool(4, spawn_procs=0)
    pool.start()
    tasks = [pool.submit(add, i, 1) for i in range(3)]
    pool.close()
    for task in tasks:
        with pytest.raises(ComputePoolClosedError):
            task.wait()


def test_release_cancels_a_queued_task():
    """A task released while still queued never runs: it leaves the
    queue as CANCELLED, its siblings are untouched."""
    stats = GodivaStats()
    pool = ProcessComputePool(4, spawn_procs=0, stats=stats)
    pool.start()
    tasks = [pool.submit(add, i, 1) for i in range(3)]
    tasks[1].release()
    tasks[1].release()  # idempotent
    assert tasks[1].done
    with pytest.raises(ComputePoolClosedError, match="released"):
        tasks[1].wait()
    assert [tasks[0].wait(), tasks[2].wait()] == [1, 3]
    assert stats.compute_tasks == 2
    tasks[0].release()  # settled inline: nothing to free, no error
    pool.close()


def test_map_and_wait_all():
    pool = ProcessComputePool(4, spawn_procs=0)
    pool.start()
    results = pool.map(total, [np.full((4,), v, dtype=np.float64)
                               for v in (1.0, 2.0, 3.0)])
    assert results == [4.0, 8.0, 12.0]
    pool.close()


# ----------------------------------------------------------------------
# Real worker processes (fork and spawn)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("start_method", START_METHODS)
def test_workers_roundtrip_tokens(start_method):
    """Tokenized inputs reach workers zero-copy; results come back
    correct, read-only, and every segment is unlinked at close."""
    stats = GodivaStats()
    pool = ProcessComputePool(
        2, stats=stats, start_method=start_method, spawn_procs=2,
    )
    pool.start()
    prefix = pool.shm_prefix
    arrays = [np.random.default_rng(seed).normal(size=SHAPE)
              for seed in range(4)]
    tasks = [pool.submit(double, a) for a in arrays]
    _let_workers_settle(tasks)
    for task, array in zip(tasks, arrays):
        out = task.wait()
        np.testing.assert_array_equal(out, array * 2.0)
        assert not out.flags.writeable
        task.release()
    assert stats.compute_dispatches == 4
    assert stats.compute_fallback_inline == 0
    assert stats.compute_token_bytes >= 4 * arrays[0].nbytes
    pool.close()
    assert _shm_entries(prefix) == []


@pytest.mark.parametrize("start_method", START_METHODS)
def test_worker_error_reraised(start_method):
    pool = ProcessComputePool(
        2, start_method=start_method, spawn_procs=1,
    )
    pool.start()
    task = pool.submit(boom)
    with pytest.raises(ValueError, match="kernel exploded"):
        task.wait()
    pool.close()
    assert _shm_entries(pool.shm_prefix) == []


def test_close_does_not_wait_out_the_poll_interval():
    """There is no poll interval to wait out any more: close() of a
    pool with live workers stops and joins them at once and still
    sweeps ``/dev/shm``."""
    pool = ProcessComputePool(2, spawn_procs=2, start_method="fork")
    pool.start()
    task = pool.submit(double, np.ones(SHAPE))
    _let_workers_settle([task])
    assert task.wait()[0, 0] == 2.0
    assert _shm_entries(pool.shm_prefix)
    t0 = time.monotonic()
    pool.close()
    assert time.monotonic() - t0 < 1.0
    assert _shm_entries(pool.shm_prefix) == []


def test_failed_fan_out_releases_queued_tasks_too():
    """The fan-out error path (wait raises -> release every task) on
    real workers: tasks the failure found still queued are cancelled,
    so no worker later computes a result that would sit in its arena
    until the pool closes."""
    stats = GodivaStats()
    pool = ProcessComputePool(2, spawn_procs=2, start_method="fork",
                              stats=stats)
    pool.start()
    tasks = [pool.submit(boom)]
    tasks += [pool.submit(slow_block, 0.2) for _ in range(15)]
    try:
        with pytest.raises(ValueError, match="kernel exploded"):
            for task in tasks:
                task.wait()
    finally:
        for task in tasks:
            task.release()
    with pool._lock:
        assert pool.queue_len() == 0
    from repro.core.compute import CANCELLED

    cancelled = [task for task in tasks if task.state == CANCELLED]
    assert cancelled   # one in flight per worker: most never left
    deadline = time.monotonic() + 10.0
    while not all(task.done for task in tasks):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert stats.compute_tasks == len(tasks) - len(cancelled)
    pool.close()
    assert _shm_entries(pool.shm_prefix) == []


def test_share_reuses_sealed_arena_buffer():
    """share() over a pool arena locates sealed buffers zero-copy —
    no staging copy is ever made for them."""
    arena = SharedMemoryArena(name_prefix="t-cp-share")
    buf = arena.allocate(dtype=np.float64, shape=SHAPE)
    buf[...] = 7.5
    arena.seal(buf)
    pool = ProcessComputePool(2, share_arena=arena, spawn_procs=2,
                              start_method="fork")
    pool.start()
    shared = pool.share(buf)
    assert isinstance(shared, SharedInput)
    stats = pool.stats
    tasks = [pool.submit(total, shared) for _ in range(3)]
    _let_workers_settle(tasks)
    for task in tasks:
        assert task.wait() == pytest.approx(7.5 * buf.size)
    assert stats.compute_dispatches == 3
    assert stats.compute_fallback_inline == 0
    assert shared.token is not None and shared.staged is None
    assert _shm_entries(f"{pool.shm_prefix}-s") == []
    pool.close()
    assert _shm_entries(pool.shm_prefix) == []
    arena.close()


def test_share_is_identity_when_serial():
    pool = ProcessComputePool(1)
    array = np.ones(8)
    assert pool.share(array) is array
    pool.close()


def test_worker_killed_mid_task_is_rescued(tmp_path):
    """SIGKILL a worker mid-task: its thread wakes on the process
    sentinel, re-runs the task in-process, and sweeps the dead
    worker's segments."""
    marker_dir = str(tmp_path)
    pool = ProcessComputePool(2, start_method="fork", spawn_procs=1)
    pool.start()
    task = pool.submit(wait_for_flag, marker_dir, 2.0)
    deadline = time.monotonic() + 10.0
    while not any(n.startswith("started-")
                  for n in os.listdir(marker_dir)):
        assert time.monotonic() < deadline, "worker never started task"
        time.sleep(0.01)
    victim = pool.procs[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(5.0)
    # Now let the inline re-run terminate immediately.
    with open(os.path.join(marker_dir, "stop"), "w") as f:
        f.write("x")
    assert task.wait() == 6.0
    pool.close()
    assert _shm_entries(pool.shm_prefix) == []


def test_worker_killed_while_idle_is_noticed_at_next_dispatch():
    """SIGKILL an idle worker that holds a result copy: the next tasks
    still complete (in-process, counted), and the dead worker's
    segments are swept before close()."""
    stats = GodivaStats()
    pool = ProcessComputePool(2, start_method="fork", spawn_procs=1,
                              stats=stats)
    pool.start()
    first = pool.submit(double, np.ones(SHAPE))
    _let_workers_settle([first])
    assert first.wait()[0, 0] == 2.0
    assert stats.compute_dispatches == 1
    assert _shm_entries(f"{pool.shm_prefix}-w0")
    victim = pool.procs[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(5.0)
    assert not victim.is_alive()
    tasks = [pool.submit(double, np.full(SHAPE, float(i)))
             for i in range(3)]
    _let_workers_settle(tasks)
    assert [task.wait()[0, 0] for task in tasks] == [0.0, 2.0, 4.0]
    assert stats.compute_dispatches == 1
    assert stats.compute_fallback_inline >= 1
    assert _shm_entries(f"{pool.shm_prefix}-w0") == []
    pool.close()
    assert _shm_entries(pool.shm_prefix) == []


def test_worker_dead_before_its_first_task():
    """A worker that never got as far as its task loop (killed while
    ``spawn`` was still booting it): tasks complete in-process
    promptly, close() leaves ``/dev/shm`` empty."""
    stats = GodivaStats()
    pool = ProcessComputePool(2, start_method="spawn", spawn_procs=1,
                              stats=stats)
    pool.start()
    victim = pool.procs[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(5.0)
    assert not victim.is_alive()
    t0 = time.monotonic()
    tasks = [pool.submit(double, np.full(SHAPE, float(i)))
             for i in range(3)]
    _let_workers_settle(tasks, timeout=5.0)
    assert [task.wait()[0, 0] for task in tasks] == [0.0, 2.0, 4.0]
    assert time.monotonic() - t0 < 5.0
    assert stats.compute_dispatches == 0
    assert stats.compute_fallback_inline == 3
    pool.close()
    assert _shm_entries(pool.shm_prefix) == []


def test_sweep_shm_prefix_removes_orphans():
    """The crash-cleanup helper unlinks exactly the named segments."""
    from multiprocessing import shared_memory

    # Simulate a crashed owner: a segment nobody will ever unlink.
    orphan = shared_memory.SharedMemory(
        create=True, size=4096, name="t-cp-orphan-seg",
    )
    orphan.close()
    assert _shm_entries("t-cp-orphan")
    assert sweep_shm_prefix("t-cp-orphan") >= 1
    assert _shm_entries("t-cp-orphan") == []


def test_stats_integrate_into_gbo_snapshot():
    """The new counters ride the GodivaStats snapshot machinery."""
    stats = GodivaStats()
    snapshot = stats.snapshot()
    for key in ("compute_dispatches", "compute_fallback_inline",
                "compute_token_bytes", "compute_result_token_bytes"):
        assert key in snapshot
