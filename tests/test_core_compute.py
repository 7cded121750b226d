"""ComputePool: serial inline execution, workers, helping waiters,
close semantics, and stats accounting.

Marked ``races`` (by ``conftest.py``, filename prefix) so the sanitizer
job replays the threaded paths under the lockset race detector.
"""

import os
import threading

import pytest

from repro.core.compute import (
    CANCELLED,
    DONE,
    ComputePool,
    ComputeTask,
    usable_cores,
)
from repro.core.compute_proc import ProcessComputePool
from repro.core.stats import GodivaStats
from repro.errors import ComputePoolClosedError


def test_workers_validated():
    with pytest.raises(ValueError):
        ComputePool(0)


def test_serial_submit_runs_inline():
    pool = ComputePool(1)
    ran_on = []
    task = pool.submit(lambda: ran_on.append(threading.current_thread()))
    assert task.state == DONE
    assert ran_on == [threading.main_thread()]
    assert not pool.parallel
    assert pool.workers == 1
    assert pool.threads == []
    pool.close()


def test_serial_submission_order_is_execution_order():
    pool = ComputePool(1)
    order = []
    for i in range(5):
        pool.submit(order.append, i)
    assert order == [0, 1, 2, 3, 4]
    pool.close()


def test_map_returns_results_in_item_order():
    with ComputePool(4, spawn_threads=2) as pool:
        assert pool.map(lambda x: x * x, range(6)) == [
            0, 1, 4, 9, 16, 25]


def test_task_error_reraised_at_wait():
    def boom():
        raise RuntimeError("task failed")

    pool = ComputePool(1)
    with pytest.raises(RuntimeError, match="task failed"):
        pool.submit(boom).wait()
    pool.close()


def test_parallel_error_reraised_at_wait():
    def boom():
        raise RuntimeError("threaded failure")

    with ComputePool(4, spawn_threads=2) as pool:
        task = pool.submit(boom)
        with pytest.raises(RuntimeError, match="threaded failure"):
            task.wait()


def test_waiter_helps_without_start():
    # The pool progresses even when start() is never called: the
    # waiting thread steals queued tasks and runs them itself.
    stats = GodivaStats()
    pool = ComputePool(4, stats=stats, spawn_threads=0)
    pool.start()
    tasks = [pool.submit(lambda x: x + 1, i) for i in range(8)]
    assert pool.wait_all(tasks) == list(range(1, 9))
    assert stats.compute_steals == 8
    assert stats.compute_tasks == 8
    pool.close()


def test_waiter_helps_in_priority_order():
    # A helping waiter pops highest-priority-first, FIFO within ties —
    # the same discipline the worker loop follows.
    order = []
    pool = ComputePool(4, spawn_threads=0)
    low = pool.submit(order.append, "low", priority=-1.0)
    first = pool.submit(order.append, "first")
    second = pool.submit(order.append, "second")
    low.wait()
    assert order == ["first", "second", "low"]
    pool.wait_all([first, second])
    pool.close()


def test_threaded_pool_executes_all_tasks():
    with ComputePool(4, spawn_threads=3) as pool:
        results = pool.map(lambda x: x * 2, range(32))
    assert results == [x * 2 for x in range(32)]


def test_submit_after_close_raises():
    pool = ComputePool(1)
    pool.close()
    with pytest.raises(ComputePoolClosedError):
        pool.submit(lambda: None)


def test_close_cancels_queued_tasks():
    pool = ComputePool(4, spawn_threads=0)  # nothing drains the queue
    task = pool.submit(lambda: 42)
    pool.close()
    assert task.state == CANCELLED
    with pytest.raises(ComputePoolClosedError):
        task.wait()


def test_close_idempotent_and_joins_threads():
    pool = ComputePool(4, spawn_threads=2)
    pool.start()
    threads = pool.threads
    assert len(threads) == 2
    pool.close()
    pool.close()
    assert pool.closed
    assert all(not t.is_alive() for t in threads)
    assert pool.threads == []


def test_concurrent_start_and_close_joins_every_thread():
    """Regression: repro-check (SC101) caught ``start()`` appending to
    ``_threads`` outside the lock, so a concurrent ``close()`` could
    snapshot a half-built list and leave spawned workers unjoined.
    Spawning now happens entirely under the lock; close() swaps the
    list out under the lock and joins outside it."""
    for _ in range(20):
        pool = ComputePool(4, spawn_threads=3)
        release = threading.Event()
        spawned = []

        class _GatedThread(threading.Thread):
            """Widens the start/close race window: the starter blocks
            after thread objects exist but before start() returns."""

            def start(self):
                spawned.append(self)
                release.wait(timeout=5.0)
                super().start()

        pool._thread_factory = _GatedThread
        starter = threading.Thread(target=pool.start)
        starter.start()
        closer = threading.Thread(target=pool.close)
        closer.start()
        release.set()
        starter.join(timeout=5.0)
        closer.join(timeout=5.0)
        assert not starter.is_alive() and not closer.is_alive()
        for thread in spawned:
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "close() leaked a worker"
        assert pool.closed
        assert pool.threads == []


def test_stats_count_tasks_and_time():
    stats = GodivaStats()
    clock = iter(range(100))
    pool = ComputePool(1, stats=stats, clock=lambda: float(next(clock)))
    pool.submit(lambda: None)
    pool.submit(lambda: None)
    assert stats.compute_tasks == 2
    assert stats.compute_task_seconds == 2.0  # one tick per task
    pool.close()


def test_queue_depth_peak_tracked():
    stats = GodivaStats()
    pool = ComputePool(4, stats=stats, spawn_threads=0)
    tasks = [pool.submit(lambda: None) for _ in range(5)]
    assert stats.compute_queue_depth_peak == 5
    pool.wait_all(tasks)
    pool.close()


def test_task_repr_and_done():
    pool = ComputePool(1)
    task = pool.submit(lambda: "x")
    assert task.done
    assert isinstance(task, ComputeTask)
    assert "done" in repr(task)
    pool.close()


def test_context_manager_starts_and_closes():
    with ComputePool(2, spawn_threads=1) as pool:
        assert pool.parallel
        assert pool.submit(lambda: 7).wait() == 7
    assert pool.closed


def test_max_threads_caps_spawned_workers():
    """The oversubscription fix: a host-level cap wins over both the
    worker count and an explicit spawn_threads override."""
    pool = ComputePool(8, spawn_threads=6, max_threads=2)
    pool.start()
    assert len(pool.threads) == 2
    assert pool.map(lambda x: x + 1, range(8)) == list(range(1, 9))
    pool.close()


def test_max_threads_zero_means_helping_waiters_only():
    stats = GodivaStats()
    pool = ComputePool(4, spawn_threads=4, max_threads=0, stats=stats)
    pool.start()
    assert pool.threads == []
    tasks = [pool.submit(lambda i=i: i * 2) for i in range(3)]
    assert [t.wait() for t in tasks] == [0, 2, 4]
    assert stats.compute_steals > 0
    pool.close()


def test_max_threads_validated():
    with pytest.raises(ValueError):
        ComputePool(2, max_threads=-1)


@pytest.fixture
def one_cpu_of_two(monkeypatch):
    """A 2-core host whose affinity mask (``taskset -c 0``, a cpuset)
    leaves this process one CPU."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)


def test_pools_size_themselves_to_the_affinity_mask(one_cpu_of_two):
    assert usable_cores() == 1
    # One usable CPU: no worker thread, the helping caller runs it all.
    assert ComputePool(4)._worker_count() == 0
    assert ProcessComputePool(4)._worker_count() == 1


def test_usable_cores_without_an_affinity_call(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cores() == 1
