"""ComputePool — the compute plane's worker pool.

Generalizes the :class:`~repro.core.io_scheduler.IoScheduler`'s
priority-queue/worker machinery from I/O callbacks to arbitrary compute
tasks: isosurface tet-range kernels, per-op lookahead extraction, and
whatever future compute stages need fan-out (tiles composite inline,
never as tasks). The pool is deliberately engine-agnostic — it knows
nothing about units, records, or budgets — so ``repro.viz`` may use it
directly (it is not one of the REP107 engine-internal modules).

Concurrency model
-----------------

* ``workers == 1`` is the paper-faithful serial build: no threads are
  ever created and :meth:`ComputePool.submit` runs the task inline in
  the caller, so call order *is* execution order, byte for byte.
* ``workers > 1`` spawns daemon worker threads that drain a
  :class:`~repro.structures.priorityqueue.PriorityQueue` of tasks
  (highest priority first, FIFO within a priority).
* :meth:`ComputeTask.wait` *helps*: if the awaited task is still
  queued, the waiting thread steals and runs it instead of blocking —
  the caller acts as an extra worker, the pool makes progress even if
  :meth:`start` was never called, and a 1-core host pays no
  idle-waiting penalty.

The pool lock is a **leaf** in the engine's lock order: tasks always
execute with the pool lock released, so task bodies are free to take
the engine or record locks (extraction kernels do exactly that).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Iterable, List, Optional

from repro.analysis.primitives import (
    TrackedCondition,
    TrackedLock,
    make_held_checker,
)
from repro.analysis.races import guarded_by
from repro.core.stats import GodivaStats
from repro.errors import ComputePoolClosedError
from repro.structures.priorityqueue import PriorityQueue

#: ComputeTask lifecycle states.
PENDING = "pending"      # in the queue (or being submitted)
RUNNING = "running"      # a worker (or a stealing waiter) owns it
DONE = "done"            # finished; ``result`` is valid
FAILED = "failed"        # the callable raised; ``error`` is set
CANCELLED = "cancelled"  # still queued when the pool closed

_TERMINAL = (DONE, FAILED, CANCELLED)


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (``taskset``, cgroup cpusets), else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ComputeTask:
    """One submitted unit of compute work (a future).

    State transitions and the ``result``/``error`` fields are guarded by
    the owning pool's lock; :meth:`wait` is the only blocking API.
    """

    __slots__ = ("_pool", "_fn", "_args", "_kwargs", "task_id",
                 "priority", "state", "result", "error")

    def __init__(self, pool: "ComputePool", fn: Callable[..., Any],
                 args: tuple, kwargs: dict, task_id: int,
                 priority: float) -> None:
        self._pool = pool
        self._fn = fn
        self._args = args
        self._kwargs = kwargs
        self.task_id = task_id
        self.priority = priority
        self.state = PENDING
        self.result: Any = None
        self.error: Optional[BaseException] = None

    def wait(self) -> Any:
        """Block until the task finishes and return its result.

        Re-raises the task's exception if it failed, and raises
        :class:`~repro.errors.ComputePoolClosedError` if the pool shut
        down while the task was still queued. If the task is still
        queued when called, the waiting thread runs it itself.
        """
        return self._pool._wait(self)

    def _run(self) -> Any:
        """Call the task's callable in this thread."""
        return self._fn(*self._args, **self._kwargs)

    def release(self) -> None:
        """Give back whatever the pool holds for this task's result.

        Nothing on the thread backend (results are plain references);
        the process backend frees the worker-side result copy. Part of
        the task protocol so callers release unconditionally.
        """

    @property
    def done(self) -> bool:
        """Whether the task reached a terminal state (unsynchronized
        peek; use :meth:`wait` to rendezvous)."""
        return self.state in _TERMINAL

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ComputeTask #{self.task_id} {self.state}>"


@guarded_by("_queue", "_closed", "_next_id", "_threads", "_started",
            lock="_lock")
class ComputePool:
    """Priority-ordered compute worker pool with helping waiters.

    Parameters
    ----------
    workers:
        Worker thread count; 1 (the default) is the serial build — no
        threads, tasks run inline at submission.
    name:
        Thread-name prefix for the pool's workers.
    lock, cond:
        Injectable lock/condition pair (tests); a private tracked pair
        is created when omitted. The pool lock is a leaf: no task body
        runs under it.
    stats:
        A :class:`GodivaStats` sink for the ``compute_*`` counters; a
        private instance is created when omitted.
    clock:
        Monotonic-seconds callable used for task timing.
    spawn_threads:
        Worker *threads* to spawn at :meth:`start` (clamped to
        ``workers``). Default None auto-sizes to
        ``min(workers, usable_cores()) - 1``: a waiting submitter helps, so
        the thread complement plus the helping caller saturates the
        host without oversubscribing it — on a single-core host no
        threads are spawned and the helping caller runs every task
        itself, same results, no scheduler churn. Tests pass an
        explicit count to force the threaded paths anywhere.
    max_threads:
        Hard cap on spawned worker threads, applied *after* the
        ``spawn_threads``/auto sizing. This is the oversubscription
        guard for hosts running several pools in one process (the
        GBO's pool plus per-shard host pools each sizing by
        :func:`usable_cores` would otherwise multiply):
        :class:`~repro.parallel.sharded.ShardedGBO` divides the host's
        cores among its shards through this knob. ``workers`` — and
        therefore the helping/ordering semantics — is unchanged; only
        the thread complement shrinks.
    """

    #: Tasks run in this process: bound methods and closures are fine,
    #: and arrays need no staging (see ProcessComputePool.distributed).
    distributed = False

    #: The task class :meth:`submit` instantiates.
    _task_type = ComputeTask

    #: What :meth:`start` builds worker threads with.
    _thread_factory = threading.Thread

    def __init__(
        self,
        workers: int = 1,
        *,
        name: str = "godiva-compute",
        lock: Optional[object] = None,
        cond: Optional[object] = None,
        stats: Optional[GodivaStats] = None,
        clock: Callable[[], float] = time.monotonic,
        spawn_threads: Optional[int] = None,
        max_threads: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_threads is not None and max_threads < 0:
            raise ValueError(
                f"max_threads must be >= 0, got {max_threads}"
            )
        if lock is None:
            lock = TrackedLock(f"ComputePool._lock@{id(self):#x}")
            cond = TrackedCondition(lock)
        self._lock = lock
        self._cond = cond
        self._check_locked = make_held_checker(lock, "ComputePool helper")
        self._clock = clock
        self.stats = stats if stats is not None else GodivaStats()
        self._queue = PriorityQueue()
        self._workers = int(workers)
        self._name = name
        self._spawn_threads = spawn_threads
        self._max_threads = max_threads
        self._threads: List[threading.Thread] = []
        self._started = False
        self._closed = False
        self._next_id = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (no-op for the serial build and when
        already started)."""
        with self._lock:
            if self._started or self._closed or self._workers == 1:
                self._started = True
                return
            self._started = True
            spawned = [
                self._thread_factory(
                    target=self._work_loop,
                    name=f"{self._name}-{index}", daemon=True,
                )
                for index in range(self._worker_count())
            ]
            self._threads.extend(spawned)
            # Started under the lock so a concurrent close() can never
            # observe (and try to join) a thread that is not running
            # yet; the workers themselves begin by re-acquiring it.
            for thread in spawned:
                thread.start()

    def _worker_count(self) -> int:
        """Worker threads :meth:`start` spawns (see ``spawn_threads``
        and ``max_threads``)."""
        if self._spawn_threads is not None:
            count = max(0, min(self._spawn_threads, self._workers))
        else:
            count = max(0, min(self._workers, usable_cores()) - 1)
        if self._max_threads is not None:
            count = min(count, self._max_threads)
        return count

    def close(self) -> None:
        """Shut the pool down: cancel queued tasks, join the workers.

        Idempotent. Tasks already running complete normally and their
        waiters still receive results; tasks still queued move to
        ``CANCELLED`` and their waiters raise
        :class:`~repro.errors.ComputePoolClosedError`.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            while self._queue:
                task_obj: ComputeTask = self._queue.pop()
                task_obj.state = CANCELLED
            self._cond.notify_all()
            workers, self._threads = self._threads, []
        # Join outside the lock — the workers need it to drain.
        for thread in workers:
            thread.join()

    def __enter__(self) -> "ComputePool":
        """Context-manager entry: starts the workers."""
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: closes the pool."""
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Configured worker count (1 = serial inline execution)."""
        return self._workers

    @property
    def parallel(self) -> bool:
        """Whether submitted tasks may run on other threads."""
        return self._workers > 1

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed its cancel phase."""
        with self._lock:
            return self._closed

    @property
    def threads(self) -> List[threading.Thread]:
        """The live worker threads (empty in the serial build)."""
        with self._lock:
            return list(self._threads)

    def queue_len(self) -> int:
        """Tasks currently pending. Lock held."""
        self._check_locked()
        return len(self._queue)

    def share(self, array: Any) -> Any:
        """Mark an array for reuse across many tasks — identity here.

        The thread backend shares the caller's address space, so there
        is nothing to stage: the array itself is returned and task
        bodies receive it directly. Exists so callers can write one
        ``pool.share(...)`` call that is a no-op on threads and a
        zero-copy token export on
        :class:`~repro.core.compute_proc.ProcessComputePool`.
        """
        return array

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any,
               priority: float = 0.0, **kwargs: Any) -> ComputeTask:
        """Queue ``fn(*args, **kwargs)`` and return its task.

        In the serial build the call runs inline before returning, so
        submission order is execution order. With workers, the task
        joins the priority queue (highest first, FIFO within a
        priority) and runs on whichever worker — or helping waiter —
        pops it.
        """
        with self._cond:
            if self._closed:
                raise ComputePoolClosedError(
                    "submit on a closed ComputePool"
                )
            task = self._task_type(self, fn, args, kwargs,
                                   task_id=self._next_id,
                                   priority=priority)
            self._next_id += 1
            if self._queues(fn):
                self._queue.push(task, priority=priority)
                depth = len(self._queue)
                if depth > self.stats.compute_queue_depth_peak:
                    self.stats.compute_queue_depth_peak = depth
                self._cond.notify_all()
                return task
            task.state = RUNNING
        # Not queued (the serial build): inline, outside the lock.
        self._execute(task)
        return task

    def _queues(self, fn: Callable[..., Any]) -> bool:
        """Whether a task calling ``fn`` joins the queue; otherwise
        :meth:`submit` runs it in the caller. Lock held."""
        self._check_locked()
        return self._workers > 1

    def map(self, fn: Callable[..., Any], items: Iterable[Any],
            priority: float = 0.0) -> List[Any]:
        """Submit ``fn(item)`` for every item and wait for all results.

        Results come back in item order regardless of execution order.
        The first failing task's exception is re-raised (after every
        task was submitted, so no work is silently dropped).
        """
        tasks = [self.submit(fn, item, priority=priority)
                 for item in items]
        return [task.wait() for task in tasks]

    def wait_all(self, tasks: Iterable[ComputeTask]) -> List[Any]:
        """Wait for every task; returns results in the given order."""
        return [task.wait() for task in tasks]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _wait(self, task: ComputeTask) -> Any:
        """Blocking rendezvous with ``task``, helping while it blocks.

        While the target is unfinished the waiter acts as an extra
        worker: it pops and runs pending tasks (highest priority first
        — possibly the target itself), and only sleeps when the queue
        is empty and the target is running on another thread. The pool
        therefore progresses even if :meth:`start` was never called,
        and a waiting thread never idles while work is queued — on a
        single-core host the waiter ends up doing most of the work
        itself, which is exactly the cheap path. Task bodies that wait
        on their *own* sub-tasks (the isosurface tet-range fan-out)
        recurse on the waiter's stack: the inner wait helps or sleeps
        on the same condition, bounded by the fan-out depth (one
        level), so the recursion is shallow and cannot deadlock.
        """
        while True:
            with self._cond:
                while task.state == RUNNING and not self._queue:
                    self._cond.wait()
                if task.state in _TERMINAL:
                    if task.state == CANCELLED:
                        raise ComputePoolClosedError(
                            f"task #{task.task_id} cancelled (pool "
                            f"closed or task released while queued)"
                        )
                    if task.state == FAILED:
                        raise task.error
                    return task.result
                # Work is pending: help. Pop the best task (FIFO within
                # a priority, like the workers) rather than necessarily
                # the target — the waiter needs the queue drained either
                # way, and priority order is preserved.
                steal: ComputeTask = self._queue.pop()
                steal.state = RUNNING
                self.stats.compute_steals += 1
            self._execute(steal)

    def _work_loop(self) -> None:
        """Worker main loop: drain the priority queue until close."""
        while True:
            with self._cond:
                while not self._closed and not self._queue:
                    self._cond.wait()
                if self._closed:
                    return
                task: ComputeTask = self._queue.pop()
                task.state = RUNNING
            self._execute(task)

    def _execute(self, task: ComputeTask) -> None:
        """Run a RUNNING task in this thread (lock NOT held) and settle
        it."""
        t0 = self._clock()
        result: Any = None
        error: Optional[BaseException] = None
        try:
            result = task._run()
        except BaseException as exc:  # re-raised by the task's waiter
            error = exc
        elapsed = self._clock() - t0
        with self._cond:
            self._settle(task, result, error, elapsed)

    def _settle(self, task: ComputeTask, result: Any,
                error: Optional[BaseException], elapsed: float) -> None:
        """Move a RUNNING task to its terminal state and wake its
        waiters. Lock held."""
        self._check_locked()
        if error is not None:
            task.error = error
            task.state = FAILED
        else:
            task.result = result
            task.state = DONE
        self.stats.compute_tasks += 1
        self.stats.compute_task_seconds += elapsed
        self._cond.notify_all()
