"""ProcessComputePool — the compute plane on worker *processes*.

A drop-in sibling of :class:`~repro.core.compute.ComputePool` (same
``submit``/``wait``/priority/stats surface, selected via
``GBO(compute_backend="process")``) whose tasks run in long-lived
worker processes instead of threads, so vectorized kernels stop
serializing on the GIL. The classic cost of multiprocessing — pickling
the inputs — is removed by the PR-9 arena seam: large arrays cross the
process boundary as :class:`~repro.core.arena.BufferToken`\\ s (a few
dozen bytes naming shared pages), workers attach them zero-copy
read-only, and large results come back the same way from a per-worker
result arena the coordinator attaches read-only.

Task routing
------------

``submit`` accepts any callable, exactly like the thread pool, but only
*dispatchable* tasks ship to a worker: the callable must be a
module-level function (so the worker can re-import it by name). Bound
methods and closures — and any task whose token export or attach fails
— run **inline in the coordinator** instead (counted in
``stats.compute_fallback_inline``); results are identical, only the
parallelism is lost. The two hot kernels
(:func:`repro.viz.render.composite_tile_task` and
:func:`repro.viz.isosurface.marching_tets_pieces`) are module-level
pure functions for exactly this reason.

Inputs: callers wrap arrays they will reuse across many tasks in
:meth:`ProcessComputePool.share` (staged once into the pool's staging
arena — or exported zero-copy when the array already lives in a
shareable arena the pool was given). Unwrapped arrays above
``token_min_bytes`` are staged automatically per task; smaller ones
ride the task message. A shared input must stay alive and unmodified
until every task referencing it settles.

Results: each worker owns a private :class:`SharedMemoryArena`; arrays
above the threshold are copied in, sealed, and returned as tokens the
coordinator attaches read-only. :meth:`ProcComputeTask.release` frees
the worker-side copy once the result is consumed (attached views stay
valid — the bump allocator never recycles a freed extent).

Degradation and hygiene
-----------------------

* ``workers == 1`` never creates a process: tasks run inline at
  submission, byte-identical to the serial build.
* Waiters *help* exactly like the thread pool: tasks not yet handed to
  a worker are stolen and run inline by whoever waits.
* A worker killed mid-task is detected by the collector; its in-flight
  tasks re-run inline and its shared-memory segments are unlinked.
* ``close()`` drains and joins the workers, then sweeps ``/dev/shm``
  for any segment carrying the pool's name prefix — leak-checked in
  ``tests/test_core_compute_proc.py`` under both ``fork`` and
  ``spawn`` start methods.

The pool lock is a **leaf** (rank 3, role ``compute_proc`` in DESIGN's
table): no task body, queue operation, arena call, or attach runs
under it.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as _queue_mod
import secrets
import sys
import threading
import time
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.analysis.primitives import (
    TrackedCondition,
    TrackedLock,
    make_held_checker,
)
from repro.analysis.races import guarded_by
from repro.core.arena import (
    Arena,
    BufferToken,
    SharedMemoryArena,
    _close_mapping,
    _destroy_segment,
)
from repro.core.compute import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    _TERMINAL,
    ComputeTask,
)
from repro.core.stats import GodivaStats
from repro.errors import ArenaError, ComputePoolClosedError, ComputeWorkerError

#: Arrays at or above this many bytes cross the boundary as tokens;
#: smaller ones are cheaper to pickle than to stage + attach.
TOKEN_MIN_BYTES = 32 * 1024

#: Dispatched-but-unsettled tasks per worker; the rest stay in the
#: coordinator's priority queue where helping waiters can steal them.
_WINDOW_PER_WORKER = 2

#: Collector poll period — how often worker liveness is re-checked
#: while the result queue is idle.
_POLL_S = 0.2

#: Worker join grace before escalating to terminate() at close.
_JOIN_TIMEOUT_S = 10.0

#: Stop message: ends a worker's task loop and, on the result queue,
#: the collector thread's.
_STOP = ("stop",)


class _TokenRef:
    """Wire marker: this argument/result slot is an arena token."""

    __slots__ = ("token",)

    def __init__(self, token: BufferToken) -> None:
        self.token = token

    def __reduce__(self):
        return (_TokenRef, (self.token,))


class SharedInput:
    """A coordinator-side handle to one array shared with the workers.

    Produced by :meth:`ProcessComputePool.share`; pass it to ``submit``
    in place of the array. Workers see the underlying ndarray
    (read-only, zero-copy); inline execution paths see ``array``
    unchanged. ``refs``/``token``/``staged`` are pool bookkeeping,
    mutated under the pool lock.
    """

    __slots__ = ("array", "token", "staged", "located", "refs")

    def __init__(self, array: np.ndarray) -> None:
        self.array = array
        self.token: Optional[BufferToken] = None
        #: The staging-arena copy to free when ``refs`` drains (None
        #: for zero-copy located exports — the owner frees those).
        self.staged: Optional[np.ndarray] = None
        self.located = False
        self.refs = 0


class ProcComputeTask(ComputeTask):
    """A :class:`ComputeTask` that may settle from a worker process."""

    __slots__ = ("worker", "shared")

    def __init__(self, pool: "ProcessComputePool", fn: Callable[..., Any],
                 args: tuple, kwargs: dict, task_id: int,
                 priority: float) -> None:
        super().__init__(pool, fn, args, kwargs, task_id, priority)
        #: Worker index the task was dispatched to (None = not
        #: dispatched: ran inline or still queued).
        self.worker: Optional[int] = None
        #: SharedInputs referenced by the dispatched message.
        self.shared: List[SharedInput] = []

    def release(self) -> None:
        """Free the worker-side copies of this task's token results.

        Call after the result has been consumed — or abandoned: a task
        released while still queued (never dispatched) is cancelled.
        Attached views that are still alive stay readable (freed
        extents are never recycled); the worker's memory is returned.
        Idempotent, no-op for inline/thread results.
        """
        self._pool._release_task(self)


def _unwrap(value: Any) -> Any:
    """Replace SharedInput handles with their arrays (inline paths)."""
    if isinstance(value, SharedInput):
        return value.array
    if isinstance(value, tuple):
        return tuple(_unwrap(item) for item in value)
    if isinstance(value, list):
        return [_unwrap(item) for item in value]
    if isinstance(value, dict):
        return {key: _unwrap(item) for key, item in value.items()}
    return value


def _is_dispatchable(fn: Callable[..., Any]) -> bool:
    """Whether a worker can re-import ``fn`` by module + name."""
    module = getattr(fn, "__module__", None)
    name = getattr(fn, "__qualname__", "")
    if not module or not name or "." in name:
        return False
    return getattr(sys.modules.get(module), name, None) is fn


class _AttachCache:
    """Per-process cache of segment mappings for token attachment.

    One :class:`~multiprocessing.shared_memory.SharedMemory` mapping
    per segment, reused across every token that names it — attaching N
    tokens costs one mmap per distinct segment, not N.
    """

    def __init__(self) -> None:
        self._maps: Dict[str, shared_memory.SharedMemory] = {}

    def attach(self, token: BufferToken) -> np.ndarray:
        """A read-only zero-copy ndarray over the token's pages."""
        shm = self._maps.get(token.segment)
        if shm is None:
            shm = shared_memory.SharedMemory(name=token.segment)
            self._maps[token.segment] = shm
        ro = shm.buf[token.offset:token.offset + token.nbytes].toreadonly()
        array = np.frombuffer(ro, dtype=np.dtype(token.dtype))
        return array.reshape(token.shape)

    def close(self) -> None:
        """Unmap every cached segment (never unlinks)."""
        maps, self._maps = self._maps, {}
        for shm in maps.values():
            _close_mapping(shm)


def _decode(value: Any, cache: _AttachCache) -> Any:
    """Resolve _TokenRef markers to attached read-only arrays."""
    if isinstance(value, _TokenRef):
        return cache.attach(value.token)
    if isinstance(value, tuple):
        return tuple(_decode(item, cache) for item in value)
    if isinstance(value, list):
        return [_decode(item, cache) for item in value]
    if isinstance(value, dict):
        return {key: _decode(item, cache) for key, item in value.items()}
    return value


def _tokenizable(value: Any, threshold: int) -> bool:
    return (isinstance(value, np.ndarray) and not value.dtype.hasobject
            and value.nbytes >= threshold)


def _export_result(value: Any, arena: SharedMemoryArena, threshold: int,
                   out_allocs: List[np.ndarray]) -> Any:
    """Worker-side result encoding: big arrays become arena tokens."""
    if _tokenizable(value, threshold):
        copy = arena.allocate(dtype=value.dtype,
                              shape=tuple(value.shape))
        copy[...] = value
        arena.seal(copy)
        out_allocs.append(copy)
        return _TokenRef(arena.export_token(copy))
    if isinstance(value, tuple):
        return tuple(_export_result(item, arena, threshold, out_allocs)
                     for item in value)
    if isinstance(value, list):
        return [_export_result(item, arena, threshold, out_allocs)
                for item in value]
    if isinstance(value, dict):
        return {key: _export_result(item, arena, threshold, out_allocs)
                for key, item in value.items()}
    return value


def _resolve_fn(module: str, name: str) -> Callable[..., Any]:
    """Import ``module`` and look up the task callable in a worker."""
    __import__(module)
    fn = getattr(sys.modules[module], name, None)
    if not callable(fn):
        raise ComputeWorkerError(
            f"task callable {module}.{name} did not resolve in worker"
        )
    return fn


def _worker_main(index: int, arena_prefix: str, segment_bytes: int,
                 threshold: int, task_q, result_q) -> None:
    """Worker process main loop: attach inputs, run, token the results.

    Owns a private result :class:`SharedMemoryArena` (``arena_prefix``
    names it, so the coordinator can sweep it if this process dies
    uncleanly) and an input attach cache. Messages: ``("task", id,
    module, name, args, kwargs)``, ``("release", ids)``, ``("stop",)``.
    """
    arena = SharedMemoryArena(name_prefix=arena_prefix,
                              segment_bytes=segment_bytes)
    cache = _AttachCache()
    held: Dict[int, List[np.ndarray]] = {}
    try:
        while True:
            try:
                msg = task_q.get()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "release":
                for task_id in msg[1]:
                    for array in held.pop(task_id, ()):
                        arena.release(array)
                continue
            _kind, task_id, module, name, enc_args, enc_kwargs = msg
            t0 = time.monotonic
            start = t0()
            error: Optional[BaseException] = None
            encoded: Any = None
            shipped = 0
            try:
                fn = _resolve_fn(module, name)
                args = _decode(enc_args, cache)
                kwargs = _decode(enc_kwargs, cache)
                value = fn(*args, **kwargs)
                allocs: List[np.ndarray] = []
                encoded = _export_result(value, arena, threshold, allocs)
                if allocs:
                    held[task_id] = allocs
                    shipped = sum(a.nbytes for a in allocs)
            except BaseException as exc:  # settled on the coordinator
                error = exc
            elapsed = t0() - start
            if error is not None:
                try:
                    pickle.dumps(error)
                except Exception:
                    error = ComputeWorkerError(
                        f"worker task raised unpicklable "
                        f"{type(error).__name__}: {error!r}"
                    )
            result_q.put(("done", task_id, index, encoded, error,
                          elapsed, shipped))
    finally:
        cache.close()
        arena.close()


@guarded_by("_queue", "_closed", "_next_id", "_procs", "_started",
            "_inflight", lock="_lock")
class ProcessComputePool:
    """Priority-ordered compute pool over long-lived worker processes.

    Mirrors :class:`~repro.core.compute.ComputePool`'s surface
    (``submit``/``map``/``wait_all``/``start``/``close``, helping
    waiters, serial inline at ``workers == 1``) and adds the process
    backend's seams: :meth:`share` for zero-copy inputs and
    ``distributed = True`` so callers can route only module-level pure
    kernels here.

    Parameters
    ----------
    workers:
        Requested parallelism; 1 = serial inline, no processes.
    name:
        Name prefix for worker processes and shared-memory segments.
    stats:
        :class:`GodivaStats` sink (``compute_*`` counters).
    clock:
        Coordinator-side monotonic clock (workers time themselves with
        ``time.monotonic`` — an injected clock cannot cross exec).
    share_arena:
        A shareable arena whose buffers :meth:`share` may export
        zero-copy (the GBO passes its own ``SharedMemoryArena``);
        staging of other arrays uses a pool-private arena either way.
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"``; None = the platform
        default. The test suite exercises fork and spawn.
    spawn_procs:
        Explicit worker-process count (tests; 0 = helping waiters run
        everything in the coordinator).
    max_procs:
        Cap on spawned processes — the oversubscription guard when
        several pools coexist in one process (mirrors the thread
        pool's ``max_threads``).
    token_min_bytes:
        Array-size threshold for token transport (below it, pickling
        through the queue is cheaper).
    segment_bytes:
        Segment size for the pool's staging and worker result arenas.
    """

    #: Tasks execute in other *processes*: only module-level callables
    #: dispatch; engine objects must not be captured in task args.
    distributed = True

    def __init__(
        self,
        workers: int = 1,
        *,
        name: str = "godiva-compute",
        stats: Optional[GodivaStats] = None,
        clock: Callable[[], float] = time.monotonic,
        share_arena: Optional[Arena] = None,
        start_method: Optional[str] = None,
        spawn_procs: Optional[int] = None,
        max_procs: Optional[int] = None,
        token_min_bytes: int = TOKEN_MIN_BYTES,
        segment_bytes: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_procs is not None and max_procs < 1:
            raise ValueError(f"max_procs must be >= 1, got {max_procs}")
        self._lock = TrackedLock(f"ProcessComputePool._lock@{id(self):#x}")
        self._cond = TrackedCondition(self._lock)
        self._check_locked = make_held_checker(
            self._lock, "ProcessComputePool helper"
        )
        self._clock = clock
        self.stats = stats if stats is not None else GodivaStats()
        from repro.structures.priorityqueue import PriorityQueue

        self._queue = PriorityQueue()
        self._workers = int(workers)
        self._name = name
        self._start_method = start_method
        self._spawn_procs = spawn_procs
        self._max_procs = max_procs
        self._token_min = int(token_min_bytes)
        self._segment_bytes = segment_bytes
        self._share_arena = (share_arena if share_arena is not None
                             and share_arena.shareable else None)
        #: Unique /dev/shm namespace for every segment this pool (its
        #: staging arena and each worker's result arena) creates — the
        #: close-time sweep and crash cleanup key on it.
        self.shm_prefix = f"{name}-proc-{secrets.token_hex(4)}"
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._started = False
        self._closed = False
        self._next_id = 0
        #: task_id -> dispatched task, settled by the collector.
        self._inflight: Dict[int, ProcComputeTask] = {}
        self._worker_load: Dict[int, int] = {}
        self._dead_workers: set = set()
        self._task_queues: List[Any] = []
        self._result_q: Any = None
        self._collector: Optional[Any] = None
        self._staging: Optional[SharedMemoryArena] = None
        self._attach_cache = _AttachCache()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _proc_count(self) -> int:
        if self._spawn_procs is not None:
            return max(0, min(self._spawn_procs, self._workers))
        count = min(self._workers, os.cpu_count() or 1)
        if self._max_procs is not None:
            count = min(count, self._max_procs)
        return max(1, count)

    def start(self) -> None:
        """Spawn the worker processes and the collector thread (no-op
        for the serial build and when already started)."""
        with self._lock:
            if self._started or self._closed or self._workers == 1:
                self._started = True
                return
            self._started = True
            count = self._proc_count()
            ctx = multiprocessing.get_context(self._start_method)
            # Start the resource tracker *before* the workers exist, so
            # every process (coordinator and children alike) registers
            # segments with the one shared tracker — otherwise each
            # fork child lazily spawns its own and the per-tracker
            # register/unregister ledgers can never balance (spurious
            # "leaked shared_memory" warnings at exit).
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - platform-specific
                pass
            segment_bytes = self._segment_bytes
            if segment_bytes is None:
                from repro.core.arena import DEFAULT_SEGMENT_BYTES

                segment_bytes = DEFAULT_SEGMENT_BYTES
            self._staging = SharedMemoryArena(
                name_prefix=f"{self.shm_prefix}-s",
                segment_bytes=segment_bytes,
            )
            if count == 0:
                return
            self._result_q = ctx.Queue()
            spawned = []
            for index in range(count):
                task_q = ctx.Queue()
                self._task_queues.append(task_q)
                self._worker_load[index] = 0
                proc = ctx.Process(
                    target=_worker_main,
                    args=(index, f"{self.shm_prefix}-w{index}",
                          segment_bytes, self._token_min,
                          task_q, self._result_q),
                    name=f"{self._name}-{index}",
                    daemon=True,
                )
                spawned.append(proc)
            self._procs.extend(spawned)
            # Started under the lock so a concurrent close() can never
            # observe (and try to join) a process it did not see start.
            for proc in spawned:
                proc.start()
            collector = threading.Thread(
                target=self._collect_loop,
                name=f"{self._name}-collect", daemon=True,
            )
            self._collector = collector
            collector.start()
        self._pump()

    def close(self) -> None:
        """Shut down: cancel queued tasks, drain + join workers, sweep
        ``/dev/shm``.

        Idempotent. Dispatched tasks settle normally before their
        worker sees the stop message; tasks still queued move to
        ``CANCELLED``; a task stranded by a dead worker is re-run
        inline so no waiter hangs. After the join, every segment under
        the pool's name prefix is unlinked — nothing the pool created
        survives in ``/dev/shm``.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            while self._queue:
                task: ProcComputeTask = self._queue.pop()
                task.state = CANCELLED
            self._cond.notify_all()
            procs = list(self._procs)
            task_queues = list(self._task_queues)
            collector = self._collector
        for task_q in task_queues:
            try:
                task_q.put(_STOP)
            except (ValueError, OSError):  # queue torn down already
                pass
        for proc in procs:
            proc.join(timeout=_JOIN_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join()
        if collector is not None:
            # Every worker has exited, so its results are already in
            # the queue ahead of this sentinel: the collector settles
            # them, sees the sentinel and returns — no poll to wait out.
            self._result_q.put(_STOP)
            collector.join()
        # Any task a dead worker stranded: run it here so waiters see a
        # terminal state (graceful degradation, not a hang).
        with self._lock:
            stranded = list(self._inflight.values())
            self._inflight.clear()
        for task in stranded:
            self._run_inline(task, fallback=True)
        self._attach_cache.close()
        with self._lock:
            staging, self._staging = self._staging, None
            result_q = self._result_q
        if staging is not None:
            staging.close()
        for task_q in task_queues:
            task_q.close()
            task_q.cancel_join_thread()
        if result_q is not None:
            result_q.close()
            result_q.cancel_join_thread()
        sweep_shm_prefix(self.shm_prefix)

    def __enter__(self) -> "ProcessComputePool":
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
        """Whether submitted tasks may run outside the caller."""
        return self._workers > 1

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed its cancel phase."""
        with self._lock:
            return self._closed

    @property
    def procs(self) -> List[Any]:
        """The live worker processes (empty before start/serial)."""
        with self._lock:
            return list(self._procs)

    def queue_len(self) -> int:
        """Tasks currently pending (undispatched). Lock held."""
        self._check_locked()
        return len(self._queue)

    # ------------------------------------------------------------------
    # Input sharing
    # ------------------------------------------------------------------
    def share(self, array: np.ndarray) -> Any:
        """Wrap an array for zero-copy reuse across many tasks.

        Returns the array itself when the pool is serial (the wrapper
        would only cost indirection). Otherwise returns a
        :class:`SharedInput`: the array is exported zero-copy if it
        already lives in the pool's shareable arena, else staged (one
        copy) into the pool's staging arena at first dispatch. The
        caller must keep the array alive and unmodified until every
        task referencing it has settled; the staged copy is freed when
        the last such task settles.
        """
        if not self.parallel:
            return array
        return SharedInput(np.ascontiguousarray(array))

    def _ensure_token(self, shared: SharedInput) -> BufferToken:
        """Token for a SharedInput, staging on first use. No pool lock
        held (arena allocation and the segment scan both block)."""
        token = shared.token
        if token is not None:
            return token
        if self._share_arena is not None:
            located = self._share_arena.locate(shared.array)
            if located is not None:
                shared.token = located
                shared.located = True
                return located
        staging = self._staging
        if staging is None:
            raise ArenaError("pool staging arena not started")
        copy = staging.allocate(dtype=shared.array.dtype,
                                shape=tuple(shared.array.shape))
        copy[...] = shared.array
        staging.seal(copy)
        shared.staged = copy
        shared.token = staging.export_token(copy)
        return shared.token

    def _encode(self, value: Any, shared_out: List[SharedInput]) -> Any:
        """Encode one args/kwargs tree for the wire (lock-free path)."""
        if isinstance(value, SharedInput):
            shared_out.append(value)
            return _TokenRef(self._ensure_token(value))
        if _tokenizable(value, self._token_min):
            auto = SharedInput(np.ascontiguousarray(value))
            shared_out.append(auto)
            return _TokenRef(self._ensure_token(auto))
        if isinstance(value, tuple):
            return tuple(self._encode(item, shared_out) for item in value)
        if isinstance(value, list):
            return [self._encode(item, shared_out) for item in value]
        if isinstance(value, dict):
            return {key: self._encode(item, shared_out)
                    for key, item in value.items()}
        return value

    def _drop_shared_ref_locked(self, shared: SharedInput,
                                releasable: List[np.ndarray]) -> None:
        """Decref one shared input; collect drained staged copies for
        release outside the lock. Lock held."""
        self._check_locked()
        shared.refs -= 1
        if shared.refs <= 0 and shared.staged is not None:
            releasable.append(shared.staged)
            shared.staged = None
            shared.token = None

    def _release_staged(self, releasable: List[np.ndarray]) -> None:
        staging = self._staging
        if staging is None:
            return
        for array in releasable:
            staging.release(array)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any,
               priority: float = 0.0, **kwargs: Any) -> ProcComputeTask:
        """Queue ``fn(*args, **kwargs)`` and return its task.

        Serial build: runs inline before returning. Parallel:
        module-level callables join the priority queue and dispatch to
        worker processes (helping waiters steal what is not yet
        dispatched); anything a worker could not re-import runs inline
        immediately (``stats.compute_fallback_inline``).
        """
        with self._cond:
            if self._closed:
                raise ComputePoolClosedError(
                    "submit on a closed ProcessComputePool"
                )
            task = ProcComputeTask(self, fn, args, kwargs,
                                   task_id=self._next_id,
                                   priority=priority)
            self._next_id += 1
            if self._workers > 1 and _is_dispatchable(fn):
                task.state = PENDING
                self._queue.push(task, priority=priority)
                depth = len(self._queue)
                if depth > self.stats.compute_queue_depth_peak:
                    self.stats.compute_queue_depth_peak = depth
                self._cond.notify_all()
                pump = True
            else:
                task.state = RUNNING
                pump = False
        if pump:
            self._pump()
            return task
        # Serial build or undispatchable callable: inline, no lock.
        self._run_inline(task, fallback=self._workers > 1)
        return task

    def map(self, fn: Callable[..., Any], items: Iterable[Any],
            priority: float = 0.0) -> List[Any]:
        """Submit ``fn(item)`` per item; results in item order."""
        tasks = [self.submit(fn, item, priority=priority)
                 for item in items]
        return [task.wait() for task in tasks]

    def wait_all(self, tasks: Iterable[ComputeTask]) -> List[Any]:
        """Wait for every task; returns results in the given order."""
        return [task.wait() for task in tasks]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _pick_worker_locked(self) -> Optional[int]:
        """Least-loaded live worker with window room. Lock held."""
        self._check_locked()
        best = None
        best_load = _WINDOW_PER_WORKER
        for index, load in self._worker_load.items():
            if index in self._dead_workers:
                continue
            if load < best_load:
                best, best_load = index, load
        return best

    def _pump(self) -> None:
        """Feed queued tasks to workers up to the in-flight window.

        Encoding (arena staging, token export) and the queue put both
        happen outside the pool lock; only the pick/bookkeeping is
        locked. Called after submit, start, and every settle.
        """
        while True:
            with self._lock:
                if self._closed or not self._queue:
                    return
                worker = self._pick_worker_locked()
                if worker is None:
                    return
                task: ProcComputeTask = self._queue.pop()
                task.state = RUNNING
                task.worker = worker
                self._worker_load[worker] += 1
                self._inflight[task.task_id] = task
            try:
                shared: List[SharedInput] = []
                enc_args = self._encode(task._args, shared)
                enc_kwargs = self._encode(task._kwargs, shared)
                msg = ("task", task.task_id, task._fn.__module__,
                       task._fn.__qualname__, enc_args, enc_kwargs)
                with self._lock:
                    task.shared = shared
                    for item in shared:
                        item.refs += 1
                    token_bytes = sum(
                        item.array.nbytes for item in shared
                    )
                    self.stats.compute_token_bytes += token_bytes
                self._task_queues[worker].put(msg)
                with self._lock:
                    self.stats.compute_dispatches += 1
            except Exception:
                # Token export/staging/pickling failed: degrade to
                # inline execution — same result, no parallelism.
                with self._lock:
                    self._inflight.pop(task.task_id, None)
                    self._worker_load[worker] -= 1
                    task.worker = None
                self._run_inline(task, fallback=True)

    # ------------------------------------------------------------------
    # Waiting / helping
    # ------------------------------------------------------------------
    def _wait(self, task: ComputeTask) -> Any:
        """Blocking rendezvous with ``task``, helping while it blocks.

        Identical discipline to the thread pool: while the target is
        unfinished the waiter steals and runs still-undispatched tasks
        (highest priority first), and only sleeps when the local queue
        is empty and the target is in flight on a worker. Nested waits
        (a stolen task waiting on its own sub-tasks) are safe: the
        inner wait helps or sleeps on the same condition.
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
                steal: ProcComputeTask = self._queue.pop()
                steal.state = RUNNING
                self.stats.compute_steals += 1
            self._run_inline(steal)

    def _run_inline(self, task: ProcComputeTask,
                    fallback: bool = False) -> None:
        """Run a task in this process (serial, steal, or degraded
        path) and settle it. Lock NOT held."""
        t0 = self._clock()
        result: Any = None
        error: Optional[BaseException] = None
        try:
            result = task._fn(*_unwrap(task._args),
                              **_unwrap(task._kwargs))
        except BaseException as exc:
            error = exc
        elapsed = self._clock() - t0
        releasable: List[np.ndarray] = []
        with self._cond:
            self._settle_locked(task, result, error, elapsed, releasable)
            if fallback:
                self.stats.compute_fallback_inline += 1
        self._release_staged(releasable)

    def _settle_locked(self, task: ProcComputeTask, result: Any,
                       error: Optional[BaseException], elapsed: float,
                       releasable: List[np.ndarray]) -> None:
        """Move a task to its terminal state and notify. Lock held."""
        self._check_locked()
        if error is not None:
            task.error = error
            task.state = FAILED
        else:
            task.result = result
            task.state = DONE
        self.stats.compute_tasks += 1
        self.stats.compute_task_seconds += elapsed
        for shared in task.shared:
            self._drop_shared_ref_locked(shared, releasable)
        task.shared = []
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        """Collector thread: settle worker results, watch liveness."""
        while True:
            result_q = self._result_q
            try:
                msg = result_q.get(timeout=_POLL_S)
            except _queue_mod.Empty:
                self._reap_dead_workers()
                continue
            except (EOFError, OSError):  # pragma: no cover - teardown
                return
            if msg == _STOP:
                return
            self._settle_remote(msg)
            self._pump()

    def _settle_remote(self, msg: tuple) -> None:
        """Decode and settle one worker result message."""
        _kind, task_id, worker, encoded, error, elapsed, shipped = msg
        with self._lock:
            task = self._inflight.pop(task_id, None)
            if task is not None:
                self._worker_load[worker] = max(
                    0, self._worker_load[worker] - 1
                )
        if task is None:  # duplicate/late message
            return
        if error is None:
            try:
                result = _decode(encoded, self._attach_cache)
            except Exception:
                # Result attach failed (segment gone?): degrade to
                # inline re-execution rather than failing the task.
                self._run_inline(task, fallback=True)
                return
        else:
            result = None
        releasable: List[np.ndarray] = []
        with self._cond:
            self._settle_locked(task, result, error, elapsed, releasable)
            self.stats.compute_result_token_bytes += shipped
        self._release_staged(releasable)

    def _reap_dead_workers(self) -> None:
        """Detect crashed workers; rescue their tasks, sweep their
        segments."""
        with self._lock:
            procs = list(enumerate(self._procs))
            dead = self._dead_workers
        for index, proc in procs:
            if index in dead or proc.is_alive() \
                    or proc.exitcode is None:
                continue
            with self._lock:
                self._dead_workers.add(index)
                stranded = [t for t in self._inflight.values()
                            if t.worker == index]
                for task in stranded:
                    self._inflight.pop(task.task_id, None)
                self._worker_load[index] = 0
            # The dead worker's result arena can never release or
            # unlink itself now — unlink its segments here.
            sweep_shm_prefix(f"{self.shm_prefix}-w{index}")
            for task in stranded:
                self._run_inline(task, fallback=True)
            if stranded:
                self._pump()

    # ------------------------------------------------------------------
    # Result release
    # ------------------------------------------------------------------
    def _release_task(self, task: ProcComputeTask) -> None:
        """Tell the owning worker to free a task's result allocations;
        a task still queued is cancelled instead, so no worker ever
        produces a result nobody will release."""
        with self._cond:
            if task.state == PENDING and self._queue.remove(task):
                task.state = CANCELLED
                self._cond.notify_all()
                return
            worker = task.worker
            task.worker = None
            if (worker is None or self._closed
                    or worker in self._dead_workers
                    or worker >= len(self._task_queues)):
                return
            task_q = self._task_queues[worker]
        try:
            task_q.put(("release", (task.task_id,)))
        except (ValueError, OSError):  # pragma: no cover - teardown
            pass


def sweep_shm_prefix(prefix: str) -> int:
    """Unlink every ``/dev/shm`` segment whose name starts with
    ``prefix``; returns how many were removed.

    The close-time hygiene sweep and the crashed-worker cleanup: a
    SIGKILL-ed worker can never unlink its own result arena, so the
    coordinator does it by name. Best-effort and idempotent; a no-op
    on platforms without ``/dev/shm``.
    """
    base = "/dev/shm"
    removed = 0
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        if not entry.startswith(prefix):
            continue
        try:
            shm = shared_memory.SharedMemory(name=entry)
        except (OSError, ValueError):
            continue
        _destroy_segment(shm)
        removed += 1
    return removed


__all__ = [
    "ProcessComputePool",
    "ProcComputeTask",
    "SharedInput",
    "TOKEN_MIN_BYTES",
    "sweep_shm_prefix",
]
