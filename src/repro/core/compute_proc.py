"""ProcessComputePool — the compute plane on worker *processes*.

A :class:`~repro.core.compute.ComputePool` subclass (selected via
``GBO(compute_backend="process")``): the queue, priorities, task
states, ``submit``/``map``/``wait_all``, helping waiters and
cancel-on-close are inherited, and the one thing overridden is *where
a task runs*. Each pool thread is the proxy for one long-lived worker
process, a :class:`~repro.core.child.Child` — it pops a task, sends it
down the child's pipe, blocks in ``recv`` until the reply (or the
child's death) and settles the task — so vectorized kernels stop
serializing on the GIL. The classic cost of
multiprocessing — pickling the inputs — is removed by the PR-9 arena
seam: large arrays cross the process boundary as
:class:`~repro.core.arena.BufferToken`\\ s (a few dozen bytes naming
shared pages), workers attach them zero-copy read-only, and large
results come back the same way from a per-worker result arena the
coordinator attaches read-only.

Task routing
------------

``submit`` accepts any callable, exactly like the thread pool, but only
*dispatchable* tasks join the queue: the callable must be a
module-level function (so the worker can re-import it by name). Bound
methods and closures run **inline in the submitter** instead. A queued
task runs on a worker process when a pool thread pops it, and in the
coordinator when a helping waiter does — or when the thread's token
export, pipe or result attach fails, or its child has died. Every such
degradation is counted in ``stats.compute_fallback_inline``; results
are identical, only the parallelism is lost. The hot kernel,
:func:`repro.viz.isosurface.marching_tets_pieces`, is a module-level
pure function for exactly this reason.

Inputs: callers wrap arrays they will reuse across many tasks in
:meth:`ProcessComputePool.share` (staged once into the pool's staging
arena — or exported zero-copy when the array already lives in a
shareable arena the pool was given). Unwrapped arrays above
:data:`TOKEN_MIN_BYTES` are staged automatically per task; smaller ones
ride the task message. A shared input must stay alive and unmodified
until every task referencing it settles.

Results: each worker owns a private :class:`SharedMemoryArena`; arrays
above the threshold are copied in, sealed, and returned as tokens the
coordinator attaches read-only. :meth:`ProcComputeTask.release` marks
the worker-side copy for freeing; the ids ride the next task message
to that worker, and whatever is left goes when the worker closes its
arena (attached views stay valid — the bump allocator never recycles a
freed extent).

Degradation and hygiene
-----------------------

* A worker killed mid-task wakes its thread through the process
  sentinel; the thread re-runs the task in-process, unlinks the dead
  worker's segments and keeps draining the queue in-process.
* ``close()`` joins the pool threads, then closes the workers, then sweeps
  ``/dev/shm`` for any segment carrying the pool's name prefix —
  leak-checked in ``tests/test_core_compute_proc.py`` under both
  ``fork`` and ``spawn`` start methods.

The pool lock is the inherited **leaf** (role ``compute`` in DESIGN's
table): no task body, pipe operation, arena call, or attach runs under
it.
"""

from __future__ import annotations

import os
import pickle
import secrets
import sys
import threading
import time
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.analysis.races import guarded_by
from repro.core.arena import (
    DEFAULT_SEGMENT_BYTES,
    Arena,
    AttachCache,
    BufferToken,
    SharedMemoryArena,
    _destroy_segment,
)
from repro.core.child import Child, close_all
from repro.core.compute import (
    CANCELLED,
    PENDING,
    ComputePool,
    ComputeTask,
    usable_cores,
)
from repro.core.stats import GodivaStats
from repro.errors import ComputeWorkerError

#: Arrays at or above this many bytes cross the boundary as tokens;
#: smaller ones are cheaper to pickle than to stage + attach.
TOKEN_MIN_BYTES = 32 * 1024

#: ``SharedInput.token`` while one pool thread is staging the array.
_STAGING = object()


class _TokenRef:
    """Wire marker: this argument/result slot is an arena token."""

    __slots__ = ("token",)

    def __init__(self, token: BufferToken) -> None:
        self.token = token


class SharedInput:
    """A coordinator-side handle to one array shared with the workers.

    Produced by :meth:`ProcessComputePool.share`; pass it to ``submit``
    in place of the array. Workers see the underlying ndarray
    (read-only, zero-copy); in-process execution sees ``array``
    unchanged. ``refs``/``token``/``staged`` are pool bookkeeping,
    mutated under the pool lock.
    """

    __slots__ = ("array", "token", "staged", "refs")

    def __init__(self, array: np.ndarray) -> None:
        self.array = array
        self.token: Optional[BufferToken] = None
        #: The staging-arena copy to free when ``refs`` drains (None
        #: for zero-copy located exports — the owner frees those).
        self.staged: Optional[np.ndarray] = None
        #: Dispatched, unsettled tasks whose message names the token.
        self.refs = 0


class ProcComputeTask(ComputeTask):
    """A :class:`ComputeTask` that may settle from a worker process."""

    __slots__ = ("worker", "shared", "drained")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: The worker holding token copies of this task's result until
        #: :meth:`release` (None = nothing to free there).
        self.worker: Optional["_Child"] = None
        #: SharedInputs pinned for the dispatched message.
        self.shared: List[SharedInput] = []
        #: Staged copies this task's settling left unreferenced.
        self.drained: List[np.ndarray] = []

    def _run(self) -> Any:
        """In-process execution: the callable sees the arrays, not
        their :class:`SharedInput` handles."""
        return self._fn(*_unwrap(self._args), **_unwrap(self._kwargs))

    def release(self) -> None:
        """Free the worker-side copies of this task's token results.

        Call after the result has been consumed — or abandoned: a task
        released while still queued (never dispatched) is cancelled.
        Attached views that are still alive stay readable (freed
        extents are never recycled); the worker's memory is returned
        when it receives its next task. Idempotent, no-op for results
        computed in-process.
        """
        self._pool._release_task(self)


def _map_tree(value: Any, leaf: Callable[[Any], Any]) -> Any:
    """``value`` with ``leaf`` applied to whatever is not a tuple, list
    or dict; those are rebuilt around their mapped items."""
    if isinstance(value, tuple):
        return tuple(_map_tree(item, leaf) for item in value)
    if isinstance(value, list):
        return [_map_tree(item, leaf) for item in value]
    if isinstance(value, dict):
        return {key: _map_tree(item, leaf) for key, item in value.items()}
    return leaf(value)


def _unwrap(value: Any) -> Any:
    """Replace SharedInput handles with their arrays (in-process
    execution)."""
    return _map_tree(value, lambda item: item.array
                     if isinstance(item, SharedInput) else item)


def _is_dispatchable(fn: Callable[..., Any]) -> bool:
    """Whether a worker can re-import ``fn`` by module + name."""
    module = getattr(fn, "__module__", None)
    name = getattr(fn, "__qualname__", "")
    if not module or not name or "." in name:
        return False
    return getattr(sys.modules.get(module), name, None) is fn


def _decode(value: Any, cache: AttachCache) -> Any:
    """Resolve _TokenRef markers to attached read-only arrays."""
    return _map_tree(value, lambda item: cache.attach(item.token)
                     if isinstance(item, _TokenRef) else item)


def _tokenizable(value: Any) -> bool:
    return (isinstance(value, np.ndarray) and not value.dtype.hasobject
            and value.nbytes >= TOKEN_MIN_BYTES)


def _stage(array: np.ndarray, arena: SharedMemoryArena) -> tuple:
    """Copy ``array`` into ``arena`` and seal it: ``(copy, token)``."""
    copy = arena.allocate(dtype=array.dtype, shape=tuple(array.shape))
    copy[...] = array
    arena.seal(copy)
    return copy, arena.export_token(copy)


def _export_result(value: Any, arena: SharedMemoryArena,
                   out_allocs: List[np.ndarray]) -> Any:
    """Worker-side result encoding: big arrays become arena tokens."""
    def export(item: Any) -> Any:
        if not _tokenizable(item):
            return item
        copy, token = _stage(item, arena)
        out_allocs.append(copy)
        return _TokenRef(token)
    return _map_tree(value, export)


def _resolve_fn(module: str, name: str) -> Callable[..., Any]:
    """Import ``module`` and look up the task callable in a worker."""
    __import__(module)
    fn = getattr(sys.modules[module], name, None)
    if not callable(fn):
        raise ComputeWorkerError(
            f"task callable {module}.{name} did not resolve in worker"
        )
    return fn


def _worker_main(conn, arena_prefix: str, segment_bytes: int) -> None:
    """Worker process main loop: attach inputs, run, token the results.

    Owns a private result :class:`SharedMemoryArena` (``arena_prefix``
    names it, so the coordinator can sweep it if this process dies
    uncleanly) and an input :class:`AttachCache`. One message per task,
    ``(id, module, name, args, kwargs, frees)`` — ``frees`` lists
    earlier tasks whose result copies may go — answered by one
    ``(result, error, seconds, result token bytes)``; ``"stop"`` or EOF
    ends the loop.
    """
    arena = SharedMemoryArena(name_prefix=arena_prefix,
                              segment_bytes=segment_bytes)
    cache = AttachCache()
    held: Dict[int, List[np.ndarray]] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg == "stop":
                break
            task_id, module, name, enc_args, enc_kwargs, frees = msg
            for freed in frees:
                for array in held.pop(freed, ()):
                    arena.release(array)
            start = time.monotonic()
            error: Optional[BaseException] = None
            encoded: Any = None
            shipped = 0
            try:
                fn = _resolve_fn(module, name)
                args = _decode(enc_args, cache)
                kwargs = _decode(enc_kwargs, cache)
                value = fn(*args, **kwargs)
                allocs: List[np.ndarray] = []
                encoded = _export_result(value, arena, allocs)
                if allocs:
                    held[task_id] = allocs
                    shipped = sum(a.nbytes for a in allocs)
            except BaseException as exc:  # settled on the coordinator
                error = exc
            elapsed = time.monotonic() - start
            if error is not None:
                try:
                    pickle.dumps(error)
                except Exception:
                    error = ComputeWorkerError(
                        f"worker task raised unpicklable "
                        f"{type(error).__name__}: {error!r}"
                    )
            conn.send((encoded, error, elapsed, shipped))
    finally:
        cache.close()
        arena.close()


class _Child(Child):
    """Coordinator-side handle to one worker process.

    Its pipe and ``cache`` (its result segments' mappings) are used
    only by the pool thread proxying it, and by ``close()`` once that
    thread was joined; ``frees`` (settled tasks whose result copies
    the worker may free, sent with its next task) is pool-locked.
    """

    def __init__(self, pool: "ProcessComputePool", index: int) -> None:
        super().__init__(_worker_main, f"{pool.shm_prefix}-w{index}",
                         pool._segment_bytes,
                         name=f"{pool._name}-{index}",
                         start_method=pool._start_method)
        self.index = index
        self.cache = AttachCache()
        self.frees: List[int] = []


@guarded_by("_children", lock="_lock")
class ProcessComputePool(ComputePool):
    """A :class:`~repro.core.compute.ComputePool` whose worker threads
    each run their tasks in one long-lived worker *process*.

    Everything but *where a task runs* is the base class's (see the
    module docstring). Adds :meth:`share` for zero-copy inputs and
    ``distributed = True`` so callers route only module-level pure
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
    segment_bytes:
        Segment size for the pool's staging and worker result arenas.
    """

    #: Tasks execute in other *processes*: only module-level callables
    #: dispatch; engine objects must not be captured in task args.
    distributed = True

    _task_type = ProcComputeTask

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
        segment_bytes: Optional[int] = None,
    ) -> None:
        if max_procs is not None and max_procs < 1:
            raise ValueError(f"max_procs must be >= 1, got {max_procs}")
        super().__init__(workers, name=name, stats=stats, clock=clock)
        self._start_method = start_method
        self._spawn_procs = spawn_procs
        self._max_procs = max_procs
        self._segment_bytes = (segment_bytes if segment_bytes is not None
                               else DEFAULT_SEGMENT_BYTES)
        self._share_arena = (share_arena if share_arena is not None
                             and share_arena.shareable else None)
        #: Unique /dev/shm namespace for every segment this pool (its
        #: staging arena and each worker's result arena) creates — the
        #: close-time sweep and crash cleanup key on it.
        self.shm_prefix = f"{name}-proc-{secrets.token_hex(4)}"
        self._children: List[_Child] = []
        #: Children no pool thread has claimed yet (pool lock).
        self._unclaimed: Iterator[_Child] = iter(())
        #: ``.child`` is the calling pool thread's own child; unset on
        #: every other thread.
        self._proxy = threading.local()
        #: Created by start(), closed by close(); in between only pool
        #: threads touch it, and close() joins them first.
        self._staging: Optional[SharedMemoryArena] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _worker_count(self) -> int:
        """Worker processes — and the pool threads proxying them —
        :meth:`start` spawns (see ``spawn_procs`` and ``max_procs``)."""
        if self._spawn_procs is not None:
            return max(0, min(self._spawn_procs, self._workers))
        count = min(self._workers, usable_cores())
        if self._max_procs is not None:
            count = min(count, self._max_procs)
        return max(1, count)

    def start(self) -> None:
        """Spawn the worker processes, then one pool thread per process
        (no-op for the serial build and when already started)."""
        with self._lock:
            if (self._staging is None and not self._closed
                    and self._workers > 1):
                self._spawn_children()
        super().start()

    def _spawn_children(self) -> None:
        """Create the staging arena and start the workers. Lock held,
        so a concurrent close() sees all of them or none."""
        self._check_locked()
        self._staging = SharedMemoryArena(
            name_prefix=f"{self.shm_prefix}-s",
            segment_bytes=self._segment_bytes,
        )
        self._children = [_Child(self, index)
                          for index in range(self._worker_count())]
        self._unclaimed = iter(self._children)

    def close(self) -> None:
        """Shut down: cancel queued tasks, join the pool threads, stop
        and join the workers, sweep ``/dev/shm``.

        Idempotent. A task already shipped to a worker settles normally
        before its thread exits; tasks still queued move to
        ``CANCELLED``. After the join, every segment under the pool's
        name prefix is unlinked — nothing the pool created survives in
        ``/dev/shm``.
        """
        super().close()
        with self._lock:
            children, self._children = self._children, []
            staging, self._staging = self._staging, None
        if staging is None:  # never started, or closed already
            return
        # Every pool thread has exited, so every live child is idle.
        close_all(children, "stop")
        for child in children:
            child.cache.close()
        staging.close()
        sweep_shm_prefix(self.shm_prefix)

    @property
    def procs(self) -> List[Any]:
        """The worker processes (empty before start/serial)."""
        with self._lock:
            return [child.proc for child in self._children]

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
        the last dispatched task referencing it settles.
        """
        if not self.parallel:
            return array
        return SharedInput(np.ascontiguousarray(array))

    def _pin(self, shared: SharedInput) -> BufferToken:
        """Take one reference on ``shared`` (dropped by :meth:`_settle`)
        and return its token, staging the array if no thread has yet.

        The reference comes first, so a sibling settling the last
        earlier task cannot free the copy in between; of two threads
        pinning an unstaged input the second waits for the first's
        copy. Lock NOT held on entry (arena calls block).
        """
        with self._cond:
            shared.refs += 1
            while shared.token is _STAGING:
                self._cond.wait()
            if shared.token is not None:
                return shared.token
            shared.token = _STAGING
        token = copy = None
        try:
            if self._share_arena is not None:
                token = self._share_arena.locate(shared.array)
            if token is None:
                copy, token = _stage(shared.array, self._staging)
            return token
        finally:
            with self._cond:
                shared.token, shared.staged = token, copy
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Where a task runs
    # ------------------------------------------------------------------
    def _queues(self, fn: Callable[..., Any]) -> bool:
        """Only a callable the workers can re-import joins the queue;
        any other runs in the submitter, counted in
        ``stats.compute_fallback_inline``. Lock held."""
        if not super()._queues(fn):
            return False
        if _is_dispatchable(fn):
            return True
        self.stats.compute_fallback_inline += 1
        return False

    def _work_loop(self) -> None:
        """Pool thread: claim one child, then drain the queue as its
        proxy until close."""
        with self._lock:
            self._proxy.child = next(self._unclaimed, None)
        super()._work_loop()

    def _execute(self, task: ProcComputeTask) -> None:
        """Run a RUNNING task (lock NOT held) and settle it: on the
        calling pool thread's child, or — for every other caller, and
        when the child cannot take it — in this process."""
        child = getattr(self._proxy, "child", None)
        if child is None:
            super()._execute(task)
        else:
            try:
                result, error, elapsed, shipped = self._remote_call(
                    child, task)
            except Exception:
                # Staging, pickling, the pipe or the result attach
                # failed, or the child is dead (then its result arena
                # is ours to unlink): same result, computed here.
                if not child.conn.closed and not child.proc.is_alive():
                    child.close()
                    sweep_shm_prefix(f"{self.shm_prefix}-w{child.index}-")
                with self._lock:
                    self.stats.compute_fallback_inline += 1
                super()._execute(task)
            else:
                with self._cond:
                    self.stats.compute_dispatches += 1
                    self.stats.compute_result_token_bytes += shipped
                    if shipped:
                        task.worker = child
                    self._settle(task, result, error, elapsed)
        for array in task.drained:
            self._staging.release(array)
        task.drained = []

    def _remote_call(self, child: _Child, task: ProcComputeTask) -> tuple:
        """Ship ``task`` to ``child`` and block for the reply:
        ``(result, error, worker-side seconds, result bytes returned
        as tokens)``. Raises if it cannot be had. Lock NOT held."""
        if child.conn.closed:  # found dead earlier: stage nothing
            raise ComputeWorkerError(f"worker {child.index} has died")
        task.shared = pinned = []

        def encode(item: Any) -> Any:
            """Pin every array that travels as a token."""
            if _tokenizable(item):
                item = SharedInput(np.ascontiguousarray(item))
            if not isinstance(item, SharedInput):
                return item
            pinned.append(item)
            return _TokenRef(self._pin(item))

        enc_args, enc_kwargs = _map_tree((task._args, task._kwargs),
                                         encode)
        with self._lock:
            self.stats.compute_token_bytes += sum(
                item.array.nbytes for item in pinned
            )
            frees, child.frees = child.frees, []
        child.send((task.task_id, task._fn.__module__,
                    task._fn.__qualname__, enc_args, enc_kwargs, frees))
        encoded, error, elapsed, shipped = child.recv()
        return _decode(encoded, child.cache), error, elapsed, shipped

    def _settle(self, task: ProcComputeTask, result: Any,
                error: Optional[BaseException], elapsed: float) -> None:
        """Settle, and drop the task's references on its shared inputs;
        a staged copy nothing references any more moves to
        ``task.drained`` for :meth:`_execute` to free once the lock is
        released. Lock held."""
        super()._settle(task, result, error, elapsed)
        for shared in task.shared:
            shared.refs -= 1
            if shared.refs == 0 and shared.staged is not None:
                task.drained.append(shared.staged)
                shared.staged = shared.token = None
        task.shared = []

    def _release_task(self, task: ProcComputeTask) -> None:
        """Queue the task's result copies for freeing by the worker
        that holds them; a task still queued is cancelled instead, so
        no worker ever produces a result nobody will release."""
        with self._cond:
            if task.state == PENDING and self._queue.remove(task):
                task.state = CANCELLED
                self._cond.notify_all()
            elif task.worker is not None:
                task.worker.frees.append(task.task_id)
                task.worker = None


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
