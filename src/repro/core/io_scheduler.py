"""IoScheduler — the background-I/O layer of the GODIVA engine.

Owns the priority prefetch queue, the worker pool that drains it, the
demand-boost path (``wait_unit`` jumps a queued unit to the front), the
pool-generalized deadlock detector, and the foreground read paths
(``read_unit`` and the single-thread *G*-build ``wait_unit``).

Queue and worker bookkeeping live under the *engine* lock — the
lock/condition pair the facade injects and shares with the unit store
and the memory manager. Methods documented "Lock held." must be called
with that lock held (checked under ``REPRO_ANALYSIS=1``); the methods
that run read callbacks (``wait_unit``, ``read_unit``, the worker loop)
acquire the engine lock themselves and always drop it around the
callback, so callbacks can re-enter the record interfaces.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from repro.analysis.primitives import (
    TrackedCondition,
    TrackedLock,
    make_held_checker,
)
from repro.analysis.races import guarded_by
from repro.core.memory_manager import LoadYield
from repro.core.stats import GodivaStats
from repro.core.units import (
    ProcessingUnit,
    ReadFunction,
    UnitState,
)
from repro.errors import (
    DatabaseClosedError,
    GodivaDeadlockError,
    ReadFunctionError,
    UnitStateError,
    UnknownUnitError,
)
from repro.structures.priorityqueue import PriorityQueue


class _WorkerStats:
    """Per-I/O-worker utilization counters, mutated under the engine lock."""

    __slots__ = ("read_seconds", "blocked_seconds", "units_loaded")

    def __init__(self) -> None:
        self.read_seconds = 0.0
        self.blocked_seconds = 0.0
        self.units_loaded = 0


@guarded_by("_queue", "_worker_stats", lock="_lock")
class IoScheduler:
    """Prefetch queue, worker pool, and wait/deadlock machinery.

    Parameters
    ----------
    lock, cond:
        The engine lock/condition pair to share; when ``None`` a private
        tracked pair is created (standalone use in tests).
    stats:
        The :class:`GodivaStats` sink for queue/wait counters.
    clock:
        Monotonic-seconds callable for queue/read timing.
    workers:
        Background worker count; 0 is the paper's single-thread *G*
        build where reads happen inside ``wait_unit``.
    """

    def __init__(
        self,
        *,
        lock: Optional[object] = None,
        cond: Optional[object] = None,
        stats: Optional[GodivaStats] = None,
        clock: Callable[[], float] = time.monotonic,
        workers: int = 0,
    ) -> None:
        if lock is None:
            lock = TrackedLock(f"IoScheduler._lock@{id(self):#x}")
            cond = TrackedCondition(lock)
        self._lock = lock
        self._cond = cond
        self._check_locked = make_held_checker(lock, "IoScheduler helper")
        self._clock = clock
        self.stats = stats if stats is not None else GodivaStats()
        self._queue = PriorityQueue()
        self._workers = workers
        self._worker_stats: List[_WorkerStats] = [
            _WorkerStats() for _ in range(workers)
        ]
        self._threads: List[threading.Thread] = []
        self._thread_set: frozenset = frozenset()
        self._load_ctx = threading.local()
        self._owner = None
        self._units = None
        self._memory = None
        self._check_open: Callable[[], None] = lambda: None
        self._closing: Callable[[], bool] = lambda: False

    def bind(
        self,
        *,
        owner: object,
        units: object,
        memory: object,
        check_open: Callable[[], None],
        closing: Callable[[], bool],
    ) -> None:
        """Wire the facade and collaborating layers.

        ``owner`` is the object passed to read callbacks; ``check_open`` raises once
        the database is closing and ``closing`` reports the same flag —
        both are called with the engine lock held.
        """
        self._owner = owner
        self._units = units
        self._memory = memory
        self._check_open = check_open
        self._closing = closing

    def start(self) -> None:
        """Spawn the background worker pool (no-op for ``workers=0``)."""
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._io_loop, args=(index,),
                name=f"godiva-io-{index}", daemon=True,
            )
            self._threads.append(thread)
        self._thread_set = frozenset(self._threads)
        for thread in self._threads:
            thread.start()

    def join(self) -> None:
        """Wait for every worker to exit (close path; flag set first)."""
        for thread in self._threads:
            thread.join()

    # ------------------------------------------------------------------
    # Pool introspection
    # ------------------------------------------------------------------
    @property
    def threads(self) -> List[threading.Thread]:
        """The live worker threads (empty in the G build)."""
        return self._threads

    @property
    def queue(self) -> object:
        """The pending-unit queue (engine-lock discipline applies)."""
        return self._queue

    def is_io_thread(self, thread: threading.Thread) -> bool:
        """Whether ``thread`` belongs to the background pool."""
        return thread in self._thread_set

    def current_load_unit(self) -> Optional[str]:
        """Name of the unit this thread is loading, or None."""
        return getattr(self._load_ctx, "unit_name", None)

    def note_blocked(self, seconds: float) -> None:
        """Attribute memory-blocked time to this worker. Lock held."""
        self._check_locked()
        worker = getattr(self._load_ctx, "worker", None)
        if worker is not None:
            self._worker_stats[worker].blocked_seconds += seconds

    def report(self) -> List[dict]:
        """Per-worker utilization dicts. Lock held."""
        self._check_locked()
        return [
            {
                "worker": index,
                "read_seconds": ws.read_seconds,
                "blocked_seconds": ws.blocked_seconds,
                "units_loaded": ws.units_loaded,
            }
            for index, ws in enumerate(self._worker_stats)
        ]

    # ------------------------------------------------------------------
    # Queue operations (Lock held.)
    # ------------------------------------------------------------------
    def enqueue(self, name: str, read_fn: ReadFunction,
                priority: float) -> None:
        """Admit a unit and append it to the prefetch queue. Lock held."""
        self._check_locked()
        unit = self._units.admit(name, read_fn, priority)
        unit.enqueued_at = self._clock()
        self._queue.push(name, priority=priority)
        if len(self._queue) > self.stats.queue_depth_peak:
            self.stats.queue_depth_peak = len(self._queue)
        self._units.emit("added", name)
        self._cond.notify_all()

    def remove_queued(self, name: str) -> bool:
        """Drop a unit from the pending queue. Lock held."""
        self._check_locked()
        return self._queue.remove(name)

    def reprioritize(self, name: str, priority: float) -> None:
        """Store a new priority, reordering if still queued. Lock held."""
        self._check_locked()
        unit = self._units.require(name)
        unit.priority = priority
        if self._queue.reprioritize(name, priority):
            self._cond.notify_all()

    def queue_len(self) -> int:
        """Units currently pending in the prefetch queue. Lock held."""
        self._check_locked()
        return len(self._queue)

    def clear_queue(self) -> None:
        """Empty the pending queue (close path). Lock held."""
        self._check_locked()
        self._queue.clear()

    # ------------------------------------------------------------------
    # Foreground paths (acquire the engine lock themselves)
    # ------------------------------------------------------------------
    def read_unit(self, name: str,
                  read_fn: Optional[ReadFunction] = None) -> None:
        """Blocking foreground read; see :meth:`GBO.read_unit`."""
        with self._cond:
            self._check_open()
            unit = self._units.get(name)
            if unit is None:
                if read_fn is None:
                    raise UnknownUnitError(
                        f"unit {name!r} is unknown and no read function "
                        f"was supplied"
                    )
                unit = ProcessingUnit(name, read_fn)
                self._units.add(unit)
                self.stats.units_added += 1
            elif read_fn is not None:
                unit.read_fn = read_fn

            if unit.state is UnitState.RESIDENT:
                self.stats.wait_hits += 1
                unit.ref_count += 1
                self._memory.remove_evictable(name)
                return
            if unit.state is UnitState.READING:
                # Background thread has it; fall back to waiting.
                self.stats.wait_misses += 1
                self._wait_until_resident(unit)
                return
            if unit.state is UnitState.QUEUED:
                self._queue.remove(name)
            if unit.read_fn is None:
                raise UnknownUnitError(
                    f"unit {name!r} has no read function to reload with"
                )
            unit.state = UnitState.READING
            self.stats.wait_misses += 1
            read_callable = unit.read_fn
        self.run_read(name, read_callable, foreground=True)
        self._settle_foreground(name)

    def wait_unit(self, name: str) -> None:
        """Block until the unit is resident; see :meth:`GBO.wait_unit`."""
        with self._cond:
            self._check_open()
            unit = self._units.require(name)
            if unit.state is UnitState.RESIDENT:
                self.stats.wait_hits += 1
                unit.ref_count += 1
                self._memory.remove_evictable(name)
                return
            if unit.state is UnitState.DELETED:
                raise UnitStateError(f"unit {name!r} was deleted")
            self.stats.wait_misses += 1

            if not self._threads:
                # Single-thread build: the read happens inside wait_unit
                # (the paper's G library, section 4.2).
                if unit.state is UnitState.QUEUED:
                    self._queue.remove(name)
                if unit.read_fn is None:
                    raise UnknownUnitError(
                        f"unit {name!r} has no read function"
                    )
                unit.state = UnitState.READING
                read_callable = unit.read_fn
            else:
                if unit.state is UnitState.QUEUED:
                    # The application is blocked on this unit right now:
                    # jump it past everything else still pending.
                    if self._queue.to_front(name):
                        self.stats.wait_boosts += 1
                        self._units.emit("boosted", name)
                        self._cond.notify_all()
                self._wait_until_resident(unit)
                return
        # Single-thread inline read, outside the lock.
        self.run_read(name, read_callable, foreground=True)
        self._settle_foreground(name)

    def _settle_foreground(self, name: str) -> None:
        """Post-read bookkeeping shared by the blocking paths."""
        with self._cond:
            unit = self._units.require(name)
            if unit.state is UnitState.FAILED:
                raise ReadFunctionError(
                    f"read function for unit {name!r} failed"
                ) from unit.error
            unit.ref_count += 1

    def _wait_until_resident(self, unit: ProcessingUnit) -> None:
        """Multi-thread wait loop with deadlock detection. Lock held."""
        self._check_locked()
        t0 = self._clock()
        try:
            while True:
                if unit.state is UnitState.RESIDENT:
                    unit.ref_count += 1
                    self._memory.remove_evictable(unit.name)
                    return
                if unit.state is UnitState.FAILED:
                    raise ReadFunctionError(
                        f"read function for unit {unit.name!r} failed"
                    ) from unit.error
                if unit.state is UnitState.DELETED:
                    raise UnitStateError(
                        f"unit {unit.name!r} was deleted while being "
                        f"waited for"
                    )
                if unit.state is UnitState.EVICTED:
                    # Transparent re-fetch after cache eviction; waited-on
                    # reloads go straight to the front of the queue.
                    if unit.read_fn is None:
                        raise UnknownUnitError(
                            f"unit {unit.name!r} was evicted and has no "
                            f"read function to reload with"
                        )
                    unit.state = UnitState.QUEUED
                    unit.finished = False
                    unit.enqueued_at = self._clock()
                    self._queue.push(unit.name, priority=unit.priority)
                    self._queue.to_front(unit.name)
                    self._cond.notify_all()
                self._check_deadlock(unit)
                self._check_open()
                self._cond.wait(timeout=0.5)
        finally:
            elapsed = self._clock() - t0
            self.stats.wait_seconds += elapsed
            self.stats.wait_samples.append(elapsed)

    def _check_deadlock(self, unit: ProcessingUnit) -> None:
        """Raise if waiting for ``unit`` can never make progress.

        Generalizes the paper's single-thread deadlock (application waits
        for a unit while the I/O thread is blocked on memory with nothing
        evictable) to a pool of N workers:

        * the waited-on unit is READING and *its* worker is blocked on an
          allocation that cannot fit even after eviction — that worker
          will never finish the unit; or
        * the waited-on unit is still QUEUED while *every* worker is
          blocked on memory and none of their allocations can fit — no
          worker will ever come back to drain the queue.

        Either way it first asks the memory layer to *break* the stall
        (:meth:`MemoryManager.reclaim_for`: emergency-evict idle
        prefetches, roll back other blocked partial loads). Deadlock is
        reported only when reclamation cannot help — the remaining
        memory is pinned by referenced or unfinished-but-held units,
        which genuinely requires ``finish_unit``/``delete_unit``.

        Lock held.
        """
        self._check_locked()
        memory = self._memory
        blocked = memory.blocked_allocations()
        if not blocked or memory.evictable_count() != 0:
            return
        if memory.rollbacks_pending():
            return  # rollbacks already requested; let them land first
        blocked_loading = {
            loading for _nbytes, loading in blocked
            if loading is not None
        }
        if any(
            u.state is UnitState.READING and u.name not in blocked_loading
            for u in self._units.values()
        ):
            return  # a load is still actively progressing; reassess later
        if unit.state is UnitState.READING:
            needed = next(
                (nbytes for nbytes, loading in blocked
                 if loading == unit.name),
                None,
            )
            if needed is None:
                return
        elif unit.state is UnitState.QUEUED:
            # The admission gate idles every non-blocked worker while a
            # peer is blocked, so one stuck worker is enough to starve
            # the whole queue: the first blocked allocation to fit will
            # resume the drain.
            needed = min(nbytes for nbytes, _loading in blocked)
        else:
            return
        if memory.fits(needed):
            return
        if memory.reclaim_for(needed, unit):
            return
        accountant = memory.accountant
        if unit.state is UnitState.READING:
            raise GodivaDeadlockError(
                f"waiting for unit {unit.name!r} but the I/O "
                f"worker loading it is blocked on memory "
                f"({accountant.used_bytes}/"
                f"{accountant.budget_bytes} bytes used) and no "
                f"unit is evictable — the application must "
                f"finish_unit/delete_unit processed units"
            )
        raise GodivaDeadlockError(
            f"waiting for queued unit {unit.name!r} but "
            f"{len(blocked)} I/O worker(s) are blocked "
            f"on memory ({accountant.used_bytes}/"
            f"{accountant.budget_bytes} bytes used) and no "
            f"unit is evictable — the application must "
            f"finish_unit/delete_unit processed units"
        )

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _io_loop(self, worker_index: int) -> None:
        """I/O worker main loop: drain the priority prefetch queue.

        Admission gate: no new load starts while a peer is blocked on
        memory. Starting one anyway could only wedge further partial
        charges into the full budget — and after a blocked peer's yield
        (``abort_loads``) it would re-grab the very bytes the rollback
        freed for a waited-on load.
        """
        while True:
            with self._cond:
                while not self._closing() and (
                    not self._queue or self._memory.has_blocked()
                ):
                    self._cond.wait()
                if self._closing():
                    return
                name = self._queue.pop()
                unit = self._units.get(name)
                if unit is None or unit.state is not UnitState.QUEUED:
                    continue  # cancelled while queued
                unit.state = UnitState.READING
                unit.worker = worker_index
                now = self._clock()
                unit.read_started_at = now
                if unit.enqueued_at is not None:
                    unit.queue_seconds += now - unit.enqueued_at
                read_callable = unit.read_fn
            try:
                self.run_read(name, read_callable, foreground=False,
                              worker=worker_index)
            except DatabaseClosedError:
                return

    def run_read(self, name: str, read_fn: ReadFunction,
                 foreground: bool, worker: Optional[int] = None) -> None:
        """Invoke a read callback (lock NOT held) and settle unit state."""
        if self._units.hook is not None:
            with self._lock:
                self._units.emit("read_started", name)
        self._load_ctx.unit_name = name
        self._load_ctx.worker = worker
        t0 = self._clock()
        error: Optional[BaseException] = None
        try:
            read_fn(self._owner, name)
        except DatabaseClosedError:
            raise
        except BaseException as exc:
            error = exc
        finally:
            self._load_ctx.unit_name = None
            self._load_ctx.worker = None
        elapsed = self._clock() - t0

        with self._cond:
            self._memory.discard_abort(name)
            unit = self._units.get(name)
            if unit is None:
                return
            unit.read_seconds += elapsed
            if foreground:
                self.stats.foreground_read_seconds += elapsed
            else:
                self.stats.io_thread_read_seconds += elapsed
                if worker is not None:
                    ws = self._worker_stats[worker]
                    ws.read_seconds += elapsed
                    if error is None:
                        ws.units_loaded += 1
            if isinstance(error, LoadYield):
                # Roll back the partial load and put the unit back in the
                # queue: its charges go to a waited-on load, and it will
                # be re-read once memory frees up.
                self._memory.free_unit_records(unit)
                if unit.pending_delete:
                    self._memory.evict(unit, deleting=True)
                    self.stats.units_deleted += 1
                else:
                    unit.state = UnitState.QUEUED
                    unit.finished = False
                    unit.enqueued_at = self._clock()
                    self._queue.push(name, priority=unit.priority)
                self._cond.notify_all()
                return
            if error is not None:
                self._memory.free_unit_records(unit)
                unit.state = UnitState.FAILED
                unit.error = error
                self.stats.units_failed += 1
                self._units.emit("failed", name)
            else:
                unit.loads += 1
                if unit.loads > 1:
                    self.stats.units_reloaded += 1
                if foreground:
                    self.stats.units_read_foreground += 1
                else:
                    self.stats.units_prefetched += 1
                if unit.pending_delete:
                    self._memory.evict(unit, deleting=True)
                    self.stats.units_deleted += 1
                else:
                    unit.state = UnitState.RESIDENT
                    unit.finished = False
                    self._units.emit("loaded", name)
            self._cond.notify_all()
