"""IoScheduler — the unit lifecycle of the GODIVA engine.

Owns the table of :class:`~repro.core.units.ProcessingUnit` objects,
their :class:`~repro.core.units.UnitState` machine and unit-level
reference counts (section 3.3: "Reference counts are kept at the unit
level"), the unit-event hook, the priority prefetch queue, the worker
pool that drains it, the demand-boost path (``wait_unit`` jumps a
queued unit to the front), the pool-generalized deadlock detector, and
the foreground read paths (``read_unit`` and the single-thread
*G*-build ``wait_unit``). Every unit transition is made here except
eviction (RESIDENT -> EVICTED, or DELETED on a delete), which the
memory manager makes in :meth:`MemoryManager.evict`.

All of it lives under the *engine* lock — the lock/condition pair the
facade injects and shares with the memory manager. Methods documented
"Lock held." must be called with that lock held (checked under
``REPRO_ANALYSIS=1``); the methods that run read callbacks
(``wait_unit``, ``read_unit``, the worker loop) acquire the engine
lock themselves and always drop it around the callback, so callbacks
can re-enter the record interfaces.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.primitives import (
    TrackedCondition,
    TrackedLock,
    analysis_enabled,
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

#: Unit states in which a name is considered *active* — re-adding an
#: active unit is an error; terminal/evicted names may be resurrected.
_ACTIVE_STATES = (UnitState.QUEUED, UnitState.READING, UnitState.RESIDENT)


def _emit_nothing(event: str, unit_name: str) -> None:
    """Instance-bound in place of :meth:`IoScheduler.emit` when no hook
    is configured (saves two call frames on every hot-path transition)."""
    return None


class _WorkerStats:
    """Per-I/O-worker utilization counters, mutated under the engine lock."""

    __slots__ = ("read_seconds", "blocked_seconds", "units_loaded")

    def __init__(self) -> None:
        self.read_seconds = 0.0
        self.blocked_seconds = 0.0
        self.units_loaded = 0


@guarded_by("_units", "_queue", "_worker_stats", lock="_lock")
class IoScheduler:
    """Unit table, prefetch queue, worker pool, and wait/deadlock machinery.

    Parameters
    ----------
    lock, cond:
        The engine lock/condition pair to share; when ``None`` a private
        tracked pair is created (standalone use in tests).
    stats:
        The :class:`GodivaStats` sink for unit/queue/wait counters.
    clock:
        Monotonic-seconds callable for queue/read timing and event
        timestamps.
    workers:
        Background worker count; 0 is the paper's single-thread *G*
        build where reads happen inside ``wait_unit``.
    unit_event_hook:
        Optional ``hook(event, unit_name, now)`` observability callback,
        invoked with the engine lock held.
    """

    def __init__(
        self,
        *,
        lock: Optional[object] = None,
        cond: Optional[object] = None,
        stats: Optional[GodivaStats] = None,
        clock: Callable[[], float] = time.monotonic,
        workers: int = 0,
        unit_event_hook: Optional[Callable[[str, str, float], None]] = None,
    ) -> None:
        if lock is None:
            lock = TrackedLock(f"IoScheduler._lock@{id(self):#x}")
            cond = TrackedCondition(lock)
        self._lock = lock
        self._cond = cond
        self._check_locked = make_held_checker(lock, "IoScheduler helper")
        self._clock = clock
        self.stats = stats if stats is not None else GodivaStats()
        self._unit_event_hook = unit_event_hook
        if unit_event_hook is None and not analysis_enabled():
            # Nothing observes transitions: short-circuit emit. Under
            # analysis the real method stays so the "Lock held."
            # contract in emit() is still exercised.
            self.emit = _emit_nothing
        self._units: Dict[str, ProcessingUnit] = {}
        self._queue = PriorityQueue()
        self._workers = workers
        self._worker_stats: List[_WorkerStats] = [
            _WorkerStats() for _ in range(workers)
        ]
        self._threads: List[threading.Thread] = []
        self._thread_set: frozenset = frozenset()
        self._load_ctx = threading.local()
        self._owner = None
        self._memory = None
        self._check_open: Callable[[], None] = lambda: None
        self._closing: Callable[[], bool] = lambda: False
        self._hold_unit: Callable[[str, bool], None] = lambda name, held: None

    def bind(
        self,
        *,
        owner: object,
        memory: object,
        check_open: Callable[[], None],
        closing: Callable[[], bool],
        hold_unit: Optional[Callable[[str, bool], None]] = None,
    ) -> None:
        """Wire the facade and collaborating layers.

        ``owner`` is the object passed to read callbacks; ``check_open`` raises once
        the database is closing and ``closing`` reports the same flag —
        both are called with the engine lock held. ``hold_unit(name,
        held)`` (the record layer's :meth:`RecordEngine.hold_unit
        <repro.core.record_engine.RecordEngine.hold_unit>`) is told,
        under the engine lock, when a unit starts or ends a load and
        when its reference count leaves or reaches zero.
        """
        self._owner = owner
        self._memory = memory
        self._check_open = check_open
        self._closing = closing
        if hold_unit is not None:
            self._hold_unit = hold_unit

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

    @property
    def units(self) -> Dict[str, ProcessingUnit]:
        """The live name -> unit table (engine-lock discipline applies)."""
        return self._units

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
    # Unit table and queue (Lock held.)
    # ------------------------------------------------------------------
    def emit(self, event: str, unit_name: str) -> None:
        """Fire the unit-event hook. Lock held."""
        self._check_locked()
        if self._unit_event_hook is not None:
            self._unit_event_hook(event, unit_name, self._clock())

    def require(self, name: str) -> ProcessingUnit:
        """The named unit, or raise :class:`UnknownUnitError`. Lock held."""
        self._check_locked()
        unit = self._units.get(name)
        if unit is None:
            raise UnknownUnitError(f"unit {name!r} was never added")
        return unit

    def state_of(self, name: str) -> UnitState:
        """The unit's lifecycle state. Lock held."""
        return self.require(name).state

    def list_units(self) -> List[Tuple[str, UnitState]]:
        """(name, state) for every known unit. Lock held."""
        self._check_locked()
        return [(u.name, u.state) for u in self._units.values()]

    def admit(self, name: str, read_fn: Optional[ReadFunction],
              priority: float) -> ProcessingUnit:
        """Create a fresh QUEUED unit under ``name``. Lock held.

        Re-adding an active (queued/reading/resident) name raises
        :class:`UnitStateError`; evicted/failed/deleted names are
        resurrected with a brand-new unit.
        """
        self._check_locked()
        unit = self._units.get(name)
        if unit is not None and unit.state in _ACTIVE_STATES:
            raise UnitStateError(
                f"unit {name!r} is already {unit.state.value}"
            )
        unit = ProcessingUnit(name, read_fn, priority=priority)
        self._units[name] = unit
        self.stats.units_added += 1
        return unit

    def enqueue(self, name: str, read_fn: ReadFunction,
                priority: float) -> None:
        """Admit a unit and append it to the prefetch queue. Lock held."""
        unit = self.admit(name, read_fn, priority)
        self._requeue(unit)
        if len(self._queue) > self.stats.queue_depth_peak:
            self.stats.queue_depth_peak = len(self._queue)
        self.emit("added", name)
        self._cond.notify_all()

    def pin(self, unit: ProcessingUnit, hit: bool = True) -> None:
        """Take a reference on a RESIDENT unit and pull it from the
        eviction policy; ``hit`` counts a wait hit (False for a waiter
        whose miss is already counted). Lock held."""
        self._check_locked()
        if hit:
            self.stats.wait_hits += 1
        unit.ref_count += 1
        self._memory.remove_evictable(unit.name)
        if unit.ref_count == 1:
            self._hold_unit(unit.name, True)

    def finish(self, name: str) -> None:
        """Declare processing complete; evictable at zero refs. Lock held."""
        unit = self.require(name)
        if unit.state is not UnitState.RESIDENT:
            raise UnitStateError(
                f"cannot finish unit {name!r} in state "
                f"{unit.state.value}"
            )
        unit.finished = True
        if unit.ref_count > 0:
            unit.ref_count -= 1
            if unit.ref_count == 0:
                # Before make_evictable: a held unit is in no policy.
                self._hold_unit(name, False)
        self.emit("finished", name)
        if unit.evictable:
            self._memory.make_evictable(name)

    def delete(self, name: str) -> None:
        """Delete the unit's records and free their memory. Lock held."""
        unit = self.require(name)
        if unit.state is UnitState.DELETED:
            return  # idempotent
        if unit.state is UnitState.READING:
            # The loader deletes it the moment the callback returns.
            unit.pending_delete = True
            return
        if unit.state is UnitState.RESIDENT:
            self._memory.evict(unit, deleting=True)
        else:  # QUEUED, EVICTED or FAILED — nothing resident to free
            self._queue.remove(name)
            unit.state = UnitState.DELETED
            self.emit("deleted", name)
        self.stats.units_deleted += 1
        self._cond.notify_all()

    def cancel(self, name: str) -> bool:
        """Cancel a still-QUEUED prefetch; False otherwise. Lock held."""
        unit = self.require(name)
        if unit.state is not UnitState.QUEUED:
            return False
        self._queue.remove(name)
        unit.state = UnitState.DELETED
        self.stats.units_cancelled += 1
        self.emit("cancelled", name)
        self._cond.notify_all()
        return True

    def reprioritize(self, name: str, priority: float) -> None:
        """Store a new priority, reordering if still queued. Lock held."""
        unit = self.require(name)
        unit.priority = priority
        if self._queue.reprioritize(name, priority):
            self._cond.notify_all()

    def queue_len(self) -> int:
        """Units currently pending in the prefetch queue. Lock held."""
        self._check_locked()
        return len(self._queue)

    def clear(self) -> None:
        """Drop every unit and empty the queue (close path). Lock held."""
        self._check_locked()
        self._units.clear()
        self._queue.clear()

    def _requeue(self, unit: ProcessingUnit) -> None:
        """Put a unit (back) on the prefetch queue at its priority.
        Lock held."""
        unit.state = UnitState.QUEUED
        unit.finished = False
        unit.enqueued_at = self._clock()
        self._queue.push(unit.name, priority=unit.priority)

    def _claim(self, unit: ProcessingUnit) -> ReadFunction:
        """Mark a unit READING for an inline read, taking it off the
        queue; returns the read function to run. Lock held."""
        if unit.state is UnitState.QUEUED:
            self._queue.remove(unit.name)
        if unit.read_fn is None:
            raise UnknownUnitError(
                f"unit {unit.name!r} has no read function to reload with"
            )
        unit.state = UnitState.READING
        self._hold_unit(unit.name, True)
        return unit.read_fn

    @staticmethod
    def _raise_if_failed(unit: ProcessingUnit) -> None:
        """Re-raise a FAILED unit's read error to its waiter."""
        if unit.state is UnitState.FAILED:
            raise ReadFunctionError(
                f"read function for unit {unit.name!r} failed"
            ) from unit.error

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
                unit = self._units[name] = ProcessingUnit(name, read_fn)
                self.stats.units_added += 1
            elif read_fn is not None:
                unit.read_fn = read_fn

            if unit.state is UnitState.RESIDENT:
                self.pin(unit)
                return
            if unit.state is UnitState.READING:
                # Background thread has it; fall back to waiting.
                self.stats.wait_misses += 1
                self._wait_until_resident(unit)
                return
            read_callable = self._claim(unit)
            self.stats.wait_misses += 1
        self._read_inline(name, read_callable)

    def wait_unit(self, name: str) -> None:
        """Block until the unit is resident; see :meth:`GBO.wait_unit`."""
        with self._cond:
            self._check_open()
            unit = self.require(name)
            if unit.state is UnitState.RESIDENT:
                self.pin(unit)
                return
            if unit.state is UnitState.DELETED:
                raise UnitStateError(f"unit {name!r} was deleted")
            self.stats.wait_misses += 1
            if self._threads:
                if unit.state is UnitState.QUEUED:
                    # The application is blocked on this unit right now:
                    # jump it past everything else still pending.
                    if self._queue.to_front(name):
                        self.stats.wait_boosts += 1
                        self.emit("boosted", name)
                        self._cond.notify_all()
                self._wait_until_resident(unit)
                return
            # Single-thread build: the read happens inside wait_unit
            # (the paper's G library, section 4.2).
            read_callable = self._claim(unit)
        self._read_inline(name, read_callable)

    def _read_inline(self, name: str, read_fn: ReadFunction) -> None:
        """Run a claimed unit's read on this thread (lock NOT held),
        then raise its error or take the caller's reference."""
        self.run_read(name, read_fn, foreground=True)
        with self._cond:
            unit = self.require(name)
            self._raise_if_failed(unit)
            self.pin(unit, hit=False)

    def _wait_until_resident(self, unit: ProcessingUnit) -> None:
        """Multi-thread wait loop with deadlock detection. Lock held."""
        self._check_locked()
        t0 = self._clock()
        try:
            while True:
                if unit.state is UnitState.RESIDENT:
                    self.pin(unit, hit=False)
                    return
                self._raise_if_failed(unit)
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
                    self._requeue(unit)
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
                self._hold_unit(name, True)
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
        if self._unit_event_hook is not None:
            with self._lock:
                self.emit("read_started", name)
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
            yielded = isinstance(error, LoadYield)
            if error is None:
                unit.loads += 1
                if unit.loads > 1:
                    self.stats.units_reloaded += 1
                if foreground:
                    self.stats.units_read_foreground += 1
                else:
                    self.stats.units_prefetched += 1
            else:
                self._memory.free_unit_records(unit)
            if error is not None and not yielded:
                unit.state = UnitState.FAILED
                unit.error = error
                self.stats.units_failed += 1
                self.emit("failed", name)
            elif unit.pending_delete:
                self._memory.evict(unit, deleting=True)
                self.stats.units_deleted += 1
            elif yielded:
                # The partial load was rolled back so its charges go to a
                # waited-on load; re-read it once memory frees up.
                self._requeue(unit)
            else:
                unit.state = UnitState.RESIDENT
                unit.finished = False
                # The other outcomes drop the unit's records, and its
                # held mark with them (MemoryManager.free_unit_records).
                self._hold_unit(name, False)
                self.emit("loaded", name)
            self._cond.notify_all()
