"""MemoryManager — the memory layer of the GODIVA engine.

Owns the byte accounting (:class:`~repro.core.memory.MemoryAccountant`),
the pluggable :class:`~repro.core.cache.EvictionPolicy`, the table of
I/O workers blocked on memory, and the emergency-reclamation machinery
(idle-prefetch eviction plus the :class:`LoadYield` rollback protocol)
that lets a demand fetch beat speculation (section 3.3, generalized to
``io_workers=N``).

All state lives under the *engine* lock — the lock/condition pair the
facade injects and shares with the I/O scheduler, which owns the unit
table this manager evicts from.
Methods documented "Lock held." must be called with that lock held
(checked under ``REPRO_ANALYSIS=1``). When constructed standalone (no
``lock=``), the manager creates its own tracked pair, so eviction
policies can be unit-tested against it without a full GBO.

Seams: the eviction policy is constructor-injectable (a name or an
:class:`EvictionPolicy` instance); how a unit's records are dropped is
a bound callable (``release_records``), so the record layer stays
decoupled and tests can substitute a fake.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.primitives import (
    TrackedCondition,
    TrackedLock,
    make_held_checker,
)
from repro.analysis.races import guarded_by
from repro.core.cache import EvictionPolicy, make_policy
from repro.core.memory import MemoryAccountant
from repro.core.stats import GodivaStats
from repro.core.units import ProcessingUnit, UnitState
from repro.errors import DatabaseClosedError, MemoryBudgetError


class LoadYield(BaseException):
    """Internal: unwinds a read callback whose partial load must be rolled
    back and re-queued so another stalled load can finish.

    A ``BaseException`` so application read callbacks that catch
    ``Exception`` cannot swallow it; it never escapes
    :meth:`IoScheduler.run_read`.
    """


@guarded_by("_accountant", "_policy", "_io_blocked", "_abort_loads",
            lock="_lock")
class MemoryManager:
    """Byte accounting, eviction, and blocked-worker bookkeeping.

    Parameters
    ----------
    budget_bytes:
        Initial memory budget.
    policy:
        Eviction policy: ``'lru'`` or a ready :class:`EvictionPolicy`
        instance.
    lock, cond:
        The engine lock/condition pair to share; when ``None`` a private
        tracked pair is created (standalone use in tests).
    stats:
        The :class:`GodivaStats` sink for memory counters.
    clock:
        Monotonic-seconds callable used to time blocked workers.
    """

    def __init__(
        self,
        budget_bytes: int,
        *,
        policy: Union[str, EvictionPolicy] = "lru",
        lock: Optional[object] = None,
        cond: Optional[object] = None,
        stats: Optional[GodivaStats] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lock is None:
            lock = TrackedLock(f"MemoryManager._lock@{id(self):#x}")
            cond = TrackedCondition(lock)
        self._lock = lock
        self._cond = cond
        self._check_locked = make_held_checker(lock, "MemoryManager helper")
        self._clock = clock
        self.stats = stats if stats is not None else GodivaStats()
        self._accountant = MemoryAccountant(budget_bytes)
        self._policy = make_policy(policy)
        #: Worker threads blocked on memory: thread -> (bytes needed,
        #: name of the unit the blocked worker is loading).
        self._io_blocked: Dict[
            threading.Thread, Tuple[int, Optional[str]]
        ] = {}
        #: Names of in-flight loads told to roll back and re-queue so a
        #: stalled, waited-on load can claim their partial memory charges.
        self._abort_loads: set = set()
        self._scheduler = None
        #: The scheduler's unit table (the same dict, so engine-lock
        #: discipline applies), read directly by the charge path; empty
        #: while no scheduler is bound.
        self._units: Dict[str, ProcessingUnit] = {}
        self._derived = None
        self._arena = None
        self._release_records: Callable[[str], int] = lambda name: 0
        self._closing: Callable[[], bool] = lambda: False

    def bind(
        self,
        *,
        release_records: Callable[[str], int],
        scheduler: Optional[object] = None,
        closing: Optional[Callable[[], bool]] = None,
        derived: Optional[object] = None,
        arena: Optional[object] = None,
    ) -> None:
        """Wire the collaborating layers and seams.

        ``scheduler`` is the :class:`~repro.core.io_scheduler.IoScheduler`
        holding the unit table (None for a standalone manager that
        tracks no units); ``release_records(unit_name)`` drops every record of a unit and
        returns the bytes freed (the record layer's
        ``drop_unit_records``); ``closing()`` reports whether the
        database has begun shutting down (read with the lock held);
        ``derived`` is the optional
        :class:`~repro.core.derived.DerivedCache` whose entries share
        this manager's budget and eviction policy; ``arena`` is the
        :class:`~repro.core.arena.Arena` the payload bytes live in —
        accounting is arena-agnostic, the manager only surfaces the
        arena's segment statistics in :meth:`report`.
        """
        self._scheduler = scheduler
        self._units = scheduler.units if scheduler is not None else {}
        self._release_records = release_records
        if closing is not None:
            self._closing = closing
        if derived is not None:
            self._derived = derived
        if arena is not None:
            self._arena = arena

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def lock(self) -> object:
        """The engine lock this manager synchronizes on (shared or
        private); collaborators like :class:`DerivedCache` default to
        it."""
        return self._lock

    @property
    def cond(self) -> object:
        """The engine condition paired with :attr:`lock`."""
        return self._cond

    @property
    def accountant(self) -> MemoryAccountant:
        """The underlying accountant (engine-lock discipline applies)."""
        return self._accountant

    @property
    def policy(self) -> EvictionPolicy:
        """The eviction policy (engine-lock discipline applies)."""
        return self._policy

    @property
    def io_blocked(self) -> Dict[threading.Thread, Tuple[int, Optional[str]]]:
        """Blocked-worker table (engine-lock discipline applies)."""
        return self._io_blocked

    @property
    def abort_loads(self) -> set:
        """Loads asked to roll back (engine-lock discipline applies)."""
        return self._abort_loads

    def fits(self, nbytes: int) -> bool:
        """Whether ``nbytes`` fits the budget right now. Lock held."""
        self._check_locked()
        return self._accountant.fits(nbytes)

    def has_blocked(self) -> bool:
        """Whether any I/O worker is blocked on memory. Lock held."""
        self._check_locked()
        return bool(self._io_blocked)

    def blocked_allocations(self) -> List[Tuple[int, Optional[str]]]:
        """(bytes needed, loading unit) per blocked worker. Lock held."""
        self._check_locked()
        return list(self._io_blocked.values())

    def evictable_count(self) -> int:
        """Number of units the policy could evict. Lock held."""
        self._check_locked()
        return len(self._policy)

    def rollbacks_pending(self) -> bool:
        """Whether requested load rollbacks have not landed yet. Lock held."""
        self._check_locked()
        return bool(self._abort_loads)

    def discard_abort(self, name: str) -> None:
        """Clear a landed (or moot) rollback request. Lock held."""
        self._check_locked()
        self._abort_loads.discard(name)

    # ------------------------------------------------------------------
    # Charge / release
    # ------------------------------------------------------------------
    def charge(self, nbytes: int, unit_name: Optional[str] = None) -> None:
        """Charge ``nbytes`` — to ``unit_name``'s resident bytes when it
        names a unit — evicting/blocking as needed. Lock held."""
        self._check_locked()
        if not self._accountant.try_charge(nbytes):
            self._make_room(nbytes)
            self._accountant.charge(nbytes)
        self.stats.bytes_allocated += nbytes
        if unit_name is not None:
            unit = self._units.get(unit_name)
            if unit is not None:
                unit.resident_bytes += nbytes

    def _make_room(self, nbytes: int) -> None:
        """Evict, block or yield until ``nbytes`` fit. Lock held."""
        self._check_locked()
        if not self._accountant.can_ever_fit(nbytes):
            raise MemoryBudgetError(
                f"allocation of {nbytes} bytes exceeds the total budget of "
                f"{self._accountant.budget_bytes} bytes",
                needed=nbytes,
            )
        scheduler = self._scheduler
        while not self._accountant.fits(nbytes):
            if self.evict_next_victim():
                continue
            thread = threading.current_thread()
            if scheduler is not None and scheduler.is_io_thread(thread):
                loading = scheduler.current_load_unit()
                if loading is not None and loading in self._abort_loads:
                    # A waiter needs this load's partial charges rolled
                    # back; unwind to run_read, which frees and re-queues.
                    raise LoadYield()
                # Background prefetch outran the application; block until
                # finish_unit/delete_unit frees memory (section 3.2: the
                # I/O thread is "blocked for lack of memory space").
                # Check closing BEFORE waiting: close() fires one
                # notify_all, and a worker that blocks after it would
                # miss the wakeup and deadlock the close-side join().
                if self._closing():
                    raise DatabaseClosedError("GBO closed during prefetch")
                self._io_blocked[thread] = (nbytes, loading)
                self._cond.notify_all()
                t0 = self._clock()
                self._cond.wait()
                blocked = self._clock() - t0
                self.stats.io_thread_blocked_seconds += blocked
                scheduler.note_blocked(blocked)
                self._io_blocked.pop(thread, None)
                if self._closing():
                    raise DatabaseClosedError("GBO closed during prefetch")
                continue
            raise MemoryBudgetError(
                f"cannot allocate {nbytes} bytes: "
                f"{self._accountant.used_bytes}/"
                f"{self._accountant.budget_bytes} "
                f"bytes in use and no finished unit is evictable — "
                f"finish_unit/delete_unit processed units to free space",
                needed=nbytes,
            )

    def release(self, nbytes: int, unit_name: Optional[str]) -> None:
        """Return ``nbytes`` to the budget. Lock held."""
        self._check_locked()
        self._accountant.release(nbytes)
        self.stats.bytes_released += nbytes
        if unit_name is not None:
            unit = self._units.get(unit_name)
            if unit is not None:
                unit.resident_bytes -= nbytes

    # -- the record layer's seams: each takes the engine lock itself, and
    # the record layer calls them without its own lock held (engine →
    # record order).
    def charge_bytes(self, nbytes: int, unit_name: Optional[str]) -> None:
        """:meth:`charge` under the engine lock.

        The record layer's per-buffer charge: when the bytes fit the
        budget — the common case — they are accounted here, in this one
        frame (:meth:`MemoryAccountant.try_charge
        <repro.core.memory.MemoryAccountant.try_charge>` and the unit's
        share, written out); anything else goes to :meth:`charge`, whose
        evict/block/yield loop and errors are unchanged.
        """
        self._lock.acquire()        # a per-buffer hold (ADR-018)
        try:
            accountant = self._accountant
            used = accountant._used + nbytes
            if nbytes < 0 or used > accountant._budget:
                self.charge(nbytes, unit_name)
                return
            accountant._used = used
            if used > accountant._high_water:
                accountant._high_water = used
            self.stats.bytes_allocated += nbytes
            if unit_name is not None:
                unit = self._units.get(unit_name)
                if unit is not None:
                    unit.resident_bytes += nbytes
        finally:
            self._lock.release()

    def release_bytes(self, nbytes: int, unit_name: Optional[str]) -> None:
        """:meth:`release` under the engine lock, waking blocked workers."""
        with self._lock:
            self.release(nbytes, unit_name)
            self._cond.notify_all()

    def touch_unit(self, name: str) -> None:
        """Record a query hit on an evictable unit (takes the engine
        lock)."""
        self._lock.acquire()        # a per-buffer hold (ADR-018)
        try:
            self._policy.touch(name)
        finally:
            self._lock.release()

    def set_budget(self, budget: int) -> None:
        """Adjust the budget, evicting down to it if shrunk. Lock held."""
        self._check_locked()
        self._accountant.set_budget(budget)
        while self._accountant.used_bytes > budget:
            if not self.evict_next_victim():
                break
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict_next_victim(self) -> bool:
        """Evict the policy's next victim, whatever kind it is. Lock held.

        Dispatches on the victim's namespace: ``derived::`` names free a
        derived-cache entry, everything else a whole unit. Because the
        policy interleaves units and cache entries in one recency order,
        demand loads reclaim cache bytes through this same path before
        the deadlock detector is ever consulted. Returns False when the
        policy is empty.
        """
        self._check_locked()
        victim = self._policy.victim()
        if victim is None:
            return False
        if self._derived is not None and self._derived.owns(victim):
            self._derived.evict_locked(victim)
        else:
            self.evict(self._scheduler.require(victim), deleting=False)
        return True

    def make_evictable(self, name: str) -> None:
        """Hand a finished, unreferenced unit to the policy. Lock held."""
        self._check_locked()
        self._policy.add(name)
        self._cond.notify_all()

    def remove_evictable(self, name: str) -> None:
        """Pull a re-acquired unit back from the policy. Lock held."""
        self._check_locked()
        self._policy.remove(name)

    def free_unit_records(self, unit: ProcessingUnit) -> None:
        """Drop all of a unit's records and release their memory.

        Lock held.
        """
        self._check_locked()
        freed = self._release_records(unit.name)
        if freed:
            self._accountant.release(freed)
            self.stats.bytes_released += freed
        unit.resident_bytes = 0

    def evict(self, unit: ProcessingUnit, deleting: bool) -> None:
        """Whole-unit eviction: remove every record, release memory.

        Lock held.
        """
        self._check_locked()
        self.free_unit_records(unit)
        self._policy.remove(unit.name)
        unit.finished = False
        unit.ref_count = 0
        if deleting:
            unit.state = UnitState.DELETED
            self._scheduler.emit("deleted", unit.name)
        else:
            unit.state = UnitState.EVICTED
            self.stats.evictions += 1
            self._scheduler.emit("evicted", unit.name)
        self._cond.notify_all()

    def reclaim_for(self, needed: int, waiting: ProcessingUnit) -> bool:
        """Try to free ``needed`` bytes for a waited-on load. Lock held.

        Demand beats speculation (section 3.3, last paragraph): first
        emergency-evict completed prefetches nobody consumed (RESIDENT,
        unfinished, unreferenced — they re-queue on demand like any
        evicted unit); if that is not enough, ask the other blocked
        in-flight loads to roll back their partial charges
        (:class:`LoadYield`). Returns False when even full reclamation
        cannot make ``needed`` fit — a genuine deadlock the application
        must break with ``finish_unit``/``delete_unit``.
        """
        self._check_locked()
        units = self._scheduler.units
        idle_prefetched = [
            u for u in units.values()
            if u.state is UnitState.RESIDENT and not u.finished
            and u.ref_count == 0 and u.name != waiting.name
        ]
        blocked_loading = {
            loading for _nbytes, loading in self._io_blocked.values()
            if loading is not None
        }
        rollback = [
            u for name in blocked_loading if name != waiting.name
            for u in (units.get(name),) if u is not None
        ]
        reclaimable = (
            sum(u.resident_bytes for u in idle_prefetched)
            + sum(u.resident_bytes for u in rollback)
        )
        if (self._accountant.used_bytes - reclaimable + needed
                > self._accountant.budget_bytes):
            return False
        for victim in idle_prefetched:
            if self._accountant.fits(needed):
                break
            self.evict(victim, deleting=False)
        if not self._accountant.fits(needed):
            self._abort_loads.update(u.name for u in rollback)
            self.stats.load_yields += len(rollback)
        self._cond.notify_all()
        return True

    # ------------------------------------------------------------------
    # Reporting / shutdown
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Diagnostic snapshot of where the budget went. Lock held.

        Returns budget/used/peak plus per-unit resident byte counts and
        the unattached remainder (records created outside any read
        callback).
        """
        self._check_locked()
        per_unit = {
            unit.name: unit.resident_bytes
            for unit in self._scheduler.units.values()
            if unit.resident_bytes
        }
        used = self._accountant.used_bytes
        derived_bytes = (
            self._derived.resident_bytes_locked()
            if self._derived is not None else 0
        )
        report = {
            "budget_bytes": self._accountant.budget_bytes,
            "used_bytes": used,
            "high_water_bytes": self._accountant.high_water_bytes,
            "per_unit_bytes": per_unit,
            "derived_bytes": derived_bytes,
            "unattached_bytes": (
                used - sum(per_unit.values()) - derived_bytes
            ),
            "evictable_units": list(self._policy),
        }
        if self._arena is not None:
            report["arena"] = self._arena.report()
        return report

    def drain(self) -> None:
        """Empty the eviction policy (close path). Lock held."""
        self._check_locked()
        while self._policy.victim() is not None:
            pass
