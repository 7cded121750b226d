"""Direct unit tests for the engine layers — no full GBO involved.

Exercises eviction-policy subclasses (LRU/FIFO/MRU and injected
instances) against a standalone :class:`MemoryManager` wired to the
unit table of an :class:`IoScheduler` (no workers, no facade) over a
shared tracked lock, with the record layer replaced by a byte-table
seam.
"""

import pytest

from repro.analysis.primitives import TrackedCondition, TrackedLock
from repro.core.cache import FifoEvictionPolicy, MruEvictionPolicy
from repro.core.io_scheduler import IoScheduler
from repro.core.memory_manager import MemoryManager
from repro.core.stats import GodivaStats
from repro.core.units import UnitState
from repro.errors import (
    DatabaseClosedError,
    MemoryBudgetError,
    UnitStateError,
    UnknownUnitError,
)


def _build(policy, budget=300):
    """A MemoryManager + IoScheduler pair sharing one engine lock; the
    scheduler's unit table is the ``store``.

    The record layer is replaced by a plain ``sizes`` dict: eviction
    frees whatever the test charged to the unit.
    """
    lock = TrackedLock(f"engine-layer-test@{id(policy):#x}")
    cond = TrackedCondition(lock)
    stats = GodivaStats()
    store = IoScheduler(lock=lock, cond=cond, stats=stats)
    manager = MemoryManager(
        budget, policy=policy, lock=lock, cond=cond, stats=stats
    )
    sizes = {}
    store.bind(owner=None, memory=manager, check_open=lambda: None,
               closing=lambda: False)
    manager.bind(scheduler=store,
                 release_records=lambda name: sizes.pop(name, 0))
    return lock, cond, store, manager, sizes


def _load(cond, store, manager, sizes, name, nbytes, finished=True):
    """Materialize a RESIDENT unit charged with ``nbytes``."""
    with cond:
        unit = store.admit(name, None, 0.0)
        unit.state = UnitState.RESIDENT
        manager.charge(nbytes)
        unit.resident_bytes = nbytes
        sizes[name] = nbytes
        if finished:
            store.finish(name)
    return unit


def test_lru_evicts_least_recently_used():
    lock, cond, store, manager, sizes = _build("lru")
    for name in ("a", "b", "c"):
        _load(cond, store, manager, sizes, name, 100)
    manager.touch_unit("a")  # recency order is now b, c, a
    with cond:
        manager.charge(100)  # forces exactly one eviction
    with lock:
        assert store.state_of("b") is UnitState.EVICTED
        assert store.state_of("a") is UnitState.RESIDENT
        assert store.state_of("c") is UnitState.RESIDENT
        assert manager.accountant.used_bytes == 300


def test_fifo_ignores_touches_and_evicts_oldest():
    lock, cond, store, manager, sizes = _build(FifoEvictionPolicy())
    for name in ("a", "b", "c"):
        _load(cond, store, manager, sizes, name, 100)
    manager.touch_unit("a")  # no effect on FIFO order
    with cond:
        manager.charge(100)
    with lock:
        assert store.state_of("a") is UnitState.EVICTED
        assert store.state_of("b") is UnitState.RESIDENT


def test_mru_evicts_most_recently_used():
    lock, cond, store, manager, sizes = _build(MruEvictionPolicy())
    for name in ("a", "b", "c"):
        _load(cond, store, manager, sizes, name, 100)
    manager.touch_unit("a")  # a becomes most recently used
    with cond:
        manager.charge(100)
    with lock:
        assert store.state_of("a") is UnitState.EVICTED
        assert store.state_of("c") is UnitState.RESIDENT


def test_policy_instance_is_injectable():
    policy = MruEvictionPolicy()
    lock, cond, store, manager, sizes = _build(policy)
    assert manager.policy is policy
    for name in ("a", "b"):
        _load(cond, store, manager, sizes, name, 150)
    with cond:
        manager.charge(150)
    with lock:
        assert store.state_of("b") is UnitState.EVICTED  # MRU order held


def test_charge_rejects_over_budget_and_unevictable_pressure():
    lock, cond, store, manager, sizes = _build("lru", budget=200)
    with cond:
        with pytest.raises(MemoryBudgetError):
            manager.charge(201)  # can never fit
    # An unfinished unit is not evictable: pressure must fail, not evict.
    _load(cond, store, manager, sizes, "busy", 200, finished=False)
    with cond:
        with pytest.raises(MemoryBudgetError):
            manager.charge(50)
    with lock:
        assert store.state_of("busy") is UnitState.RESIDENT


def test_set_budget_shrink_evicts_down_in_policy_order():
    lock, cond, store, manager, sizes = _build("lru")
    for name in ("a", "b", "c"):
        _load(cond, store, manager, sizes, name, 100)
    with cond:
        manager.set_budget(150)
    with lock:
        assert store.state_of("a") is UnitState.EVICTED
        assert store.state_of("b") is UnitState.EVICTED
        assert store.state_of("c") is UnitState.RESIDENT
        assert manager.accountant.used_bytes == 100
        assert manager.accountant.budget_bytes == 150


def test_evict_resets_unit_and_counts_stats():
    lock, cond, store, manager, sizes = _build("lru")
    unit = _load(cond, store, manager, sizes, "u", 100)
    with cond:
        manager.evict(unit, deleting=False)
    with lock:
        assert unit.state is UnitState.EVICTED
        assert unit.resident_bytes == 0
        assert not unit.finished
        assert manager.accountant.used_bytes == 0
        assert manager.stats.evictions == 1
        assert manager.stats.bytes_released == 100


def test_reclaim_for_evicts_idle_prefetches_first():
    lock, cond, store, manager, sizes = _build("lru")
    # Two completed prefetches nobody consumed (unfinished, unreferenced)
    idle1 = _load(cond, store, manager, sizes, "idle1", 100, finished=False)
    _load(cond, store, manager, sizes, "idle2", 100, finished=False)
    with cond:
        waiting = store.admit("wanted", None, 0.0)
        assert manager.reclaim_for(150, waiting) is True
    with lock:
        # Enough was emergency-evicted for 150 bytes to fit.
        assert manager.fits(150)
        assert idle1.state is UnitState.EVICTED
        assert not manager.rollbacks_pending()


def test_reclaim_for_refuses_a_genuine_deadlock():
    lock, cond, store, manager, sizes = _build("lru")
    # All memory held by a unit the application still references.
    _load(cond, store, manager, sizes, "held", 300, finished=False)
    with cond:
        store.require("held").ref_count = 1
        waiting = store.admit("wanted", None, 0.0)
        assert manager.reclaim_for(100, waiting) is False


def test_blocked_charge_raises_instead_of_waiting_once_closing():
    """Lost-wakeup regression: close() fires one notify_all, so an I/O
    charge that would block AFTER close has begun must raise — waiting
    would sleep forever and deadlock close()'s join()."""
    lock, cond, store, manager, sizes = _build("lru", budget=200)
    store.is_io_thread = lambda thread: True  # the caller is a worker
    manager.bind(scheduler=store,
                 release_records=lambda name: sizes.pop(name, 0),
                 closing=lambda: True)
    _load(cond, store, manager, sizes, "pinned", 200, finished=False)
    with cond:
        with pytest.raises(DatabaseClosedError):
            manager.charge(50)  # nothing evictable -> would block


def test_store_lifecycle_guards():
    lock, cond, store, manager, sizes = _build("lru")
    with cond:
        with pytest.raises(UnknownUnitError):
            store.require("ghost")
        store.admit("u", None, 0.0)
        with pytest.raises(UnitStateError):
            store.admit("u", None, 0.0)  # active names cannot be re-added
        with pytest.raises(UnitStateError):
            store.finish("u")  # only RESIDENT units can finish
