"""The per-buffer charge against the charge it shortcuts, and the
closing checks the per-buffer calls carry inline.

``MemoryManager.charge_bytes`` accounts a charge that fits the budget
in its own frame and hands every other charge to
``MemoryManager.charge``. The reference model is the charge as the
record layer made it before that shortcut: ``charge`` under the engine
lock. Twin engines run one allocation sequence across the budget edge,
one through each; every observable must agree after every allocation —
used bytes, high water, ``bytes_allocated``, evictions, each unit's
resident bytes, and the allocation's outcome (charged,
``MemoryBudgetError``, ``LoadYield``, or blocked on memory).
"""

import threading
import time

import pytest

from repro.analysis.primitives import TrackedCondition, TrackedLock
from repro.core.database import GBO
from repro.core.io_scheduler import IoScheduler
from repro.core.memory_manager import LoadYield, MemoryManager
from repro.core.stats import GodivaStats
from repro.core.units import UnitState
from repro.errors import (
    DatabaseClosedError,
    KeyLookupError,
    MemoryBudgetError,
    RecordStateError,
)

BUDGET = 300


class Engine:
    """A MemoryManager over an IoScheduler's unit table (no workers),
    with the record layer replaced by a name -> bytes table."""

    def __init__(self, charge):
        self.lock = TrackedLock(f"charge-path-test@{id(self):#x}")
        self.cond = TrackedCondition(self.lock)
        stats = GodivaStats()
        self.store = IoScheduler(lock=self.lock, cond=self.cond,
                                 stats=stats)
        self.manager = MemoryManager(BUDGET, lock=self.lock,
                                     cond=self.cond, stats=stats)
        self.sizes = {}
        self.store.bind(owner=None, memory=self.manager,
                        check_open=lambda: None, closing=lambda: False)
        self.manager.bind(scheduler=self.store,
                          release_records=lambda n: self.sizes.pop(n, 0))
        self._charge = charge

    def charge(self, nbytes, unit_name):
        self._charge(self, nbytes, unit_name)

    def resident(self, name, nbytes, finished):
        """A RESIDENT unit holding ``nbytes`` (evictable if finished)."""
        with self.cond:
            unit = self.store.admit(name, None, 0.0)
            unit.state = UnitState.RESIDENT
            self.manager.charge(nbytes, name)
            self.sizes[name] = nbytes
            if finished:
                self.store.finish(name)

    def observe(self):
        with self.lock:
            accountant = self.manager.accountant
            stats = self.manager.stats
            return (accountant.used_bytes, accountant.high_water_bytes,
                    stats.bytes_allocated, stats.evictions,
                    sorted((u.name, u.state.name, u.resident_bytes)
                           for u in self.store.units.values()))


def fast_charge(engine, nbytes, unit_name):
    engine.manager.charge_bytes(nbytes, unit_name)


def reference_charge(engine, nbytes, unit_name):
    with engine.lock:
        engine.manager.charge(nbytes, unit_name)


def twins():
    return Engine(fast_charge), Engine(reference_charge)


def outcome(call):
    try:
        call()
    except (MemoryBudgetError, ValueError, LoadYield) as exc:
        return type(exc).__name__, str(exc)
    return "charged"


def as_io_thread(engine, unit_name, sizes, progress, outcomes):
    """A thread the scheduler counts as its I/O worker, loading
    ``unit_name``, that charges ``sizes`` in turn."""
    def load():
        engine.store._load_ctx.unit_name = unit_name
        for nbytes in sizes:
            result = outcome(lambda: engine.charge(nbytes, unit_name))
            outcomes.append(result)
            if result != "charged":
                return
            progress.append(nbytes)

    thread = threading.Thread(target=load)
    engine.store._thread_set = frozenset({thread})
    return thread


def wait_blocked(engine, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with engine.lock:
            if engine.manager.has_blocked():
                return engine.manager.blocked_allocations()
        time.sleep(0.001)
    raise AssertionError("the I/O thread never blocked on memory")


class TestChargeMatchesItsReference:
    #: From 100 used: fill to exactly the budget, cross it (evicts the
    #: finished unit), cross it with nothing evictable, ask for more
    #: than the whole budget, a negative and a zero charge, an
    #: unattached charge and one to a unit the table does not hold.
    SEQUENCE = [(40, "u")] * 6 + [(120, "u"), (400, "u"), (-1, "u"),
                                  (0, "u"), (10, None), (50, "ghost"),
                                  (60, "u")]

    def test_main_thread_sequence_across_the_budget_edge(self):
        fast, reference = twins()
        for engine in (fast, reference):
            engine.resident("old", 100, finished=True)
            engine.resident("u", 0, finished=False)
        trace = []
        for nbytes, unit_name in self.SEQUENCE:
            results = [outcome(lambda: e.charge(nbytes, unit_name))
                       for e in (fast, reference)]
            assert results[0] == results[1], (nbytes, unit_name)
            assert fast.observe() == reference.observe(), (nbytes,
                                                             unit_name)
            trace.append(results[0])
        # The sequence does reach every branch it is meant to.
        assert trace[:6] == ["charged"] * 6
        assert fast.observe()[3] == 1            # "old" was evicted
        assert "no finished unit is evictable" in trace[6][1]
        assert "exceeds the total budget" in trace[7][1]
        assert trace[8][0] == "ValueError"
        assert trace[9:12] == ["charged"] * 3
        assert trace[12][0] == "MemoryBudgetError"

    def test_io_thread_blocks_at_the_same_allocation(self):
        observed = []
        for engine in twins():
            engine.resident("held", 200, finished=False)
            with engine.cond:
                engine.store.admit("x", None, 0.0).state = \
                    UnitState.READING
            progress, outcomes = [], []
            thread = as_io_thread(engine, "x", [50, 50, 50], progress,
                                  outcomes)
            thread.start()
            blocked = wait_blocked(engine)
            assert blocked == [(50, "x")]
            assert progress == [50, 50]
            engine.manager.release_bytes(100, "held")
            thread.join(10)
            assert not thread.is_alive()
            assert outcomes == ["charged"] * 3
            observed.append(engine.observe())
        assert observed[0] == observed[1]

    def test_io_thread_yields_at_the_same_allocation(self):
        observed = []
        for engine in twins():
            engine.resident("held", 200, finished=False)
            with engine.cond:
                engine.store.admit("x", None, 0.0).state = \
                    UnitState.READING
                engine.manager.abort_loads.add("x")
            progress, outcomes = [], []
            thread = as_io_thread(engine, "x", [50, 50, 50], progress,
                                  outcomes)
            thread.start()
            thread.join(10)
            assert progress == [50, 50]
            assert outcomes[-1] == ("LoadYield", "")
            observed.append(engine.observe())
        assert observed[0] == observed[1]


@pytest.fixture
def solid_gbo():
    from repro.io.readers import solid_schema

    gbo = GBO(mem_mb=8, derived_cache=False)
    solid_schema().ensure(gbo)
    yield gbo
    gbo.close()


class TestInlinedChecks:
    def test_each_inlined_closing_check_runs_with_the_lock_held(
            self, solid_gbo):
        engine = solid_gbo._records
        held = []
        lock = engine._lock
        engine._check_locked = lambda: held.append(lock.locked())
        record = solid_gbo.new_record("solid")
        record.field("block id").write(b"block_0001$")
        record.field("time-step id").write(b"0.000025$")
        solid_gbo.alloc_field_buffer(record, "coords", 240)
        solid_gbo.commit_record(record)
        solid_gbo.get_field_buffer("solid", "coords",
                                   [b"block_0001$", b"0.000025$"])
        # new_record (_check_open, _record_type_locked),
        # alloc_field_buffer, commit_record (_check_open) and
        # get_field_buffer: every check made under the lock.
        assert held == [True] * 5

    def test_query_errors_are_unchanged(self, solid_gbo):
        key = [b"block_0001$", b"0.000025$"]
        with pytest.raises(KeyLookupError):
            solid_gbo.get_field_buffer("solid", "coords", key)
        record = solid_gbo.new_record("solid")
        record.field("block id").write(key[0])
        record.field("time-step id").write(key[1])
        solid_gbo.commit_record(record)
        with pytest.raises(RecordStateError):
            solid_gbo.get_field_buffer("solid", "coords", key)
        # A key given as str is normalised to the same bytes.
        assert solid_gbo.get_field_buffer(
            "solid", "block id",
            ["block_0001$", "0.000025$"]).tobytes() == key[0]
        solid_gbo.close()
        with pytest.raises(DatabaseClosedError):
            solid_gbo.get_field_buffer("solid", "block id", key)
