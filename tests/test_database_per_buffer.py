"""The per-buffer calls under contention and failure.

``alloc_field_buffer`` claims a field under the record lock before it
charges the budget, ``new_record`` tracks a record before its charge,
and ``get_field_buffer`` hands out a fresh view per call. These tests
pin what each promises when two threads race it, when its charge fails,
and when a caller flips a view's flags (as Voyager's ``_buffer`` does).
"""

import threading

import numpy as np
import pytest

from repro.core.database import GBO
from repro.core.memory import RECORD_OVERHEAD_BYTES
from repro.core.shared_arena import SharedMemoryArena
from repro.core.types import DataType
from repro.errors import MemoryBudgetError, RecordStateError

KEY = [b"block_0001$", b"0.000025$"]


def fluid_record(gbo):
    record = gbo.new_record("fluid")
    record.field("block id").write(KEY[0])
    record.field("time-step id").write(KEY[1])
    return record


def race(*calls):
    """Start every call together on its own thread; each one's outcome,
    the value returned or the exception raised."""
    barrier = threading.Barrier(len(calls))
    outcomes = [None] * len(calls)

    def run(index, call):
        barrier.wait()
        try:
            outcomes[index] = call()
        except Exception as exc:            # noqa: BLE001 — the outcome
            outcomes[index] = exc

    threads = [threading.Thread(target=run, args=(i, call))
               for i, call in enumerate(calls)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


class TestConcurrentAlloc:
    @pytest.mark.parametrize("attempt", range(25))
    def test_one_of_two_racing_allocations_wins(self, fluid_gbo, attempt):
        record = fluid_record(fluid_gbo)
        used = fluid_gbo.mem_used_bytes
        allocated = fluid_gbo.stats.bytes_allocated
        outcomes = race(
            lambda: fluid_gbo.alloc_field_buffer(record, "pressure", 800),
            lambda: fluid_gbo.alloc_field_buffer(record, "pressure", 800))
        winners = [o for o in outcomes if not isinstance(o, Exception)]
        losers = [o for o in outcomes if isinstance(o, Exception)]
        assert len(winners) == 1 and len(losers) == 1
        assert isinstance(losers[0], RecordStateError)
        # A view of the record's one pressure slot (ADR-020: a field
        # buffer is made on demand, so not the same object twice).
        assert np.shares_memory(winners[0].as_array(),
                                record.field("pressure").as_array())
        assert winners[0].size == 800
        assert fluid_gbo.mem_used_bytes == used + 800
        assert fluid_gbo.stats.bytes_allocated == allocated + 800

    def test_racing_allocations_of_two_fields_both_land(self, gbo):
        gbo.define_field("k", DataType.STRING, 4)
        gbo.define_field("a", DataType.DOUBLE)
        gbo.define_field("b", DataType.DOUBLE)
        gbo.ensure_record_type("pair", 1,
                               [("k", True), ("a", False), ("b", False)])
        record = gbo.new_record("pair")
        used = gbo.mem_used_bytes
        outcomes = race(
            lambda: gbo.alloc_field_buffer(record, "a", 80),
            lambda: gbo.alloc_field_buffer(record, "b", 160))
        assert [o.size for o in outcomes] == [80, 160]
        assert gbo.mem_used_bytes == used + 240


class TestFailedCharges:
    def test_alloc_over_budget_leaves_the_field_claimable(self):
        with GBO(mem=4096) as gbo:
            gbo.define_field("k", DataType.STRING, 4)
            gbo.define_field("v", DataType.DOUBLE)
            gbo.ensure_record_type("r", 1, [("k", True), ("v", False)])
            record = gbo.new_record("r")
            used = gbo.mem_used_bytes
            with pytest.raises(MemoryBudgetError):
                gbo.alloc_field_buffer(record, "v", 8192)
            assert not record.field("v").allocated
            assert gbo.mem_used_bytes == used
            assert gbo.alloc_field_buffer(record, "v", 800).size == 800

    def test_new_record_over_budget_is_not_tracked(self):
        with GBO(mem=4096) as gbo:
            gbo.define_field("k", DataType.STRING, 8192)
            gbo.ensure_record_type("big", 1, [("k", True)])
            with pytest.raises(MemoryBudgetError):
                gbo.new_record("big")
            assert gbo.mem_used_bytes == 0
            # White-box: no record of the failed call stays tracked.
            assert gbo._records._index._unattached == {}

    def test_buffers_charge_the_records_unit(self, fluid_gbo):
        def read_fn(gbo, name):
            record = fluid_record(gbo)
            gbo.alloc_field_buffer(record, "pressure", 8000)
            gbo.commit_record(record)

        fluid_gbo.add_unit("u", read_fn)
        fluid_gbo.wait_unit("u")
        assert fluid_gbo.resident_bytes_of("u") == (
            11 + 9 + RECORD_OVERHEAD_BYTES + 8000)
        assert fluid_gbo.mem_used_bytes == fluid_gbo.resident_bytes_of("u")


@pytest.fixture(params=["heap", "shared"])
def arena_gbo(request):
    """The fluid GBO over the default heap storage and over shared
    memory."""
    arena = SharedMemoryArena() if request.param == "shared" else None
    gbo = GBO(mem_mb=16, arena=arena)
    gbo.define_field("block id", DataType.STRING, 11)
    gbo.define_field("time-step id", DataType.STRING, 9)
    gbo.define_field("pressure", DataType.DOUBLE)
    gbo.ensure_record_type("fluid", 2, [("block id", True),
                                        ("time-step id", True),
                                        ("pressure", False)])
    yield gbo
    gbo.close()
    if arena is not None:
        arena.close()


class TestQueryViews:
    def test_each_query_is_its_own_view_of_one_buffer(self, arena_gbo):
        record = fluid_record(arena_gbo)
        arena_gbo.alloc_field_buffer(record, "pressure", 80)
        arena_gbo.commit_record(record)
        first = arena_gbo.get_field_buffer("fluid", "pressure", KEY)
        second = arena_gbo.get_field_buffer("fluid", "pressure", KEY)
        assert first is not second
        assert np.shares_memory(first, second)
        first.flags.writeable = False
        assert second.flags.writeable
        second[:] = 2.5
        assert np.array_equal(first, np.full(10, 2.5))
        third = arena_gbo.get_field_buffer("fluid", "pressure", KEY)
        assert third.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0


class CountingLock:
    """Stands in for the engine lock and counts acquisitions."""

    def __init__(self, lock):
        self.lock = lock
        self.acquired = 0

    def acquire(self, *args, **kwargs):
        self.acquired += 1
        return self.lock.acquire(*args, **kwargs)

    def release(self):
        self.lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


class TestQueryTouch:
    """A query takes the engine lock only to touch an evictable unit: a
    unit that is pinned (or loading) is in no eviction policy, so its
    query takes the record lock alone (ADR-020)."""

    @staticmethod
    def engine_acquisitions(gbo, query):
        counting = CountingLock(gbo._mem._lock)
        gbo._mem._lock = counting
        try:
            query()
        finally:
            gbo._mem._lock = counting.lock
        return counting.acquired

    @pytest.mark.parametrize("background_io", [False, True],
                             ids=["G", "TG"])
    def test_pinned_none_evictable_one(self, fluid_gbo_factory,
                                       background_io):
        gbo = fluid_gbo_factory(background_io)

        def read_fn(database, name):
            record = fluid_record(database)
            database.alloc_field_buffer(record, "pressure", 80)
            database.commit_record(record)

        gbo.add_unit("u", read_fn)
        gbo.wait_unit("u")
        queries = (lambda: gbo.get_field_buffer("fluid", "pressure", KEY),
                   lambda: gbo.get_record("fluid", KEY))
        for query in queries:
            assert self.engine_acquisitions(gbo, query) == 0
        gbo.finish_unit("u")
        assert gbo.memory_report()["evictable_units"] == ["u"]
        for query in queries:
            assert self.engine_acquisitions(gbo, query) == 1
        gbo.wait_unit("u")                  # pinned again
        for query in queries:
            assert self.engine_acquisitions(gbo, query) == 0

    def test_loading_unit_query_takes_no_engine_lock(self, fluid_gbo):
        counts = []

        def read_fn(database, name):
            record = fluid_record(database)
            database.alloc_field_buffer(record, "pressure", 80)
            database.commit_record(record)
            counts.append(TestQueryTouch.engine_acquisitions(
                database, lambda: database.get_record("fluid", KEY)))

        fluid_gbo.add_unit("u", read_fn)
        fluid_gbo.wait_unit("u")
        assert counts == [0]

    def test_touch_after_finish_keeps_lru_order(self, fluid_gbo):
        """Units finished a, b, then a query of a: a is most recent."""
        def read_fn(database, name):
            record = database.new_record("fluid")
            record.field("block id").write(name.ljust(11).encode())
            record.field("time-step id").write(KEY[1])
            database.commit_record(record)

        for name in ("a", "b"):
            fluid_gbo.add_unit(name, read_fn)
            fluid_gbo.wait_unit(name)
        fluid_gbo.get_record("fluid", [b"a".ljust(11), KEY[1]])   # pinned
        fluid_gbo.finish_unit("a")
        fluid_gbo.finish_unit("b")
        assert fluid_gbo.memory_report()["evictable_units"] == ["a", "b"]
        fluid_gbo.get_record("fluid", [b"a".ljust(11), KEY[1]])
        assert fluid_gbo.memory_report()["evictable_units"] == ["b", "a"]


@pytest.fixture
def fluid_gbo_factory():
    made = []

    def make(background_io):
        gbo = GBO(mem_mb=16, background_io=background_io)
        gbo.define_field("block id", DataType.STRING, 11)
        gbo.define_field("time-step id", DataType.STRING, 9)
        gbo.define_field("pressure", DataType.DOUBLE)
        gbo.ensure_record_type("fluid", 2, [("block id", True),
                                            ("time-step id", True),
                                            ("pressure", False)])
        made.append(gbo)
        return gbo

    yield make
    for gbo in made:
        gbo.close()
