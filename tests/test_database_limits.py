"""Memory-budget errors, deadlock detection, close semantics (section 3.3)."""

import time

import pytest

from repro.core.database import GBO
from repro.core.schema import RecordSchema, SchemaField
from repro.core.types import DataType
from repro.errors import (
    DatabaseClosedError,
    GodivaDeadlockError,
    MemoryBudgetError,
)

ITEM = RecordSchema("item", (
    SchemaField("id", DataType.STRING, 8, is_key=True),
    SchemaField("data", DataType.DOUBLE),
))


def reader(nbytes):
    def read_fn(gbo, unit_name):
        ITEM.ensure(gbo)
        record = gbo.new_record("item")
        record.field("id").write(unit_name.ljust(8)[:8].encode())
        gbo.alloc_field_buffer(record, "data", nbytes)
        gbo.commit_record(record)

    return read_fn


class TestMemoryBudget:
    def test_allocation_larger_than_budget_raises(self, gbo_single):
        ITEM.ensure(gbo_single)
        record = gbo_single.new_record("item")
        too_big = gbo_single.mem_budget_bytes + 8
        with pytest.raises(MemoryBudgetError, match="exceeds the total"):
            gbo_single.alloc_field_buffer(record, "data", too_big)

    def test_main_thread_alloc_with_nothing_evictable_raises(self):
        with GBO(mem=4096, background_io=False) as gbo:
            ITEM.ensure(gbo)
            first = gbo.new_record("item")
            gbo.alloc_field_buffer(first, "data", 3000)
            second = gbo.new_record("item")
            with pytest.raises(MemoryBudgetError,
                               match="no finished unit is evictable"):
                gbo.alloc_field_buffer(second, "data", 3000)

    def test_alloc_succeeds_after_eviction(self):
        """When a finished unit is evictable, allocation reclaims it."""
        with GBO(mem=6000, background_io=False) as gbo:
            gbo.add_unit("old", reader(4000))
            gbo.wait_unit("old")
            gbo.finish_unit("old")
            # Unattached allocation forces eviction of "old".
            record = gbo.new_record("item")
            gbo.alloc_field_buffer(record, "data", 4000)
            from repro.core.units import UnitState

            assert gbo.unit_state("old") is UnitState.EVICTED

    def test_shrinking_budget_evicts_finished_units(self):
        with GBO(mem=10_000, background_io=False) as gbo:
            gbo.add_unit("u", reader(4000))
            gbo.wait_unit("u")
            gbo.finish_unit("u")
            gbo.set_mem_space(mem=1000)
            from repro.core.units import UnitState

            assert gbo.unit_state("u") is UnitState.EVICTED
            assert gbo.mem_used_bytes == 0


class TestDeadlockDetection:
    def test_deadlock_when_nothing_is_finished(self):
        """The paper's scenario: the developer neglects finish/delete;
        the main thread waits for a unit the blocked I/O thread can
        never load. GODIVA must detect this rather than hang."""
        unit_bytes = 2048
        budget = 2 * (unit_bytes + 512)
        with GBO(mem=budget) as gbo:
            for i in range(5):
                gbo.add_unit(f"u{i}", reader(unit_bytes))
            gbo.wait_unit("u0")
            gbo.wait_unit("u1")
            # Never finished/deleted: u4 can never become resident.
            with pytest.raises(GodivaDeadlockError,
                               match="finish_unit/delete_unit"):
                gbo.wait_unit("u4")

    def test_no_false_deadlock_with_well_behaved_app(self):
        """The same tight budget works when units are deleted."""
        unit_bytes = 2048
        budget = 2 * (unit_bytes + 512)
        with GBO(mem=budget) as gbo:
            for i in range(5):
                gbo.add_unit(f"u{i}", reader(unit_bytes))
            for i in range(5):
                gbo.wait_unit(f"u{i}")
                gbo.delete_unit(f"u{i}")
            assert gbo.stats.units_prefetched == 5


class TestCloseSemantics:
    def test_close_is_idempotent(self):
        gbo = GBO(mem_mb=1)
        gbo.close()
        gbo.close()
        assert gbo.closed

    def test_operations_after_close_raise(self):
        gbo = GBO(mem_mb=1)
        gbo.close()
        with pytest.raises(DatabaseClosedError):
            gbo.add_unit("u", reader(8))
        with pytest.raises(DatabaseClosedError):
            gbo.define_field("f", DataType.DOUBLE, 8)
        with pytest.raises(DatabaseClosedError):
            gbo.set_mem_space(mem_mb=2)

    def test_context_manager_closes(self):
        with GBO(mem_mb=1) as gbo:
            pass
        assert gbo.closed

    def test_close_with_queued_units(self):
        """Close terminates the I/O thread even with pending work."""
        gbo = GBO(mem_mb=8)
        def slow(g, name):
            time.sleep(0.05)
            reader(80)(g, name)

        for i in range(10):
            gbo.add_unit(f"u{i}", slow)
        gbo.close()   # must not hang
        assert gbo.closed

    def test_close_releases_all_memory(self):
        gbo = GBO(mem_mb=8)
        gbo.add_unit("u", reader(4000))
        gbo.wait_unit("u")
        gbo.close()
        # internal accountant is cleared with the records
        assert gbo.record_count is not None  # object still introspectable


class TestClockInjection:
    def test_injected_clock_drives_stats(self):
        ticks = {"now": 0.0}

        def clock():
            return ticks["now"]

        gbo = GBO(mem_mb=8, background_io=False, clock=clock)

        def timed_read(g, name):
            ticks["now"] += 2.0
            reader(80)(g, name)

        gbo.add_unit("u", timed_read)
        gbo.wait_unit("u")
        assert gbo.stats.foreground_read_seconds == pytest.approx(2.0)
        assert gbo.stats.visible_io_seconds == pytest.approx(2.0)
        gbo.close()
