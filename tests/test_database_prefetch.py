"""Background prefetching, caching, eviction and reload (sections 3.2-3.3)."""

import threading
import time

import pytest

from repro.core.database import GBO
from repro.core.schema import RecordSchema, SchemaField
from repro.core.types import DataType
from repro.core.units import UnitState

ITEM = RecordSchema("item", (
    SchemaField("id", DataType.STRING, 8, is_key=True),
    SchemaField("data", DataType.DOUBLE),
))


def reader(nbytes=800, delay=0.0, log=None):
    def read_fn(gbo, unit_name):
        if delay:
            time.sleep(delay)
        if log is not None:
            log.append(unit_name)
        ITEM.ensure(gbo)
        record = gbo.new_record("item")
        record.field("id").write(unit_name.ljust(8)[:8].encode())
        gbo.alloc_field_buffer(record, "data", nbytes)
        record.field("data").as_array()[:] = 2.5
        gbo.commit_record(record)

    return read_fn


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestBackgroundPrefetch:
    def test_units_prefetched_without_waiting(self):
        """addUnit alone triggers background loading."""
        with GBO(mem_mb=8) as gbo:
            for i in range(3):
                gbo.add_unit(f"u{i}", reader())
            assert wait_for(
                lambda: gbo.stats.units_prefetched == 3
            )
            for i in range(3):
                assert gbo.is_resident(f"u{i}")

    def test_prefetch_order_is_fifo(self):
        log = []
        with GBO(mem_mb=8) as gbo:
            for i in range(5):
                gbo.add_unit(f"u{i}", reader(log=log))
            assert wait_for(lambda: len(log) == 5)
            assert log == [f"u{i}" for i in range(5)]

    def test_wait_returns_after_prefetch(self):
        with GBO(mem_mb=8) as gbo:
            gbo.add_unit("u0", reader(delay=0.05))
            gbo.wait_unit("u0")
            assert gbo.is_resident("u0")
            assert gbo.stats.wait_misses == 1

    def test_overlap_happens_while_main_computes(self):
        """While the main thread is busy, later units arrive in the
        background — the essence of TG."""
        with GBO(mem_mb=8) as gbo:
            for i in range(3):
                gbo.add_unit(f"u{i}", reader(delay=0.02))
            gbo.wait_unit("u0")
            time.sleep(0.2)   # "computation" on u0
            hits_before = gbo.stats.wait_hits
            gbo.wait_unit("u1")
            gbo.wait_unit("u2")
            assert gbo.stats.wait_hits == hits_before + 2

    def test_delete_queued_before_prefetch(self):
        """deleteUnit on a queued unit cancels its prefetch."""
        log = []
        with GBO(mem_mb=8) as gbo:
            gbo.add_unit("slow", reader(delay=0.1, log=log))
            gbo.add_unit("victim", reader(log=log))
            gbo.delete_unit("victim")
            gbo.wait_unit("slow")
            time.sleep(0.05)
            assert log == ["slow"]
            assert gbo.unit_state("victim") is UnitState.DELETED

    def test_delete_while_reading_is_deferred(self):
        """deleteUnit on a mid-read unit is honoured when the read
        callback returns."""
        started = threading.Event()

        def slow_read(gbo, unit_name):
            started.set()
            time.sleep(0.1)
            reader()(gbo, unit_name)

        with GBO(mem_mb=8) as gbo:
            gbo.add_unit("u", slow_read)
            assert started.wait(timeout=5.0)
            gbo.delete_unit("u")
            assert wait_for(
                lambda: gbo.unit_state("u") is UnitState.DELETED
            )
            assert gbo.record_count("item") == 0
            assert gbo.mem_used_bytes == 0


class TestEvictionAndReload:
    def test_lru_eviction_under_pressure(self):
        """Finished units are evicted LRU-first when memory runs low."""
        unit_bytes = 2000
        budget = 3 * (unit_bytes + 200)
        with GBO(mem=budget, background_io=False) as gbo:
            for i in range(6):
                gbo.add_unit(f"u{i}", reader(nbytes=unit_bytes))
            for i in range(6):
                gbo.wait_unit(f"u{i}")
                gbo.finish_unit(f"u{i}")
            assert gbo.stats.evictions >= 3
            # Oldest units evicted; the most recent survive.
            assert gbo.unit_state("u0") is UnitState.EVICTED
            assert gbo.unit_state("u5") is UnitState.RESIDENT

    def test_evicted_unit_records_unqueryable(self):
        with GBO(mem=5000, background_io=False) as gbo:
            for i in range(4):
                gbo.add_unit(f"u{i}", reader(nbytes=2000))
                gbo.wait_unit(f"u{i}")
                gbo.finish_unit(f"u{i}")
            from repro.errors import KeyLookupError

            assert gbo.unit_state("u0") is UnitState.EVICTED
            with pytest.raises(KeyLookupError):
                gbo.get_field_buffer("item", "data", [b"u0      "])

    def test_wait_reloads_evicted_unit(self):
        """wait_unit on an evicted unit transparently re-fetches it."""
        with GBO(mem=5000, background_io=False) as gbo:
            for i in range(4):
                gbo.add_unit(f"u{i}", reader(nbytes=2000))
                gbo.wait_unit(f"u{i}")
                gbo.finish_unit(f"u{i}")
            assert gbo.unit_state("u0") is UnitState.EVICTED
            gbo.wait_unit("u0")
            assert gbo.is_resident("u0")
            assert gbo.stats.units_reloaded >= 1
            data = gbo.get_field_buffer("item", "data", [b"u0      "])
            assert (data == 2.5).all()

    def test_multithread_wait_reloads_evicted_unit(self):
        with GBO(mem=5000) as gbo:
            for i in range(4):
                gbo.add_unit(f"u{i}", reader(nbytes=2000))
                gbo.wait_unit(f"u{i}")
                gbo.finish_unit(f"u{i}")
            assert wait_for(
                lambda: gbo.unit_state("u0") is UnitState.EVICTED
            )
            gbo.wait_unit("u0")
            assert gbo.is_resident("u0")

    def test_query_touch_protects_hot_unit(self):
        """Touching a finished unit's records updates LRU recency, so
        the hot unit survives eviction."""
        with GBO(mem=7000, background_io=False) as gbo:
            for i in range(3):
                gbo.add_unit(f"u{i}", reader(nbytes=2000))
                gbo.wait_unit(f"u{i}")
                gbo.finish_unit(f"u{i}")
            # u0 is LRU; touch it via a query.
            gbo.get_field_buffer("item", "data", [b"u0      "])
            # Loading one more unit forces one eviction: u1 must go.
            gbo.add_unit("u3", reader(nbytes=2000))
            gbo.wait_unit("u3")
            assert gbo.unit_state("u1") is UnitState.EVICTED
            assert gbo.unit_state("u0") is UnitState.RESIDENT

    def test_io_thread_blocks_then_resumes_on_finish(self):
        """Prefetch outrunning the consumer blocks on memory and resumes
        when the application finishes a unit (section 3.2)."""
        unit_bytes = 2000
        budget = 2 * (unit_bytes + 200)
        with GBO(mem=budget) as gbo:
            for i in range(4):
                gbo.add_unit(f"u{i}", reader(nbytes=unit_bytes))
            gbo.wait_unit("u0")
            # u1 prefetches; u2 must block on memory.
            assert wait_for(lambda: gbo.is_resident("u1"))
            time.sleep(0.05)
            assert not gbo.is_resident("u2")
            gbo.finish_unit("u0")   # eviction candidate appears
            gbo.wait_unit("u2")     # unblocks the I/O thread
            assert gbo.is_resident("u2")
            assert gbo.stats.io_thread_blocked_seconds > 0.0
