"""The I/O worker pool: priorities, boosts, cancellation, handles,
per-worker accounting, and the mem= budget spellings."""

import threading
import time

import pytest

from repro.core.database import GBO
from repro.core.memory import MB, parse_mem
from repro.core.schema import RecordSchema, SchemaField
from repro.core.trace import UnitTracer
from repro.core.types import DataType
from repro.core.units import UnitHandle, UnitState
from repro.errors import UnknownUnitError

ITEM = RecordSchema("item", (
    SchemaField("id", DataType.STRING, 8, is_key=True),
    SchemaField("data", DataType.DOUBLE),
))


def reader(nbytes=800, delay=0.0, log=None, gate=None):
    def read_fn(gbo, unit_name):
        if gate is not None:
            gate.wait(timeout=5.0)
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


def add_gate_unit(gbo, gate, log=None):
    """Occupy the (single) worker with a gated read so later add_unit
    calls stack up in the queue and their priorities decide the order."""
    gbo.add_unit("gate", reader(gate=gate, log=log))
    assert wait_for(
        lambda: gbo.unit_state("gate") is UnitState.READING
    )


class TestMemSpellings:
    def test_parse_mem(self):
        assert parse_mem("384MB") == 384 * MB
        assert parse_mem("1.5GB") == int(1.5 * 1024 * MB)
        assert parse_mem("4096 KB") == 4096 * 1024
        assert parse_mem("512B") == 512
        assert parse_mem("1048576") == MB
        assert parse_mem(2 * MB) == 2 * MB          # int = bytes
        assert parse_mem(2.0) == 2 * MB             # float = MB
        with pytest.raises(ValueError):
            parse_mem("lots")
        with pytest.raises(TypeError):
            parse_mem(True)
        with pytest.raises(TypeError):
            parse_mem(None)

    def test_constructor_spellings_agree(self):
        for kwargs in (
            {"mem": "8MB"}, {"mem": 8 * MB}, {"mem": 8.0},
            {"mem_mb": 8},
        ):
            with GBO(**kwargs) as gbo:
                assert gbo.mem_budget_bytes == 8 * MB, kwargs

    def test_exactly_one_spelling_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            GBO()
        with pytest.raises(ValueError, match="exactly one"):
            GBO(mem="8MB", mem_mb=8)
        with pytest.raises(ValueError, match="exactly one"):
            GBO(mem_mb=8, mem=8 * MB)

    def test_set_mem_space_spellings(self):
        with GBO(mem="8MB") as gbo:
            gbo.set_mem_space(16)               # positional = MB (paper)
            assert gbo.mem_budget_bytes == 16 * MB
            gbo.set_mem_space(mem="4MB")
            assert gbo.mem_budget_bytes == 4 * MB
            gbo.set_mem_space(mem=MB)
            assert gbo.mem_budget_bytes == MB
            with pytest.raises(ValueError, match="exactly one"):
                gbo.set_mem_space(8, mem="8MB")


class TestWorkerPool:
    def test_io_workers_property(self):
        with GBO(mem="8MB", io_workers=3) as gbo:
            assert gbo.io_workers == 3
            assert gbo.background_io
        with GBO(mem="8MB", background_io=False) as gbo:
            assert gbo.io_workers == 0
            assert not gbo.background_io

    def test_io_workers_validation(self):
        with pytest.raises(ValueError, match="io_workers"):
            GBO(mem="8MB", io_workers=0)

    def test_pool_loads_all_units(self):
        with GBO(mem="8MB", io_workers=4) as gbo:
            for i in range(12):
                gbo.add_unit(f"u{i}", reader(delay=0.01))
            assert wait_for(lambda: gbo.stats.units_prefetched == 12)
            for i in range(12):
                assert gbo.is_resident(f"u{i}")

    def test_pool_overlaps_slow_reads(self):
        """Four workers drain four slow reads ~concurrently."""
        with GBO(mem="8MB", io_workers=4) as gbo:
            t0 = time.perf_counter()
            for i in range(4):
                gbo.add_unit(f"u{i}", reader(delay=0.15))
            for i in range(4):
                gbo.wait_unit(f"u{i}")
            elapsed = time.perf_counter() - t0
            # Serial would be >= 0.6 s; parallel sleeps overlap.
            assert elapsed < 0.45

    def test_worker_report_accounts_loads(self):
        with GBO(mem="8MB", io_workers=2) as gbo:
            for i in range(8):
                gbo.add_unit(f"u{i}", reader(delay=0.02))
            assert wait_for(lambda: gbo.stats.units_prefetched == 8)
            report = gbo.worker_report()
            assert [r["worker"] for r in report] == [0, 1]
            assert sum(r["units_loaded"] for r in report) == 8
            assert all(r["read_seconds"] >= 0.0 for r in report)

    def test_queue_depth_stats(self):
        gate = threading.Event()
        with GBO(mem="8MB", io_workers=1) as gbo:
            for i in range(6):
                gbo.add_unit(f"u{i}", reader(gate=gate))
            # The worker may claim the first unit between adds, so the
            # observed peak is 6, or 5 if it got in early.
            assert gbo.stats.queue_depth_peak >= 5
            assert gbo.queue_depth >= 5   # one may be claimed already
            gate.set()
            assert wait_for(lambda: gbo.queue_depth == 0)


class TestPriorities:
    def test_priority_orders_prefetch(self):
        log = []
        gate = threading.Event()
        with GBO(mem="8MB", io_workers=1) as gbo:
            # A gated unit holds the single worker while the real test
            # units queue up, so their priorities decide the order.
            add_gate_unit(gbo, gate, log=log)
            gbo.add_unit("low", reader(log=log), priority=0.0)
            gbo.add_unit("high", reader(log=log), priority=5.0)
            gbo.add_unit("mid", reader(log=log), priority=1.0)
            gbo.add_unit("low2", reader(log=log), priority=0.0)
            gate.set()
            assert wait_for(lambda: len(log) == 5)
            assert log == ["gate", "high", "mid", "low", "low2"]

    def test_wait_boosts_to_front(self):
        log = []
        gate = threading.Event()
        with GBO(mem="8MB", io_workers=1) as gbo:
            add_gate_unit(gbo, gate, log=log)
            gbo.add_unit("a", reader(log=log), priority=9.0)
            gbo.add_unit("b", reader(log=log), priority=9.0)
            wanted = gbo.add_unit("wanted", reader(log=log), priority=0.0)
            waiter = threading.Thread(target=wanted.wait)
            waiter.start()
            assert wait_for(lambda: gbo.stats.wait_boosts == 1)
            gate.set()
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
            assert wait_for(lambda: len(log) == 4)
            assert log == ["gate", "wanted", "a", "b"]

    def test_set_unit_priority_reorders_queue(self):
        log = []
        gate = threading.Event()
        with GBO(mem="8MB", io_workers=1) as gbo:
            add_gate_unit(gbo, gate, log=log)
            gbo.add_unit("a", reader(log=log))
            gbo.add_unit("b", reader(log=log))
            assert gbo.unit_priority("b") == 0.0
            gbo.set_unit_priority("b", 10.0)
            assert gbo.unit_priority("b") == 10.0
            gate.set()
            assert wait_for(lambda: len(log) == 3)
            assert log == ["gate", "b", "a"]

    def test_unit_priority_unknown(self):
        with GBO(mem="8MB") as gbo:
            with pytest.raises(UnknownUnitError):
                gbo.unit_priority("ghost")
            with pytest.raises(UnknownUnitError):
                gbo.set_unit_priority("ghost", 1.0)


class TestCancellation:
    def test_cancel_queued_unit(self):
        gate = threading.Event()
        events = []
        tracer = UnitTracer()

        def hook(event, name, now):
            events.append((event, name))
            tracer(event, name, now)

        with GBO(mem="8MB", io_workers=1,
                 unit_event_hook=hook) as gbo:
            add_gate_unit(gbo, gate)
            victim = gbo.add_unit("victim", reader())
            assert victim.cancel() is True
            assert victim.state is UnitState.DELETED
            assert gbo.stats.units_cancelled == 1
            assert ("cancelled", "victim") in events
            gate.set()
            assert wait_for(lambda: gbo.stats.units_prefetched == 1)
            # The cancelled unit never loaded.
            assert not any(
                event == "loaded" and name == "victim"
                for event, name in events
            )

    def test_cancel_after_read_started_returns_false(self):
        with GBO(mem="8MB", io_workers=1) as gbo:
            handle = gbo.add_unit("u0", reader())
            handle.wait()
            assert handle.cancel() is False
            assert handle.is_resident

    def test_cancel_unknown_unit(self):
        with GBO(mem="8MB") as gbo:
            with pytest.raises(UnknownUnitError):
                gbo.cancel_unit("ghost")

    def test_cancelled_unit_can_be_re_added(self):
        gate = threading.Event()
        with GBO(mem="8MB", io_workers=1) as gbo:
            add_gate_unit(gbo, gate)
            gbo.add_unit("u0", reader())
            assert gbo.cancel_unit("u0") is True
            handle = gbo.add_unit("u0", reader())
            gate.set()
            handle.wait()
            assert handle.is_resident


class TestUnitHandles:
    def test_add_unit_returns_handle(self):
        with GBO(mem="8MB") as gbo:
            handle = gbo.add_unit("u0", reader())
            assert isinstance(handle, UnitHandle)
            assert handle.name == "u0"
            assert handle.wait() is handle     # chainable
            assert handle.is_resident
            assert handle.state is UnitState.RESIDENT
            assert handle.resident_bytes > 0
            handle.finish()
            handle.delete()
            assert handle.state is UnitState.DELETED

    def test_handle_priority_property(self):
        gate = threading.Event()
        with GBO(mem="8MB", io_workers=1) as gbo:
            add_gate_unit(gbo, gate)
            handle = gbo.add_unit("u0", reader(), priority=2.0)
            assert handle.priority == 2.0
            handle.priority = 7.0
            assert handle.priority == 7.0
            assert gbo.unit_priority("u0") == 7.0
            gate.set()

    def test_handle_read_foreground(self):
        with GBO(mem="8MB", background_io=False) as gbo:
            handle = gbo.add_unit("u0", reader())
            handle.read()
            assert handle.is_resident

    def test_gbo_unit_lookup(self):
        with GBO(mem="8MB") as gbo:
            gbo.add_unit("u0", reader())
            handle = gbo.unit("u0")
            assert handle == gbo.unit("u0")
            assert hash(handle) == hash(gbo.unit("u0"))
            with pytest.raises(UnknownUnitError):
                gbo.unit("ghost")

    def test_handles_in_example_style(self):
        """The quickstart pattern: add, wait, process, delete."""
        with GBO("8MB") as gbo:
            first = gbo.add_unit("file1", reader(), priority=1.0)
            second = gbo.add_unit("file2", reader())
            first.wait()
            first.delete()
            second.wait()
            second.finish()
            assert second.state is UnitState.RESIDENT


class TestWaitHistogram:
    def test_wait_samples_recorded(self):
        with GBO(mem="8MB", io_workers=1) as gbo:
            gbo.add_unit("u0", reader(delay=0.05))
            gbo.wait_unit("u0")
            stats = gbo.stats
            assert len(stats.wait_samples) == 1
            histogram = stats.wait_time_histogram()
            assert sum(histogram.values()) == 1
            snap = stats.snapshot()
            assert snap["wait_count"] == 1
            assert snap["wait_max_seconds"] >= snap["wait_mean_seconds"]
            assert "wait_samples" not in snap

    def test_hits_record_no_sample(self):
        with GBO(mem="8MB", io_workers=1) as gbo:
            handle = gbo.add_unit("u0", reader()).wait()
            handle.finish()
            gbo.wait_unit("u0")   # resident: pure hit
            assert gbo.stats.wait_hits == 1
            assert len(gbo.stats.wait_samples) == 1
