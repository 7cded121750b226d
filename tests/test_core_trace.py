"""Unit-lifecycle tracing through the GBO event hook."""

import pytest

from repro.core.database import GBO
from repro.core.schema import RecordSchema, SchemaField
from repro.core.trace import UnitTimeline, UnitTracer
from repro.core.types import DataType

ITEM = RecordSchema("item", (
    SchemaField("id", DataType.STRING, 8, is_key=True),
    SchemaField("data", DataType.DOUBLE),
))


def reader(nbytes=400):
    def read_fn(gbo, unit_name):
        ITEM.ensure(gbo)
        record = gbo.new_record("item")
        record.field("id").write(unit_name.ljust(8)[:8].encode())
        gbo.alloc_field_buffer(record, "data", nbytes)
        gbo.commit_record(record)

    return read_fn


class TestUnitTimeline:
    def test_pairs_and_counters(self):
        timeline = UnitTimeline("u", events=[
            ("added", 0.0),
            ("read_started", 1.0),
            ("loaded", 3.0),
            ("finished", 4.0),
            ("evicted", 10.0),
            ("added", 11.0),
            ("read_started", 11.5),
            ("loaded", 12.5),
            ("deleted", 20.0),
        ])
        assert timeline.queued_seconds == pytest.approx(1.5)
        assert timeline.read_seconds == pytest.approx(3.0)
        assert timeline.loads == 2
        assert timeline.evictions == 1
        assert timeline.resident_seconds() == pytest.approx(
            (10.0 - 3.0) + (20.0 - 12.5)
        )
        assert not timeline.failed

    def test_still_resident_uses_now(self):
        timeline = UnitTimeline("u", events=[
            ("added", 0.0), ("read_started", 0.0), ("loaded", 2.0),
        ])
        assert timeline.resident_seconds(now=5.0) == pytest.approx(3.0)


class TestUnitTracer:
    def test_rejects_unknown_event(self):
        tracer = UnitTracer()
        with pytest.raises(ValueError):
            tracer("teleported", "u", 0.0)

    def test_unknown_unit_lookup(self):
        with pytest.raises(KeyError):
            UnitTracer().timeline("ghost")

    def test_full_lifecycle_through_gbo(self):
        ticks = {"now": 0.0}
        tracer = UnitTracer()
        gbo = GBO(mem_mb=8, background_io=False,
                  clock=lambda: ticks["now"], unit_event_hook=tracer)

        def timed_read(g, name):
            ticks["now"] += 2.0
            reader()(g, name)

        gbo.add_unit("u0", timed_read)
        ticks["now"] += 1.0     # sits queued for 1 s
        gbo.wait_unit("u0")
        ticks["now"] += 5.0     # processed for 5 s
        gbo.finish_unit("u0")
        gbo.delete_unit("u0")
        gbo.close()

        timeline = tracer.timeline("u0")
        names = [name for name, _t in timeline.events]
        assert names == [
            "added", "read_started", "loaded", "finished", "deleted"
        ]
        assert timeline.queued_seconds == pytest.approx(1.0)
        assert timeline.read_seconds == pytest.approx(2.0)
        assert timeline.resident_seconds() == pytest.approx(5.0)

    def test_eviction_and_reload_events(self):
        tracer = UnitTracer()
        with GBO(mem=5000, background_io=False,
                 unit_event_hook=tracer) as gbo:
            for i in range(4):
                gbo.add_unit(f"u{i}", reader(nbytes=2000))
                gbo.wait_unit(f"u{i}")
                gbo.finish_unit(f"u{i}")
            gbo.wait_unit("u0")   # reload after eviction
            names = [n for n, _t in tracer.timeline("u0").events]
            assert "evicted" in names
            assert names.count("loaded") == 2
            assert tracer.timeline("u0").evictions == 1

    def test_failed_event(self):
        tracer = UnitTracer()
        from repro.errors import ReadFunctionError

        with GBO(mem_mb=8, background_io=False,
                 unit_event_hook=tracer) as gbo:
            def broken(g, name):
                raise IOError("nope")

            with pytest.raises(ReadFunctionError):
                gbo.read_unit("bad", broken)
            assert tracer.timeline("bad").failed

    def test_totals_and_report(self):
        tracer = UnitTracer()
        with GBO(mem_mb=8, background_io=False,
                 unit_event_hook=tracer) as gbo:
            for i in range(3):
                gbo.add_unit(f"u{i}", reader())
                gbo.wait_unit(f"u{i}")
                gbo.delete_unit(f"u{i}")
        totals = tracer.totals()
        assert totals["units"] == 3
        assert totals["loads"] == 3
        report = tracer.report()
        assert len(report) == 3
        assert report[0].startswith("u0:")

    def test_tracer_with_background_thread(self):
        tracer = UnitTracer()
        with GBO(mem_mb=8, unit_event_hook=tracer) as gbo:
            for i in range(3):
                gbo.add_unit(f"u{i}", reader())
            for i in range(3):
                gbo.wait_unit(f"u{i}")
                gbo.delete_unit(f"u{i}")
        assert tracer.totals()["loads"] == 3
        for name in ("u0", "u1", "u2"):
            events = [n for n, _t in tracer.timeline(name).events]
            assert events[0] == "added"
            assert "loaded" in events
            assert events[-1] == "deleted"
