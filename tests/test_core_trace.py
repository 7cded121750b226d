"""Unit-lifecycle events through the GBO's ``unit_event_hook``.

The hook is the observability seam: the GBO calls ``hook(event,
unit_name, now)`` on every unit transition, under the engine lock. These
tests record with a list-appending hook and check the event contract.
"""

import pytest

from repro.core.database import GBO
from repro.core.schema import RecordSchema, SchemaField
from repro.core.types import DataType
from repro.errors import ReadFunctionError

#: Every unit event the GBO emits, in lifecycle order. ``boosted`` fires
#: when ``wait_unit`` promotes a queued unit; ``cancelled`` when
#: ``cancel_unit`` removes one before its read; the ``derived_*`` events
#: trace the derived-data cache.
EVENTS = ("added", "boosted", "read_started", "loaded", "finished",
          "evicted", "deleted", "failed", "cancelled",
          "derived_cached", "derived_hit", "derived_evicted")

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


class Recorder(list):
    """A hook that appends ``(event, unit_name, now)``."""

    def __call__(self, event, unit_name, now):
        self.append((event, unit_name, now))

    def of(self, unit_name):
        """``(event, now)`` pairs of one unit, in order."""
        return [(event, now) for event, name, now in self
                if name == unit_name]

    def names(self, unit_name):
        return [event for event, _now in self.of(unit_name)]


def assert_known_events(recorder):
    assert {event for event, _name, _now in recorder} <= set(EVENTS)


class TestUnitTracer:
    def test_full_lifecycle_through_gbo(self):
        ticks = {"now": 0.0}
        hook = Recorder()
        gbo = GBO(mem_mb=8, background_io=False,
                  clock=lambda: ticks["now"], unit_event_hook=hook)

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

        assert hook.of("u0") == [
            ("added", 0.0), ("read_started", 1.0), ("loaded", 3.0),
            ("finished", 8.0), ("deleted", 8.0),
        ]
        assert_known_events(hook)

    def test_eviction_and_reload_events(self):
        hook = Recorder()
        with GBO(mem=5000, background_io=False,
                 unit_event_hook=hook) as gbo:
            for i in range(4):
                gbo.add_unit(f"u{i}", reader(nbytes=2000))
                gbo.wait_unit(f"u{i}")
                gbo.finish_unit(f"u{i}")
            gbo.wait_unit("u0")   # reload after eviction
            names = hook.names("u0")
            assert names.count("evicted") == 1
            assert names.count("loaded") == 2
            assert names.index("evicted") < len(names) - 1 - \
                names[::-1].index("loaded")
        assert_known_events(hook)

    def test_failed_event(self):
        hook = Recorder()
        with GBO(mem_mb=8, background_io=False,
                 unit_event_hook=hook) as gbo:
            def broken(g, name):
                raise IOError("nope")

            with pytest.raises(ReadFunctionError):
                gbo.read_unit("bad", broken)
            assert "failed" in hook.names("bad")
            assert "loaded" not in hook.names("bad")
        assert_known_events(hook)

    def test_tracer_with_background_thread(self):
        hook = Recorder()
        with GBO(mem_mb=8, unit_event_hook=hook) as gbo:
            for i in range(3):
                gbo.add_unit(f"u{i}", reader())
            for i in range(3):
                gbo.wait_unit(f"u{i}")
                gbo.delete_unit(f"u{i}")
        assert sum(event == "loaded" for event, _n, _t in hook) == 3
        for name in ("u0", "u1", "u2"):
            events = hook.names(name)
            assert events[0] == "added"
            assert "loaded" in events
            assert events[-1] == "deleted"
        assert_known_events(hook)
