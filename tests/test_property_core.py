"""Property-based tests for the GODIVA core (hypothesis).

A stateful machine drives a single-thread GBO through the full unit
lifecycle against a reference model of states, reference counts, LRU
order, counters and unit events; separate properties cover key
normalization and record round-trips with random schemas.
"""

from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.database import GBO
from repro.core.index import normalize_key_values
from repro.core.memory import RECORD_OVERHEAD_BYTES
from repro.core.schema import RecordSchema, SchemaField
from repro.core.types import DataType
from repro.core.units import UnitState
from repro.errors import ReadFunctionError, UnitStateError, UnknownUnitError

ITEM = RecordSchema("item", (
    SchemaField("id", DataType.STRING, 12, is_key=True),
    SchemaField("data", DataType.DOUBLE),
))


@given(st.lists(st.one_of(
    st.binary(max_size=16),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=16),
)))
def test_key_normalization_stable(values):
    normalized = normalize_key_values(values)
    assert normalize_key_values(normalized) == normalized
    assert all(isinstance(v, bytes) for v in normalized)


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=64).map(lambda n: n * 8),
        min_size=1, max_size=6,
    ),
)
def test_record_roundtrip_random_buffer_sizes(sizes):
    """Allocate random-size buffers, fill with known data, read back."""
    with GBO(mem_mb=4, background_io=False) as gbo:
        fields = [SchemaField("key", DataType.STRING, 4, is_key=True)]
        fields += [
            SchemaField(f"f{i}", DataType.DOUBLE)
            for i in range(len(sizes))
        ]
        RecordSchema("rec", tuple(fields)).ensure(gbo)
        record = gbo.new_record("rec")
        record.field("key").write(b"K001")
        payloads = {}
        for i, nbytes in enumerate(sizes):
            gbo.alloc_field_buffer(record, f"f{i}", nbytes)
            data = np.arange(nbytes // 8, dtype="<f8") * (i + 1)
            record.field(f"f{i}").write(data)
            payloads[f"f{i}"] = data
        gbo.commit_record(record)
        for name, data in payloads.items():
            back = gbo.get_field_buffer("rec", name, [b"K001"])
            assert np.array_equal(back, data)
            assert gbo.get_field_buffer_size(
                "rec", name, [b"K001"]
            ) == data.nbytes


#: Bytes one machine unit charges: its 12-byte key field, the record
#: overhead and the 64-byte ``data`` buffer the read callback allocates.
UNIT_BYTES = 12 + RECORD_OVERHEAD_BYTES + 64


class UnitModel:
    """Reference model of the single-thread unit lifecycle.

    Per unit: state, reference count, finished flag and the payload of
    its last load. Globally: the LRU order of evictable units (least
    recent first), the budget, the wait/eviction counters and the
    unit-event sequence the GBO must emit.
    """

    def __init__(self, budget):
        self.budget = budget
        self.units = {}
        self.lru = OrderedDict()
        self.events = []
        self.hits = self.misses = self.evictions = 0

    def used(self):
        return UNIT_BYTES * sum(
            u.state == "resident" for u in self.units.values())

    def _pin(self, name):
        self.hits += 1
        self.units[name].refs += 1
        self.lru.pop(name, None)
        return "ok"

    def _evict(self, name, deleting=False):
        unit = self.units[name]
        unit.state = "deleted" if deleting else "evicted"
        unit.refs, unit.finished = 0, False
        self.lru.pop(name, None)
        self.evictions += not deleting
        self.events.append(("deleted" if deleting else "evicted", name))

    def _load(self, name, value):
        unit = self.units[name]
        self.misses += 1
        self.events.append(("read_started", name))
        while self.used() + UNIT_BYTES > self.budget and self.lru:
            self._evict(self.lru.popitem(last=False)[0])
        if self.used() + UNIT_BYTES > self.budget:
            unit.state = "failed"
            self.events.append(("failed", name))
            return "failed"
        unit.state, unit.finished, unit.value = "resident", False, value
        unit.refs += 1
        self.events.append(("loaded", name))
        return "ok"

    def add(self, name):
        unit = self.units.get(name)
        if unit is not None and unit.state in ("queued", "resident"):
            return "state"
        self.units[name] = SimpleNamespace(
            state="queued", refs=0, finished=False, value=None)
        self.events.append(("added", name))
        return "ok"

    def wait(self, name, value):
        unit = self.units.get(name)
        if unit is None:
            return "unknown"
        if unit.state == "resident":
            return self._pin(name)
        if unit.state == "deleted":
            return "state"
        return self._load(name, value)

    def read(self, name, with_fn, value):
        unit = self.units.get(name)
        if unit is None:
            if not with_fn:
                return "unknown"
            self.units[name] = SimpleNamespace(
                state="queued", refs=0, finished=False, value=None)
        elif unit.state == "resident":
            return self._pin(name)
        return self._load(name, value)

    def try_wait(self, name):
        unit = self.units.get(name)
        return unit is not None and unit.state == "resident" \
            and self._pin(name) == "ok"

    def finish(self, name):
        unit = self.units.get(name)
        if unit is None:
            return "unknown"
        if unit.state != "resident":
            return "state"
        unit.finished = True
        unit.refs = max(unit.refs - 1, 0)
        self.events.append(("finished", name))
        if unit.refs == 0:
            self.lru[name] = None
            self.lru.move_to_end(name)
        return "ok"

    def delete(self, name):
        unit = self.units.get(name)
        if unit is None:
            return "unknown"
        if unit.state != "deleted":
            self._evict(name, deleting=True)
        return "ok"

    def cancel(self, name):
        unit = self.units.get(name)
        if unit is None:
            return "unknown"
        if unit.state != "queued":
            return False
        unit.state = "deleted"
        self.events.append(("cancelled", name))
        return True

    def set_budget(self, budget):
        self.budget = budget
        while self.used() > budget and self.lru:
            self._evict(self.lru.popitem(last=False)[0])

    def touch(self, name):
        if name in self.lru:
            self.lru.move_to_end(name)


_ERRORS = {"unknown": UnknownUnitError, "state": UnitStateError,
           "failed": ReadFunctionError}


class GboUnitMachine(RuleBasedStateMachine):
    """Random unit-lifecycle operations against :class:`UnitModel`.

    A single-thread GBO (every transition synchronous) with a budget of
    a few units, so finished, unreferenced units really are evicted in
    LRU order and loads fail once everything resident is pinned. After
    each step the unit states, the evictable set and its order, the
    bytes in use, the queue depth, the wait/eviction counters and the
    unit-event sequence must all equal the model's.
    """

    unit_names = st.sampled_from([f"u{i}" for i in range(6)])
    payloads = st.floats(0.0, 100.0)

    def __init__(self):
        super().__init__()
        self.events = []
        self.gbo = GBO(
            mem=3 * UNIT_BYTES, background_io=False,
            unit_event_hook=lambda event, name, _now:
                self.events.append((event, name)),
        )
        ITEM.ensure(self.gbo)
        self.model = UnitModel(3 * UNIT_BYTES)
        self.payload = {}

    def teardown(self):
        self.gbo.close()

    def _read_fn(self, gbo, unit_name):
        record = gbo.new_record("item")
        record.field("id").write(unit_name.ljust(12).encode())
        gbo.alloc_field_buffer(record, "data", 64)
        record.field("data").as_array()[:] = self.payload[unit_name]
        gbo.commit_record(record)

    def _value(self, name):
        return self.gbo.get_field_buffer(
            "item", "data", [name.ljust(12).encode()])[0]

    def _expect(self, outcome, call, *args):
        """Run ``call``; it must raise exactly when the model says so."""
        if outcome in _ERRORS:
            with pytest.raises(_ERRORS[outcome]):
                call(*args)
        else:
            call(*args)

    def _expect_pinned(self, outcome, call, name, *args):
        """As :meth:`_expect`; a unit it pins must hold the model's payload."""
        self._expect(outcome, call, name, *args)
        if outcome == "ok":
            assert self._value(name) == self.model.units[name].value

    @initialize(payloads=st.lists(payloads, min_size=6, max_size=6))
    def add_all(self, payloads):
        for index, payload in enumerate(payloads):
            self.add(f"u{index}", payload)

    @rule(name=unit_names, payload=payloads)
    def add(self, name, payload):
        outcome = self.model.add(name)
        if outcome == "ok":
            self.payload[name] = payload
        self._expect(outcome, self.gbo.add_unit, name, self._read_fn)

    @rule(name=unit_names)
    def wait(self, name):
        self._expect_pinned(self.model.wait(name, self.payload.get(name)),
                            self.gbo.wait_unit, name)

    @rule(name=unit_names, with_fn=st.booleans(), payload=payloads)
    def read(self, name, with_fn, payload):
        if with_fn:
            self.payload[name] = payload
        outcome = self.model.read(name, with_fn, self.payload.get(name))
        self._expect_pinned(outcome, self.gbo.read_unit, name,
                            self._read_fn if with_fn else None)

    @rule(name=unit_names)
    def try_wait(self, name):
        expected = self.model.try_wait(name)
        assert self.gbo.try_wait_unit(name) is expected

    @rule(name=unit_names)
    def finish(self, name):
        self._expect(self.model.finish(name), self.gbo.finish_unit, name)

    @rule(name=unit_names)
    def consume(self, name):
        """The application's loop body: wait, process, finish."""
        outcome = self.model.wait(name, self.payload.get(name))
        self._expect_pinned(outcome, self.gbo.wait_unit, name)
        if outcome == "ok":
            self._expect(self.model.finish(name), self.gbo.finish_unit, name)

    @rule(name=unit_names)
    def delete(self, name):
        self._expect(self.model.delete(name), self.gbo.delete_unit, name)

    @rule(name=unit_names)
    def cancel(self, name):
        outcome = self.model.cancel(name)
        if outcome == "unknown":
            self._expect(outcome, self.gbo.cancel_unit, name)
        else:
            assert self.gbo.cancel_unit(name) is outcome

    @rule(units=st.integers(2, 5))
    def set_mem_space(self, units):
        self.model.set_budget(units * UNIT_BYTES)
        self.gbo.set_mem_space(mem=units * UNIT_BYTES)

    @rule(name=unit_names)
    def query(self, name):
        unit = self.model.units.get(name)
        if unit is None or unit.state != "resident":
            assert not self.gbo.has_record(
                "item", [name.ljust(12).encode()])
            return
        self.model.touch(name)
        assert self._value(name) == unit.value

    @rule(name=unit_names, query_first=st.booleans())
    def query_and_finish(self, name, query_first):
        """A query racing a finish lands on either side of it: the query
        of a pinned unit skips its touch (ADR-020), and the LRU order
        after both must be the model's for that order."""
        if query_first:
            self.query(name)
            self.finish(name)
        else:
            self.finish(name)
            self.query(name)

    @invariant()
    def agrees_with_model(self):
        model, gbo = self.model, self.gbo
        for name, unit in model.units.items():
            assert gbo.unit_state(name) is UnitState[unit.state.upper()]
        assert gbo.memory_report()["evictable_units"] == list(model.lru)
        assert gbo.mem_used_bytes == model.used()
        assert gbo.mem_budget_bytes == model.budget
        assert gbo.queue_depth == sum(
            u.state == "queued" for u in model.units.values())
        assert (gbo.stats.wait_hits, gbo.stats.wait_misses,
                gbo.stats.evictions) == (model.hits, model.misses,
                                         model.evictions)
        assert self.events == model.events


TestGboUnitMachine = pytest.mark.races(GboUnitMachine.TestCase)
TestGboUnitMachine.settings = settings(
    max_examples=50, stateful_step_count=50, deadline=None
)
