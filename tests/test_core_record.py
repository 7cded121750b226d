"""Unit tests for records and field buffers (section 3.1, Figure 2)."""

import gc
import glob

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.arena import HeapArena
from repro.core.memory import RECORD_OVERHEAD_BYTES
from repro.core.record import FieldBuffer, Record
from repro.core.record_engine import RecordEngine
from repro.core.shared_arena import SharedMemoryArena
from repro.core.types import UNKNOWN, DataType, FieldType, RecordType
from repro.errors import RecordStateError, SchemaError
from repro.io.readers import ALL_SOLID_FIELDS, solid_schema


def make_type() -> RecordType:
    rt = RecordType("fluid", num_keys=2)
    rt.insert_field(FieldType("block id", DataType.STRING, 11), True)
    rt.insert_field(FieldType("time-step id", DataType.STRING, 9), True)
    rt.insert_field(
        FieldType("pressure", DataType.DOUBLE, UNKNOWN), False
    )
    rt.insert_field(FieldType("conn", DataType.INT32, UNKNOWN), False)
    rt.commit()
    return rt


class TestFieldBuffer:
    def test_known_size_allocated_eagerly(self):
        buf = FieldBuffer(FieldType("k", DataType.STRING, 11))
        assert buf.allocated
        assert buf.size == 11

    def test_unknown_size_starts_unallocated(self):
        buf = FieldBuffer(FieldType("p", DataType.DOUBLE, UNKNOWN))
        assert not buf.allocated
        with pytest.raises(RecordStateError):
            buf.size
        with pytest.raises(RecordStateError):
            buf.as_array()
        with pytest.raises(RecordStateError):
            buf.as_bytes()
        with pytest.raises(RecordStateError):
            buf.write(b"x")

    def test_allocate(self):
        buf = FieldBuffer(FieldType("p", DataType.DOUBLE, UNKNOWN))
        buf.allocate(80)
        assert buf.allocated
        assert buf.size == 80
        assert len(buf.as_array()) == 10

    def test_double_allocate_rejected(self):
        buf = FieldBuffer(FieldType("p", DataType.DOUBLE, UNKNOWN))
        buf.allocate(80)
        with pytest.raises(RecordStateError, match="already allocated"):
            buf.allocate(80)

    def test_allocate_fixed_size_rejected(self):
        buf = FieldBuffer(FieldType("k", DataType.STRING, 11))
        with pytest.raises(RecordStateError, match="fixed size"):
            buf.allocate(11)

    def test_allocate_misaligned_rejected(self):
        buf = FieldBuffer(FieldType("p", DataType.DOUBLE, UNKNOWN))
        with pytest.raises(SchemaError):
            buf.allocate(81)

    def test_allocate_negative_rejected(self):
        buf = FieldBuffer(FieldType("p", DataType.DOUBLE, UNKNOWN))
        with pytest.raises(ValueError):
            buf.allocate(-8)

    def test_as_array_is_zero_copy_view(self):
        buf = FieldBuffer(FieldType("p", DataType.DOUBLE, UNKNOWN))
        buf.allocate(24)
        view = buf.as_array()
        view[:] = [1.0, 2.0, 3.0]
        again = buf.as_array()
        assert list(again) == [1.0, 2.0, 3.0]

    def test_write_bytes_and_str(self):
        buf = FieldBuffer(FieldType("k", DataType.STRING, 5))
        buf.write(b"abcd$")
        assert buf.as_bytes() == b"abcd$"
        buf.write("efgh$")
        assert buf.as_bytes() == b"efgh$"

    def test_write_ndarray(self):
        buf = FieldBuffer(FieldType("p", DataType.DOUBLE, UNKNOWN))
        buf.allocate(24)
        buf.write(np.array([1.5, 2.5, 3.5]))
        assert list(buf.as_array()) == [1.5, 2.5, 3.5]

    def test_write_wrong_size_rejected(self):
        buf = FieldBuffer(FieldType("k", DataType.STRING, 5))
        with pytest.raises(ValueError, match="write of 3 bytes"):
            buf.write(b"abc")

    def test_release(self):
        buf = FieldBuffer(FieldType("k", DataType.STRING, 11))
        assert buf.release() == 11
        assert not buf.allocated
        assert buf.release() == 0


class TestRecord:
    def test_uncommitted_type_rejected(self):
        rt = RecordType("r", num_keys=1)
        rt.insert_field(FieldType("k", DataType.STRING, 4), True)
        with pytest.raises(SchemaError, match="not committed"):
            Record(rt)

    def test_figure2_layout(self):
        """The exact record instance of Figure 2."""
        record = Record(make_type())
        record.field("block id").write(b"block_0001$")
        record.field("time-step id").write(b"0.000025$")
        record.field("pressure").allocate(80_000)
        assert record.field("block id").size == 11
        assert record.field("time-step id").size == 9
        assert record.field("pressure").size == 80_000

    def test_key_tuple(self):
        record = Record(make_type())
        record.field("block id").write(b"block_0001$")
        record.field("time-step id").write(b"0.000025$")
        assert record.key_tuple() == (b"block_0001$", b"0.000025$")

    def test_key_tuple_order_follows_key_declaration(self):
        rt = RecordType("r", num_keys=2)
        rt.insert_field(FieldType("second", DataType.STRING, 1), True)
        rt.insert_field(FieldType("first", DataType.STRING, 1), True)
        rt.commit()
        record = Record(rt)
        record.field("second").write(b"S")
        record.field("first").write(b"F")
        assert record.key_tuple() == (b"S", b"F")

    def test_unknown_field_rejected(self):
        record = Record(make_type())
        with pytest.raises(SchemaError, match="no field"):
            record.field("ghost")

    def test_allocated_bytes(self):
        record = Record(make_type())
        assert record.allocated_bytes() == 20  # the two key buffers
        record.field("pressure").allocate(800)
        assert record.allocated_bytes() == 820

    def test_release_all(self):
        record = Record(make_type())
        record.field("pressure").allocate(800)
        assert record.release_all() == 820
        assert record.allocated_bytes() == 0

    def test_mark_committed(self):
        record = Record(make_type())
        assert not record.committed
        assert record.committed_key is None
        record.mark_committed((b"a", b"b"))
        assert record.committed
        assert record.committed_key == (b"a", b"b")


# ----------------------------------------------------------------------
# A record is a row (ADR-020): the engine's rows against a reference of
# plain bytearrays, on every kind of storage, and what a row keeps alive.
# ----------------------------------------------------------------------

FIELDS = (("k", DataType.STRING, 8, True), ("f", DataType.FLOAT, 12, False),
          ("d", DataType.DOUBLE, UNKNOWN, False),
          ("i", DataType.INT32, UNKNOWN, False))
UNITS = (None, "u0", "u1")


def row_engine(arena):
    """A standalone record engine over ``arena`` with one record type;
    records are made inside whichever unit ``engine.loading`` names."""
    engine = RecordEngine(arena=arena)
    engine.loading = None
    engine.bind(charge=lambda n, u: None, release=lambda n, u: None,
                current_load_unit=lambda: engine.loading,
                touch_unit=lambda u: None)
    for name, data_type, size, _key in FIELDS:
        engine.define_field(name, data_type, size)
    engine.ensure_record_type("row", 1, [(name, key)
                                         for name, _t, _s, key in FIELDS])
    return engine


class RowMachine(RuleBasedStateMachine):
    """Rows against a dict-of-``bytearray`` reference over new, alloc,
    write, ``as_array``, query, release, ``delete_record`` and
    ``drop_unit``: every slot's bytes, size and allocation state, and
    every byte count freed, must agree."""

    make_arena = staticmethod(lambda: None)

    def __init__(self):
        super().__init__()
        self.arena = self.make_arena()
        self.engine = row_engine(self.arena)
        self.records = {}        # key -> (record, unit, {field: bytes})
        self.serial = 0

    def teardown(self):
        self.engine.shutdown()
        if self.arena is not None:
            self.arena.close()
            if isinstance(self.arena, SharedMemoryArena):
                assert not glob.glob(f"/dev/shm/{self.arena.name_prefix}-*")

    keys = st.integers(0, 7)
    fields = st.sampled_from([name for name, *_ in FIELDS])

    def pick(self, index):
        if not self.records:
            return None
        return sorted(self.records)[index % len(self.records)]

    @rule(unit=st.sampled_from(UNITS))
    def new(self, unit):
        self.engine.loading = unit
        record = self.engine.new_record("row")
        self.engine.loading = None
        key = b"%07d$" % self.serial
        self.serial += 1
        record.field("k").write(key)
        self.engine.commit_record(record)
        self.records[key] = (record, unit, {
            "k": bytearray(key), "f": bytearray(12), "d": None, "i": None})

    @rule(index=keys, name=fields, items=st.integers(0, 5))
    def alloc(self, index, name, items):
        key = self.pick(index)
        if key is None:
            return
        record, _unit, ref = self.records[key]
        nbytes = items * record.record_type.field(name).data_type.itemsize
        if ref[name] is not None or name in ("k", "f"):
            with pytest.raises(RecordStateError):
                self.engine.alloc_field_buffer(record, name, nbytes)
            return
        buf = self.engine.alloc_field_buffer(record, name, nbytes)
        assert buf.size == nbytes
        ref[name] = bytearray(nbytes)

    @rule(index=keys, name=fields, seed=st.integers(0, 255))
    def write(self, index, name, seed):
        key = self.pick(index)
        if key is None or name == "k":
            return
        record, _unit, ref = self.records[key]
        if ref[name] is None:
            with pytest.raises(RecordStateError):
                record.field(name).write(b"")
            return
        data = bytes((seed + i) % 256 for i in range(len(ref[name])))
        record.field(name).write(data)
        ref[name][:] = data

    @rule(index=keys, name=fields, seed=st.integers(0, 255))
    def write_through_array(self, index, name, seed):
        key = self.pick(index)
        if key is None or name == "k":
            return
        record, _unit, ref = self.records[key]
        if ref[name] is None:
            with pytest.raises(RecordStateError):
                record.field(name).as_array()
            return
        view = self.engine.get_field_buffer("row", name, [key])
        raw = view.view(np.uint8)
        raw[:] = (np.arange(raw.size) + seed) % 256
        ref[name][:] = raw.tobytes()

    @rule(index=keys, name=fields)
    def release(self, index, name):
        key = self.pick(index)
        if key is None or name == "k":
            return
        record, _unit, ref = self.records[key]
        freed = 0 if ref[name] is None else len(ref[name])
        assert record.field(name).release() == freed
        ref[name] = None

    @rule(index=keys)
    def delete_record(self, index):
        key = self.pick(index)
        if key is None:
            return
        record, _unit, _ref = self.records.pop(key)
        self.engine.delete_record(record)
        assert not self.engine.has_record("row", [key])
        assert record.allocated_bytes() == 0

    @rule(unit=st.sampled_from(UNITS[1:]))
    def drop_unit(self, unit):
        dropped = {key: ref for key, (_r, owner, ref)
                   in self.records.items() if owner == unit}
        expected = sum(RECORD_OVERHEAD_BYTES + sum(
            len(data) for data in ref.values() if data is not None)
            for ref in dropped.values())
        assert self.engine.drop_unit_records(unit) == expected
        for key in dropped:
            del self.records[key]
            assert not self.engine.has_record("row", [key])

    @invariant()
    def rows_match_reference(self):
        for key, (record, unit, ref) in self.records.items():
            assert record.unit_name == unit
            assert record.allocated_bytes() == sum(
                len(data) for data in ref.values() if data is not None)
            for name, data in ref.items():
                buf = record.field(name)
                assert buf.allocated == (data is not None)
                if data is None:
                    continue
                assert buf.size == len(data)
                assert buf.as_bytes() == bytes(data)
                assert buf.as_array().tobytes() == bytes(data)
                assert self.engine.get_field_buffer(
                    "row", name, [key]).tobytes() == bytes(data)


class SharedRowMachine(RowMachine):
    make_arena = staticmethod(
        lambda: SharedMemoryArena(segment_bytes=4096))


class HeapArenaRowMachine(RowMachine):
    make_arena = staticmethod(HeapArena)


_ROW_SETTINGS = settings(max_examples=25, stateful_step_count=30,
                         deadline=None)
TestRowsOnHeap = pytest.mark.races(RowMachine.TestCase)
TestRowsOnHeap.settings = _ROW_SETTINGS
TestRowsOnHeapArena = pytest.mark.races(HeapArenaRowMachine.TestCase)
TestRowsOnHeapArena.settings = _ROW_SETTINGS
TestRowsOnSharedMemory = pytest.mark.races(SharedRowMachine.TestCase)
TestRowsOnSharedMemory.settings = _ROW_SETTINGS


def solid_engine():
    engine = RecordEngine()
    solid_schema().ensure(engine)
    return engine


def commit_solid(engine, index):
    record = engine.new_record("solid")
    record.field("block id").write(b"b%09d$" % index)
    record.field("time-step id").write(b"0.000000$")
    for name in ALL_SOLID_FIELDS:
        engine.alloc_field_buffer(record, name, 8 * (index % 3 + 1))
    engine.commit_record(record)
    return record


@pytest.mark.races
class TestRowFootprint:
    def test_committed_solid_record_keeps_at_most_three_tracked_objects(
            self):
        """The record, its row and its key tuple: no FieldBuffer or dict
        per field stays alive."""
        engine = solid_engine()
        commit_solid(engine, 0)             # warm every lazy table
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            records = [commit_solid(engine, i) for i in range(1, 201)]
            after = len(gc.get_objects())
        finally:
            if enabled:
                gc.enable()
        # One list holds the 200 records; the index's dicts and the
        # unattached list already exist.
        assert (after - before - 1) / len(records) <= 3
        engine.shutdown()

    def test_field_views_are_made_on_demand(self):
        engine = solid_engine()
        record = commit_solid(engine, 1)
        first, second = record.field("coords"), record.field("coords")
        assert first is not second
        assert np.shares_memory(first.as_array(), second.as_array())
        first.write(np.arange(2.0))
        assert second.as_array().tolist() == [0.0, 1.0]
        engine.shutdown()

    def test_query_view_holds_no_tracked_buffer_object(self):
        engine = solid_engine()
        commit_solid(engine, 1)
        view = engine.get_field_buffer(
            "solid", "coords", [b"b000000001$", b"0.000000$"])
        assert not gc.is_tracked(view.base)
        engine.shutdown()
