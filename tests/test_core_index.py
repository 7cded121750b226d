"""Unit tests for the record index and key normalization (section 3.3)."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from reference_rbtree import RedBlackTree

from repro.core.index import RecordIndex, normalize_key_values
from repro.core.record import Record
from repro.core.types import UNKNOWN, DataType, FieldType, RecordType
from repro.errors import DuplicateKeyError, KeyLookupError


def make_type(name="fluid") -> RecordType:
    rt = RecordType(name, num_keys=1)
    rt.insert_field(FieldType("id", DataType.STRING, 4), True)
    rt.insert_field(FieldType("data", DataType.DOUBLE, UNKNOWN), False)
    rt.commit()
    return rt


def make_record(rt, key: bytes) -> Record:
    record = Record(rt)
    record.field("id").write(key)
    return record


class TestNormalizeKeyValues:
    def test_bytes_passthrough(self):
        assert normalize_key_values([b"ab"]) == (b"ab",)

    def test_str_encoded(self):
        assert normalize_key_values(["ab"]) == (b"ab",)

    def test_bytearray_and_memoryview(self):
        assert normalize_key_values(
            [bytearray(b"ab"), memoryview(b"cd")]
        ) == (b"ab", b"cd")

    def test_numpy_buffer(self):
        arr = np.array([1.5])
        assert normalize_key_values([arr]) == (arr.tobytes(),)

    def test_mixed(self):
        assert normalize_key_values(
            [b"a", "b"]
        ) == (b"a", b"b")

    def test_non_buffer_rejected(self):
        with pytest.raises(TypeError):
            normalize_key_values([object()])


class TestRecordIndex:
    def test_commit_and_lookup(self):
        index = RecordIndex()
        rt = make_type()
        record = make_record(rt, b"A001")
        key = index.commit(record)
        index.track(record, "unit1")
        assert key == (b"A001",)
        assert index.lookup("fluid", (b"A001",)) is record
        assert index.contains("fluid", (b"A001",))
        assert index.count() == 1
        assert index.count("fluid") == 1
        assert index.count("other") == 0

    def test_lookup_missing_raises(self):
        index = RecordIndex()
        with pytest.raises(KeyLookupError):
            index.lookup("fluid", (b"A001",))

    def test_duplicate_key_rejected(self):
        index = RecordIndex()
        rt = make_type()
        index.commit(make_record(rt, b"A001"))
        with pytest.raises(DuplicateKeyError):
            index.commit(make_record(rt, b"A001"))

    def test_same_key_different_types_ok(self):
        index = RecordIndex()
        a = make_record(make_type("a"), b"A001")
        b = make_record(make_type("b"), b"A001")
        index.commit(a)
        index.commit(b)
        assert index.lookup("a", (b"A001",)) is a
        assert index.lookup("b", (b"A001",)) is b

    def test_records_of_type_in_key_order(self):
        index = RecordIndex()
        rt = make_type()
        for key in (b"C003", b"A001", b"B002"):
            record = make_record(rt, key)
            index.commit(record)
            index.track(record, "u")
        ids = [
            r.field("id").as_bytes()
            for r in index.records_of_type("fluid")
        ]
        assert ids == [b"A001", b"B002", b"C003"]

    def test_drop_unit_removes_all(self):
        index = RecordIndex()
        rt = make_type()
        for i, unit in enumerate(("u1", "u1", "u2")):
            record = make_record(rt, f"A{i:03d}".encode())
            index.commit(record)
            index.track(record, unit)
        dropped = index.drop_unit("u1")
        assert len(dropped) == 2
        assert index.count() == 1
        assert not index.contains("fluid", (b"A000",))
        assert index.contains("fluid", (b"A002",))
        assert index.unit_records("u1") == []

    def test_drop_unknown_unit_is_noop(self):
        index = RecordIndex()
        assert index.drop_unit("ghost") == []

    def test_drop_record(self):
        index = RecordIndex()
        rt = make_type()
        record = make_record(rt, b"A001")
        index.commit(record)
        index.track(record, "u1")
        index.drop_record(record)
        assert index.count() == 0
        assert index.unit_records("u1") == []

    def test_unit_records_keep_tracking_order(self):
        """Dropping one record leaves the others in the order they were
        tracked, for ``unit_records``, ``drop_unit`` and ``clear``."""
        index = RecordIndex()
        rt = make_type()
        records = [make_record(rt, f"A{i:03d}".encode()) for i in range(6)]
        for record in records[:5]:
            index.commit(record)
            index.track(record, "u")
        index.track(records[5], None)
        index.drop_record(records[2])
        assert index.unit_records("u") == [records[i] for i in (0, 1, 3, 4)]
        index.track(records[2], "u")
        assert index.unit_records("u") == [records[i]
                                           for i in (0, 1, 3, 4, 2)]
        assert index.clear() == [records[i] for i in (0, 1, 3, 4, 2, 5)]
        for record in records[:3]:
            index.track(record, "v")
        index.drop_record(records[1])
        assert index.drop_unit("v") == [records[0], records[2]]

    def test_drop_uncommitted_record(self):
        index = RecordIndex()
        rt = make_type()
        record = make_record(rt, b"A001")
        index.track(record, None)  # unattached, never committed
        index.drop_record(record)  # must not raise

    def test_track_unattached(self):
        index = RecordIndex()
        rt = make_type()
        record = make_record(rt, b"A001")
        index.commit(record)
        index.track(record, None)
        assert record.unit_name is None
        assert index.lookup("fluid", (b"A001",)) is record

    def test_clear_returns_everything(self):
        index = RecordIndex()
        rt = make_type()
        tracked = make_record(rt, b"A001")
        index.commit(tracked)
        index.track(tracked, "u")
        loose = make_record(rt, b"A002")
        index.track(loose, None)
        records = index.clear()
        assert set(records) == {tracked, loose}
        assert index.count() == 0

    def test_mutated_key_does_not_delete_other_record(self):
        """The paper's caveat: mutating key buffers desynchronizes the
        index. Dropping the stale record must not remove whichever
        record now legitimately owns that key slot."""
        index = RecordIndex()
        rt = make_type()
        first = make_record(rt, b"A001")
        index.commit(first)
        index.track(first, "u1")
        # Application mutates the key buffer after commit (allowed).
        first.field("id").write(b"ZZZZ")
        index.drop_unit("u1")
        # The slot under the *original* key was first's; it is gone.
        assert not index.contains("fluid", (b"A001",))

    def test_stale_drop_leaves_the_slots_new_owner(self):
        """The caveat's other half: a record dropped once still carries
        its committed key; dropping it again after another record took
        that key must not unindex the newcomer."""
        index = RecordIndex()
        rt = make_type()
        first = make_record(rt, b"A001")
        index.commit(first)
        index.track(first, "u1")
        index.drop_unit("u1")
        second = make_record(rt, b"A001")
        index.commit(second)
        index.track(second, "u2")
        index.drop_record(first)
        assert index.lookup("fluid", (b"A001",)) is second
        assert index.unit_records("u2") == [second]


TYPES = {name: make_type(name) for name in ("fluid", "solid")}
type_names = st.sampled_from(sorted(TYPES))
# A small key space, so duplicates, re-commits under a freed key and
# drops of stale records all come up.
key_bytes = st.sampled_from([b"A001", b"A002", b"B001"])
unit_names = st.sampled_from([None, "u1", "u2"])


class RecordIndexMachine(RuleBasedStateMachine):
    """``RecordIndex`` against the red-black tree it used to be built on
    (one reference tree per record type) plus plain unit lists."""

    def __init__(self):
        super().__init__()
        self.index = RecordIndex()
        self.trees = {name: RedBlackTree() for name in TYPES}
        self.units = {}        # unit name (or None) -> tracked records
        self.records = []      # every record ever committed, live or not

    def unindex(self, record):
        """The paper's caveat as the model states it: the entry goes only
        if it still maps to this very record."""
        tree = self.trees[record.record_type.name]
        if tree.find(record.committed_key) is record:
            tree.delete(record.committed_key)

    @rule(type_name=type_names, key=key_bytes, unit=unit_names)
    def commit(self, type_name, key, unit):
        record = make_record(TYPES[type_name], key)
        if (key,) in self.trees[type_name]:
            with pytest.raises(DuplicateKeyError):
                self.index.commit(record)
            assert not record.committed
            return
        assert self.index.commit(record) == (key,)
        self.index.track(record, unit)
        self.trees[type_name].insert((key,), record)
        self.units.setdefault(unit, []).append(record)
        self.records.append(record)

    @rule(type_name=type_names, key=key_bytes)
    def lookup(self, type_name, key):
        expected = self.trees[type_name].find((key,))
        assert self.index.contains(type_name, (key,)) == (
            expected is not None)
        if expected is None:
            with pytest.raises(KeyLookupError):
                self.index.lookup(type_name, (key,))
        else:
            assert self.index.lookup(type_name, (key,)) is expected

    @precondition(lambda self: self.records)
    @rule(data=st.data(), key=key_bytes)
    def mutate_key_buffer(self, data, key):
        """Allowed after commit; the index keeps the snapshotted key."""
        record = data.draw(st.sampled_from(self.records))
        record.field("id").write(key)

    @precondition(lambda self: self.records)
    @rule(data=st.data())
    def drop_record(self, data):
        """Any record ever committed — so also one dropped before whose
        key slot now belongs to a later record."""
        record = data.draw(st.sampled_from(self.records))
        self.index.drop_record(record)
        self.unindex(record)
        bucket = self.units.get(record.unit_name, [])
        if record in bucket:
            bucket.remove(record)

    @rule(unit=st.sampled_from(["u1", "u2", "ghost"]))
    def drop_unit(self, unit):
        expected = self.units.pop(unit, [])
        assert self.index.drop_unit(unit) == expected
        for record in expected:
            self.unindex(record)

    @rule()
    def clear(self):
        expected = [r for bucket in self.units.values() for r in bucket]
        cleared = self.index.clear()
        assert sorted(map(id, cleared)) == sorted(map(id, expected))
        self.units.clear()
        for tree in self.trees.values():
            tree.clear()

    @invariant()
    def same_contents_in_tree_order(self):
        for name, tree in self.trees.items():
            tree.check_invariants()
            ordered = list(self.index.records_of_type(name))
            assert len(ordered) == len(tree) == self.index.count(name)
            assert all(a is b for a, b in zip(ordered, tree.values()))
        assert self.index.count() == sum(
            len(tree) for tree in self.trees.values())
        for unit in ("u1", "u2"):
            assert self.index.unit_records(unit) == self.units.get(unit, [])


TestRecordIndexStateful = RecordIndexMachine.TestCase
TestRecordIndexStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
