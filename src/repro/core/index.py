"""The record index: key-field values -> record, one dict per record type.

Section 3.3: "The records in the GODIVA database are organized in a C++ STL
map, indexed with the key field values in a RB-tree." The tree is that
section's implementation note, not API: every query is an exact-key lookup
and nothing range-scans, so the index is a ``dict`` keyed on tuples of raw
key bytes, and :meth:`RecordIndex.records_of_type` — the one ordered
consumer — sorts the keys when it iterates (``tests/reference_rbtree.py``
is the tree, kept as the oracle). A second index maps unit name -> records
"so that when a unit is evicted from the cache, all of its records can be
deleted efficiently."
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.record import Record
from repro.errors import DuplicateKeyError, KeyLookupError

KeyTuple = Tuple[bytes, ...]

#: Read-only stand-in for a record type nothing was committed under yet.
NO_RECORDS: Mapping[KeyTuple, Record] = MappingProxyType({})


def normalize_key_values(values: Sequence) -> KeyTuple:
    """Coerce caller-supplied key values to the index's byte-tuple form.

    Accepts bytes, str (ASCII-encoded), or numpy arrays / memoryviews
    (raw buffer bytes) — mirroring the paper's "array of pointers to
    buffers holding key field values". A key of ``bytes`` already is
    that form and is only made a tuple.
    """
    key = tuple(values)
    for value in key:
        if type(value) is not bytes:
            return tuple(map(_key_bytes, key))
    return key


def _key_bytes(value: object) -> bytes:
    """One key value as raw bytes."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, bytearray):
        return bytes(value)
    if isinstance(value, str):
        return value.encode("ascii")
    if isinstance(value, memoryview):
        return value.tobytes()
    # numpy scalar/array or anything exposing the buffer protocol.
    try:
        return bytes(memoryview(value))
    except TypeError:
        raise TypeError(f"key value {value!r} is not bytes-like") from None


class RecordIndex:
    """Key index (dict per record type) + per-unit record sets.

    A unit's records (and the unattached ones) are the keys of an
    insertion-ordered dict, so dropping one record is O(1) and a unit's
    records come back in the order they were tracked."""

    def __init__(self) -> None:
        #: Record type name -> key -> record. The record engine's query
        #: probes it directly (under its record lock); every change goes
        #: through the methods below.
        self.by_type: Dict[str, Dict[KeyTuple, Record]] = {}
        #: Unit name -> its records, as the keys of a dict (values None).
        self._by_unit: Dict[str, Dict[Record, None]] = {}
        #: Records not attributed to any unit (created outside a read
        #: callback), keyed the same way. They are only removed
        #: explicitly.
        self._unattached: Dict[Record, None] = {}

    # ------------------------------------------------------------------
    # Commit / lookup
    # ------------------------------------------------------------------
    def commit(self, record: Record) -> KeyTuple:
        """Index ``record`` under its current key-field values."""
        key = record.key_tuple()
        records = self.by_type.setdefault(record.record_type.name, {})
        if key in records:
            raise DuplicateKeyError(
                f"record type {record.record_type.name!r} already has a "
                f"record with key {key!r}"
            )
        records[key] = record
        record.mark_committed(key)
        return key

    def track(self, record: Record, unit_name: Optional[str]) -> None:
        """Attach an (indexed or not) record to its owning unit's
        records."""
        record.unit_name = unit_name
        if unit_name is None:
            self._unattached[record] = None
        else:
            self._by_unit.setdefault(unit_name, {})[record] = None

    def lookup(self, type_name: str, key: KeyTuple) -> Record:
        """The record of ``type_name`` under ``key``; raises
        :class:`KeyLookupError` when there is none."""
        record = self.by_type.get(type_name, NO_RECORDS).get(key)
        if record is None:
            raise KeyLookupError(
                f"no record of type {type_name!r} with key {key!r}"
            )
        return record

    def contains(self, type_name: str, key: KeyTuple) -> bool:
        """Whether a record of ``type_name`` is indexed under ``key``."""
        return key in self.by_type.get(type_name, NO_RECORDS)

    def records_of_type(self, type_name: str) -> Iterator[Record]:
        """All committed records of one type, in key order."""
        # Keys are unique, so the pair sort never compares two records.
        for _key, record in sorted(
                self.by_type.get(type_name, NO_RECORDS).items()):
            yield record

    def count(self, type_name: Optional[str] = None) -> int:
        """Number of committed records (optionally of one type)."""
        if type_name is not None:
            return len(self.by_type.get(type_name, NO_RECORDS))
        return sum(len(records) for records in self.by_type.values())

    # ------------------------------------------------------------------
    # Unit-level removal
    # ------------------------------------------------------------------
    def unit_records(self, unit_name: str) -> List[Record]:
        """A copy of the records tracked under ``unit_name``."""
        return list(self._by_unit.get(unit_name, ()))

    def drop_unit(self, unit_name: str) -> List[Record]:
        """Unindex and return every record belonging to ``unit_name``.

        This is the whole-unit eviction path; the caller releases the
        records' buffers and memory charge.
        """
        records = list(self._by_unit.pop(unit_name, ()))
        for record in records:
            self._unindex(record)
        return records

    def drop_record(self, record: Record) -> None:
        """Remove a single record from all indexes."""
        self._unindex(record)
        if record.unit_name is None:
            self._unattached.pop(record, None)
        else:
            bucket = self._by_unit.get(record.unit_name)
            if bucket is not None:
                bucket.pop(record, None)
                if not bucket:
                    del self._by_unit[record.unit_name]

    def _unindex(self, record: Record) -> None:
        if record.committed and record.committed_key is not None:
            records = self.by_type.get(record.record_type.name, NO_RECORDS)
            # The entry may already map to a different record if the
            # application mutated key buffers (paper's caveat); only
            # delete when it is really this record.
            if records.get(record.committed_key) is record:
                del records[record.committed_key]

    def clear(self) -> List[Record]:
        """Drop everything; returns all records for buffer release."""
        records: List[Record] = []
        for bucket in self._by_unit.values():
            records.extend(bucket)
        records.extend(self._unattached)
        self.by_type.clear()
        self._by_unit.clear()
        self._unattached.clear()
        return records
