"""RecordEngine — the record/query layer of the GODIVA engine.

Owns the schema registries (field types, record types), record
instances, the key index (dict per record type, section 3.3), and
the query path — the paper's *record operations* and *dataset queries*
interface groups, including the TOCTOU-safe ``ensure_record_type``
definition path.

This layer has its **own** lock/condition pair (the *record* lock),
independent of the engine lock shared by the unit store, memory
manager, and I/O scheduler. The global lock order is **engine → record**:
eviction holds the engine lock and nests the record lock inside
:meth:`drop_unit_records`; record operations never call an engine-lock
seam while holding the record lock, so the reverse edge cannot form.
Methods documented "Lock held." refer to the record lock (checked under
``REPRO_ANALYSIS=1``).

Seams: memory charging/releasing, the current-load-unit probe, and the
query-hit touch are bound callables (the facade wires them to the
memory manager and the I/O scheduler); unbound they are no-ops, so the
engine is fully usable standalone for schema/index tests.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.primitives import (
    TrackedCondition,
    TrackedLock,
    make_held_checker,
)
from repro.analysis.races import guarded_by
from repro.core.index import RecordIndex, normalize_key_values
from repro.core.memory import RECORD_OVERHEAD_BYTES
from repro.core.record import FieldBuffer, Record
from repro.core.stats import GodivaStats
from repro.core.types import UNKNOWN, DataType, FieldType, RecordType
from repro.errors import (
    DatabaseClosedError,
    SchemaError,
    UnknownTypeError,
)


def _noop_charge(nbytes: int) -> None:
    """Default charge seam: unlimited memory (standalone engine)."""


def _noop_release(nbytes: int, unit_name: Optional[str]) -> None:
    """Default release seam: unlimited memory (standalone engine)."""


def _no_load_unit() -> Optional[str]:
    """Default load-unit probe: never inside a read callback."""
    return None


def _noop_touch(unit_name: str) -> None:
    """Default query-hit touch seam: no eviction policy to notify."""


@guarded_by("_field_types", "_record_types", "_index", "_closing",
            "_closed", lock="_lock")
class RecordEngine:
    """Schema registry, record instances, key index, and query path.

    Parameters
    ----------
    stats:
        The :class:`GodivaStats` sink; ``records_committed`` and
        ``queries`` are the only counters mutated here (under the
        record lock — each stats field belongs to exactly one lock
        domain).
    clock:
        Monotonic-seconds callable (kept for seam symmetry).
    arena:
        The :class:`~repro.core.arena.Arena` records allocate their
        field buffers from; ``None`` keeps plain heap ``bytearray``
        storage (identical to ``HeapArena``). The facade passes its
        arena here so unit payloads land in shared memory under a
        sharded build.
    """

    def __init__(
        self,
        *,
        stats: Optional[GodivaStats] = None,
        clock: Callable[[], float] = time.monotonic,
        arena=None,
    ) -> None:
        self._lock = TrackedLock(f"RecordEngine._lock@{id(self):#x}")
        self._cond = TrackedCondition(self._lock)
        self._check_locked = make_held_checker(
            self._lock, "RecordEngine helper"
        )
        self._clock = clock
        self._arena = arena
        self.stats = stats if stats is not None else GodivaStats()
        self._field_types: Dict[str, FieldType] = {}
        self._record_types: Dict[str, RecordType] = {}
        self._index = RecordIndex()
        self._closing = False
        self._closed = False
        self._charge: Callable[[int], None] = _noop_charge
        self._release: Callable[[int, Optional[str]], None] = _noop_release
        self._current_load_unit: Callable[[], Optional[str]] = _no_load_unit
        self._touch_unit: Callable[[str], None] = _noop_touch

    def bind(
        self,
        *,
        charge: Callable[[int], None],
        release: Callable[[int, Optional[str]], None],
        current_load_unit: Callable[[], Optional[str]],
        touch_unit: Callable[[str], None],
    ) -> None:
        """Wire the memory/scheduler seams.

        Every seam is called **without** the record lock held (they
        acquire the engine lock internally), preserving the global
        engine → record lock order.
        """
        self._charge = charge
        self._release = release
        self._current_load_unit = current_load_unit
        self._touch_unit = touch_unit

    def _check_open(self) -> None:
        """Refuse record operations once close() has begun. Lock held."""
        self._check_locked()
        if self._closing or self._closed:
            raise DatabaseClosedError("GBO has been closed")

    # ------------------------------------------------------------------
    # Schema operations
    # ------------------------------------------------------------------
    def define_field(self, name: str, data_type: DataType,
                     size: int = UNKNOWN) -> FieldType:
        """Define (and name) a field type: name, data type, buffer size.

        Identical redefinitions are idempotent — read callbacks run once
        per unit and commonly re-issue their schema — but conflicting
        redefinitions raise :class:`SchemaError`.
        """
        field_type = FieldType(name, data_type, size)
        with self._lock:
            self._check_open()
            existing = self._field_types.get(name)
            if existing is not None:
                if existing != field_type:
                    raise SchemaError(
                        f"field type {name!r} redefined with a different "
                        f"definition ({existing} vs {field_type})"
                    )
                return existing
            self._field_types[name] = field_type
            return field_type

    def has_field_type(self, name: str) -> bool:
        """Whether a field type with this name exists."""
        with self._lock:
            return name in self._field_types

    def field_type(self, name: str) -> FieldType:
        """The named field type, or raise :class:`UnknownTypeError`."""
        with self._lock:
            try:
                return self._field_types[name]
            except KeyError:
                raise UnknownTypeError(
                    f"field type {name!r} is not defined"
                ) from None

    def define_record(self, name: str, num_keys: int) -> RecordType:
        """Start a new record type with ``num_keys`` declared key fields."""
        with self._lock:
            self._check_open()
            if name in self._record_types:
                raise SchemaError(
                    f"record type {name!r} already defined; use "
                    f"has_record_type() to guard re-entrant definitions"
                )
            record_type = RecordType(name, num_keys)
            self._record_types[name] = record_type
            return record_type

    def has_record_type(self, name: str) -> bool:
        """Whether a record type with this name exists."""
        with self._lock:
            return name in self._record_types

    def record_type(self, name: str) -> RecordType:
        """The named record type, or raise :class:`UnknownTypeError`."""
        with self._lock:
            return self._record_type_locked(name)

    def _record_type_locked(self, name: str) -> RecordType:
        """Look up a record type. Lock held."""
        self._check_locked()
        try:
            return self._record_types[name]
        except KeyError:
            raise UnknownTypeError(
                f"record type {name!r} is not defined"
            ) from None

    def insert_field(self, record_type_name: str, field_name: str,
                     is_key: bool) -> None:
        """Add a predefined field type to a record type's field set."""
        with self._lock:
            self._check_open()
            record_type = self._record_type_locked(record_type_name)
            try:
                field_type = self._field_types[field_name]
            except KeyError:
                raise UnknownTypeError(
                    f"field type {field_name!r} is not defined"
                ) from None
            record_type.insert_field(field_type, is_key)

    def commit_record_type(self, name: str) -> None:
        """Conclude a record type definition; instances may now be made."""
        with self._cond:
            self._check_open()
            self._record_type_locked(name).commit()
            self._cond.notify_all()

    def ensure_record_type(
        self,
        name: str,
        num_keys: int,
        fields: Sequence[Tuple[str, bool]],
    ) -> RecordType:
        """Atomically look up, or define and commit, a record type.

        ``fields`` is the full field set as ``(field_name, is_key)``
        pairs over already-defined field types. The incremental
        ``define_record``/``insert_field``/``commit_record_type``
        sequence has a check-then-act window: two read callbacks
        (re)declaring the same schema concurrently can both pass a
        ``has_record_type`` guard and collide in ``define_record``.
        This method performs the whole definition under one lock hold,
        so racing callers all succeed and exactly one of them creates
        the type. If the type already exists and is committed it is
        returned as-is after checking that the field set matches; a
        type mid-definition through the incremental interface on
        another thread is waited for.
        """
        with self._cond:
            self._check_open()
            while True:
                existing = self._record_types.get(name)
                if existing is None:
                    break
                if existing.committed:
                    declared = tuple(field_name for field_name, _ in fields)
                    if (existing.num_keys != num_keys
                            or existing.field_names != declared):
                        raise SchemaError(
                            f"record type {name!r} already defined with a "
                            f"different field set ({existing.field_names} "
                            f"vs {declared})"
                        )
                    return existing
                self._cond.wait()
                self._check_open()
            record_type = RecordType(name, num_keys)
            for field_name, is_key in fields:
                try:
                    field_type = self._field_types[field_name]
                except KeyError:
                    raise UnknownTypeError(
                        f"field type {field_name!r} is not defined"
                    ) from None
                record_type.insert_field(field_type, is_key)
            record_type.commit()
            self._record_types[name] = record_type
            self._cond.notify_all()
            return record_type

    # ------------------------------------------------------------------
    # Record instances
    # ------------------------------------------------------------------
    def new_record(self, record_type_name: str) -> Record:
        """Create a record; known-size field buffers are allocated now.

        Records created inside a read callback belong to that callback's
        processing unit and are evicted with it; records created
        elsewhere are unattached and live until deleted. The memory
        charge happens through the bound seam *without* the record lock
        held (engine → record lock order).
        """
        with self._lock:
            self._check_open()
            record_type = self._record_type_locked(record_type_name)
            if not record_type.committed:
                raise SchemaError(
                    f"record type {record_type_name!r} is not committed"
                )
        upfront = record_type.fixed_size_bytes() + RECORD_OVERHEAD_BYTES
        self._charge(upfront)
        try:
            record = Record(record_type, arena=self._arena)
        except BaseException:
            self._release(upfront, None)
            raise
        with self._lock:
            self._index.track(record, self._current_load_unit())
        return record

    def alloc_field_buffer(self, record: Record, field_name: str,
                           nbytes: int) -> FieldBuffer:
        """Allocate an UNKNOWN-size field's buffer (size now known)."""
        with self._lock:
            self._check_open()
            buf = record.field(field_name)
            # Validate pre-conditions before charging so failures do not
            # leak budget.
            if buf.allocated or buf.field_type.has_known_size:
                buf.allocate(nbytes)  # raises the precise error
        self._charge(nbytes)
        try:
            buf.allocate(nbytes)
        except BaseException:
            self._release(nbytes, record.unit_name)
            raise
        return buf

    def commit_record(self, record: Record) -> None:
        """Insert the record into the index under its key-field values."""
        with self._lock:
            self._check_open()
            self._index.commit(record)
            self.stats.records_committed += 1

    def delete_record(self, record: Record) -> None:
        """Unindex a single record and free its buffers."""
        with self._lock:
            self._check_open()
            unit_name = record.unit_name
            self._index.drop_record(record)
            freed = record.release_all() + RECORD_OVERHEAD_BYTES
        self._release(freed, unit_name)

    def record_count(self, record_type_name: Optional[str] = None) -> int:
        """Number of committed records (optionally of one type)."""
        with self._lock:
            return self._index.count(record_type_name)

    def records_of_type(self, record_type_name: str) -> List[Record]:
        """All committed records of a type, ordered by key."""
        with self._lock:
            return list(self._index.records_of_type(record_type_name))

    # ------------------------------------------------------------------
    # Dataset queries
    # ------------------------------------------------------------------
    def get_record(self, record_type_name: str,
                   key_values: Sequence) -> Record:
        """Key lookup: the record under the key-value combination."""
        key = normalize_key_values(key_values)
        with self._lock:
            self._check_open()
            self.stats.queries += 1
            record = self._index.lookup(record_type_name, key)
            unit_name = record.unit_name
        if unit_name is not None:
            self._touch_unit(unit_name)
        return record

    def get_field_buffer(self, record_type_name: str, field_name: str,
                         key_values: Sequence) -> np.ndarray:
        """The live, zero-copy data buffer of the looked-up field."""
        return self.get_record(record_type_name, key_values).field(
            field_name
        ).as_array()

    def get_field_buffer_size(self, record_type_name: str, field_name: str,
                              key_values: Sequence) -> int:
        """Like :meth:`get_field_buffer` but returns the size in bytes."""
        return self.get_record(record_type_name, key_values).field(
            field_name
        ).size

    def has_record(self, record_type_name: str,
                   key_values: Sequence) -> bool:
        """Whether a record exists under the key-value combination."""
        key = normalize_key_values(key_values)
        with self._lock:
            return self._index.contains(record_type_name, key)

    # ------------------------------------------------------------------
    # Unit-level removal and shutdown
    # ------------------------------------------------------------------
    def drop_unit_records(self, unit_name: str) -> int:
        """Release every record of a unit; returns the bytes freed.

        Acquires the record lock; the caller (eviction) holds the
        engine lock, forming the sanctioned engine → record nesting.
        """
        with self._lock:
            freed = 0
            for record in self._index.drop_unit(unit_name):
                freed += record.release_all() + RECORD_OVERHEAD_BYTES
            return freed

    def begin_close(self) -> None:
        """Start refusing record operations; wake definition waiters."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()

    def shutdown(self) -> None:
        """Release every record and mark the engine closed for good."""
        with self._lock:
            for record in self._index.clear():
                record.release_all()
            self._closed = True
