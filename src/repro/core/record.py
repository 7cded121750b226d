"""Records and field buffers — the GODIVA database's payload objects.

A record is "a set of developer-defined fields", each field "composed of an
integer storing the data size and a pointer to a data buffer" (section 3.1,
Figure 2). GODIVA manages buffer *locations*, never interpreting contents;
the visualization code accesses the buffers directly. Here a record is a
*row*: one slot per field, in its record type's field order, holding the
field's storage — a ``bytearray`` exposed through zero-copy numpy views,
the closest Python analogue of handing out a raw pointer. A
:class:`FieldBuffer` is a view of one slot made on demand, so a record
keeps no object per field alive (ADR-020).

Where the bytes live is pluggable: with an :class:`~repro.core.arena.Arena`
a slot holds its :class:`~repro.core.arena.Allocation` (whose ``view`` is
the storage; shared memory for the sharded GBO), else a ``bytearray``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.arena import Allocation
from repro.core.types import UNKNOWN, FieldType, RecordType
from repro.errors import RecordStateError, SchemaError

#: What a slot holds between ``claim`` and the bytes landing: it counts
#: as allocated (a second claim is refused) but holds no bytes yet.
CLAIMED = b""
#: A query's array over a ``bytearray`` (``np.frombuffer`` would keep two
#: GC-tracked objects alive per array), and a view made without __init__.
_ndarray, _new_object = np.ndarray, object.__new__


def _new_storage(nbytes: int, arena) -> object:
    """``nbytes`` of zeroed storage: a ``bytearray``, or from ``arena``."""
    return bytearray(nbytes) if arena is None else arena.alloc_raw(nbytes)


def _storage(data, field_type: Optional[FieldType]):
    """A slot's bytes (an arena allocation's view); raises if empty."""
    if data is None:
        raise RecordStateError(f"field {field_type.name!r}: buffer not "
                               f"allocated")
    return data.view if data.__class__ is Allocation else data


class FieldBuffer:
    """One field's ``(size, buffer)`` pair: a view of one slot of a row.

    ``record.field(name)`` and ``alloc_field_buffer`` make a fresh view
    per call (two views of one storage, not one object);
    ``FieldBuffer(field_type)`` alone owns a one-slot row. Known sizes are
    allocated at creation, UNKNOWN ones by :meth:`allocate` (or
    ``alloc_field_buffer``); until then accessors raise.
    """

    __slots__ = ("field_type", "_arena", "_row", "_slot")

    def __init__(self, field_type: FieldType, arena=None,
                 row: Optional[List] = None, slot: int = 0):
        self.field_type = field_type
        self._arena = arena
        if row is None:
            row = [None if field_type.size is UNKNOWN
                   else _new_storage(field_type.size, arena)]
        self._row = row
        self._slot = slot

    @property
    def allocated(self) -> bool:
        """Whether the buffer holds storage (or a pending claim)."""
        return self._row[self._slot] is not None

    @property
    def size(self) -> int:
        """Buffer size in bytes (the paper's per-field size integer)."""
        return len(_storage(self._row[self._slot], self.field_type))

    def claim(self, nbytes: int) -> None:
        """Check that this UNKNOWN-size buffer may take ``nbytes`` and
        reserve its slot (:data:`CLAIMED`): a second claim fails, and
        :meth:`release` gives the claim back. The record engine claims
        under its record lock, then charges and fills, so of two racing
        allocations exactly one is charged."""
        field_type = self.field_type
        if field_type.size is not UNKNOWN:
            raise RecordStateError(
                f"field {field_type.name!r} has a fixed size "
                f"({field_type.size}); it was allocated at record creation")
        if self._row[self._slot] is not None:
            raise RecordStateError(
                f"field {field_type.name!r}: buffer already allocated")
        if nbytes < 0:
            raise ValueError("buffer size must be non-negative")
        if nbytes % field_type.data_type.itemsize != 0:
            raise SchemaError(
                f"field {field_type.name!r}: {nbytes} bytes is not a "
                f"multiple of the {field_type.data_type.name} item "
                f"size {field_type.data_type.itemsize}")
        self._row[self._slot] = CLAIMED

    def allocate(self, nbytes: int) -> None:
        """Explicitly allocate an UNKNOWN-size field's buffer."""
        self.claim(nbytes)
        try:
            self._row[self._slot] = _new_storage(nbytes, self._arena)
        except BaseException:
            self._row[self._slot] = None
            raise

    def release(self) -> int:
        """Drop the buffer (or a claim), returning the bytes freed."""
        row, slot = self._row, self._slot
        data = row[slot]
        if data is None:
            return 0
        row[slot] = None
        return (len(data) if data.__class__ is not Allocation
                else self._arena.free_raw(data))

    # ------------------------------------------------------------------
    # Buffer access — the "query a dataset's buffer location" side.
    # ------------------------------------------------------------------
    def as_array(self) -> np.ndarray:
        """Zero-copy numpy view of the buffer in the field's dtype.

        This is the Python analogue of the raw pointer ``getFieldBuffer``
        returns: writes through the view mutate the stored data.
        """
        data = self._row[self._slot]
        if data.__class__ is not bytearray:
            data = _storage(data, self.field_type)
        return np.frombuffer(data, self.field_type.data_type.numpy_dtype)

    def as_bytes(self) -> bytes:
        """Immutable copy of the buffer contents (used for key values)."""
        return bytes(_storage(self._row[self._slot], self.field_type))

    def write(self, data: Union[bytes, bytearray, memoryview,
                                np.ndarray]) -> None:
        """Copy ``data`` (bytes-like or ndarray) into the buffer.

        The source must exactly fill the buffer; partial writes would leave
        silent garbage, which the library refuses even though the paper
        leaves integrity to the application.
        """
        storage = self._row[self._slot]
        if storage.__class__ is not bytearray:
            storage = _storage(storage, self.field_type)
        if data.__class__ is not bytes:
            if isinstance(data, np.ndarray):
                data = np.ascontiguousarray(
                    data, dtype=self.field_type.data_type.numpy_dtype
                ).tobytes()
            elif isinstance(data, str):
                data = data.encode("ascii")
        if len(data) != len(storage):
            raise ValueError(
                f"field {self.field_type.name!r}: write of {len(data)} "
                f"bytes into a {len(storage)}-byte buffer"
            )
        storage[:] = data

    def __repr__(self) -> str:
        data = self._row[self._slot]
        size = UNKNOWN if data is None else len(_storage(data, None))
        return f"FieldBuffer({self.field_type.name!r}, size={size!r})"


class Record:
    """A record instance: one row slot per field of its type.

    Lifecycle: created by ``new_record`` (key and known-size buffers
    allocated), optionally ``alloc_field_buffer`` for UNKNOWN-size fields,
    then ``commit_record`` snapshots the key-field bytes into the index.
    """

    __slots__ = ("record_type", "_row", "_arena", "committed", "unit_name",
                 "_key")

    def __init__(self, record_type: RecordType, arena=None):
        if not record_type.committed:
            raise SchemaError(f"record type {record_type.name!r} is not "
                              f"committed; call commit_record_type first")
        self.record_type = record_type
        self._arena = arena
        self._row = row = [None] * len(record_type.field_list)
        for slot, nbytes in record_type.fixed_slots:
            row[slot] = _new_storage(nbytes, arena)
        self.committed = False
        #: Name of the processing unit that owns this record, if any.
        self.unit_name: Optional[str] = None
        self._key: Optional[Tuple[bytes, ...]] = None

    def field(self, name: str) -> FieldBuffer:
        """A fresh :class:`FieldBuffer` view of the field's slot;
        :class:`SchemaError` if the record type has no such field."""
        record_type = self.record_type
        slot = record_type.slot_of.get(name)
        if slot is None:
            raise SchemaError(f"record type {record_type.name!r} has no "
                              f"field {name!r}")
        buf = _new_object(FieldBuffer)
        buf.field_type = record_type.field_list[slot]
        buf._arena, buf._row, buf._slot = self._arena, self._row, slot
        return buf

    def allocated_bytes(self) -> int:
        """Total bytes currently held by this record's buffers."""
        return sum(len(_storage(data, None)) for data in self._row
                   if data is not None)

    def key_tuple(self) -> Tuple[bytes, ...]:
        """Current key-field buffer contents as an index key.

        Requires every key buffer to be allocated. Note the paper's caveat:
        the key is *snapshotted at commit time*; mutating key buffers later
        desynchronizes the index (section 3.3), and this library likewise
        does not guard against it.
        """
        record_type, row = self.record_type, self._row
        values = []
        for slot in record_type.key_slots:
            data = row[slot]
            if data is None:
                raise RecordStateError(
                    f"key field {record_type.field_list[slot].name!r} is "
                    f"not allocated; cannot form key")
            values.append(bytes(_storage(data, None)))
        return tuple(values)

    @property
    def committed_key(self) -> Optional[Tuple[bytes, ...]]:
        """The key under which this record was indexed, if committed."""
        return self._key

    def mark_committed(self, key: Tuple[bytes, ...]) -> None:
        """Record that the index now holds this record under ``key``."""
        self.committed = True
        self._key = key

    def release_all(self) -> int:
        """Free every buffer; returns total bytes released."""
        row, arena = self._row, self._arena
        if arena is None:       # every slot a bytearray, CLAIMED or None
            freed = sum(map(len, filter(None, row)))
            row[:] = self.record_type.blank_row
            return freed
        freed = 0
        for slot, data in enumerate(row):
            if data is not None:
                row[slot] = None
                freed += (len(data) if data.__class__ is not Allocation
                          else arena.free_raw(data))
        return freed

    def __repr__(self) -> str:
        state = "committed" if self.committed else "uncommitted"
        return (
            f"Record({self.record_type.name!r}, {state}, "
            f"bytes={self.allocated_bytes()})"
        )
