"""Records and field buffers — the GODIVA database's payload objects.

A record is "a set of developer-defined fields", each field "composed of an
integer storing the data size and a pointer to a data buffer" (section 3.1,
Figure 2). GODIVA manages buffer *locations*, never interpreting contents;
the visualization code accesses the buffers directly. Here a buffer is a
``bytearray`` exposed through zero-copy numpy views, which is the closest
Python analogue of handing out a raw pointer.

Where the bytes live is pluggable: pass an
:class:`~repro.core.arena.Arena` and buffers come from it instead of
the heap (``SharedMemoryArena`` puts them in OS shared memory for the
sharded GBO). With no arena — or the default ``HeapArena`` — storage is
the historical ``bytearray``, byte for byte.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.types import UNKNOWN, FieldType, RecordType
from repro.errors import RecordStateError, SchemaError


#: What a field buffer holds between ``claim`` and ``fill``: it counts
#: as allocated (a second claim is refused) but holds no bytes yet.
CLAIMED = b""


class FieldBuffer:
    """One field's ``(size, buffer)`` pair.

    The buffer is allocated either eagerly (known-size field types, at
    record creation) or explicitly via ``alloc_field_buffer``. Until then
    :attr:`allocated` is False and accessors raise.
    """

    __slots__ = ("field_type", "_data", "_arena", "_alloc")

    def __init__(self, field_type: FieldType, arena=None):
        self.field_type = field_type
        #: Storage: a ``bytearray`` (heap) or an arena allocation's view
        #: (a writable ``memoryview`` for shared memory) — both support
        #: ``len``, slice assignment, and ``np.frombuffer``.
        self._data = None
        self._arena = arena
        self._alloc = None
        if field_type.size is not UNKNOWN:
            self.fill(field_type.size)

    def fill(self, nbytes: int) -> None:
        """Give the buffer ``nbytes`` of zeroed storage: a ``bytearray``,
        or the arena's allocation when there is an arena."""
        if self._arena is None:
            self._data = bytearray(nbytes)
        else:
            self._alloc = self._arena.alloc_raw(nbytes)
            self._data = self._alloc.view

    @property
    def allocated(self) -> bool:
        """Whether the buffer holds storage (or a pending claim)."""
        return self._data is not None

    @property
    def size(self) -> int:
        """Buffer size in bytes (the paper's per-field size integer)."""
        if self._data is None:
            raise RecordStateError(
                f"field {self.field_type.name!r}: buffer not allocated"
            )
        return len(self._data)

    def claim(self, nbytes: int) -> None:
        """Check that this UNKNOWN-size buffer may take ``nbytes`` and
        reserve it for them: until :meth:`fill` it counts as allocated,
        so a second claim fails. :meth:`release` gives a claim back.

        The record engine claims under its record lock, then charges
        the budget and fills, so of two racing allocations exactly one
        is charged.
        """
        field_type = self.field_type
        if field_type.size is not UNKNOWN:
            raise RecordStateError(
                f"field {field_type.name!r} has a fixed size "
                f"({field_type.size}); it was allocated at record "
                f"creation"
            )
        if self._data is not None:
            raise RecordStateError(
                f"field {field_type.name!r}: buffer already allocated"
            )
        if nbytes < 0:
            raise ValueError("buffer size must be non-negative")
        if nbytes % field_type.data_type.itemsize != 0:
            raise SchemaError(
                f"field {field_type.name!r}: {nbytes} bytes is not a "
                f"multiple of the {field_type.data_type.name} item "
                f"size {field_type.data_type.itemsize}"
            )
        self._data = CLAIMED

    def allocate(self, nbytes: int) -> None:
        """Explicitly allocate an UNKNOWN-size field's buffer."""
        self.claim(nbytes)
        try:
            self.fill(nbytes)
        except BaseException:
            self._data = None
            raise

    def release(self) -> int:
        """Drop the buffer (or a claim), returning the bytes freed."""
        data = self._data
        if data is None:
            return 0
        freed = len(data)
        self._data = None
        if self._alloc is not None:
            self._arena.free_raw(self._alloc)
            self._alloc = None
        return freed

    # ------------------------------------------------------------------
    # Buffer access — the "query a dataset's buffer location" side.
    # ------------------------------------------------------------------
    def as_array(self) -> np.ndarray:
        """Zero-copy numpy view of the buffer in the field's dtype.

        This is the Python analogue of the raw pointer ``getFieldBuffer``
        returns: writes through the view mutate the stored data.
        """
        data = self._data
        if data is None:
            raise RecordStateError(
                f"field {self.field_type.name!r}: buffer not allocated"
            )
        return np.frombuffer(data, self.field_type.data_type.numpy_dtype)

    def as_bytes(self) -> bytes:
        """Immutable copy of the buffer contents (used for key values)."""
        if self._data is None:
            raise RecordStateError(
                f"field {self.field_type.name!r}: buffer not allocated"
            )
        return bytes(self._data)

    def write(self, data: Union[bytes, bytearray, memoryview,
                                np.ndarray]) -> None:
        """Copy ``data`` (bytes-like or ndarray) into the buffer.

        The source must exactly fill the buffer; partial writes would leave
        silent garbage, which the library refuses even though the paper
        leaves integrity to the application.
        """
        if self._data is None:
            raise RecordStateError(
                f"field {self.field_type.name!r}: buffer not allocated"
            )
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(
                data, dtype=self.field_type.data_type.numpy_dtype
            ).tobytes()
        elif isinstance(data, str):
            data = data.encode("ascii")
        if len(data) != len(self._data):
            raise ValueError(
                f"field {self.field_type.name!r}: write of {len(data)} "
                f"bytes into a {len(self._data)}-byte buffer"
            )
        self._data[:] = data

    def __repr__(self) -> str:
        size = len(self._data) if self._data is not None else UNKNOWN
        return f"FieldBuffer({self.field_type.name!r}, size={size!r})"


class Record:
    """A record instance: one :class:`FieldBuffer` per field of its type.

    Lifecycle: created by ``new_record`` (key and known-size buffers
    allocated), optionally ``alloc_field_buffer`` for UNKNOWN-size fields,
    then ``commit_record`` snapshots the key-field bytes into the index.
    """

    __slots__ = ("record_type", "_buffers", "committed", "unit_name", "_key")

    def __init__(self, record_type: RecordType, arena=None):
        if not record_type.committed:
            raise SchemaError(
                f"record type {record_type.name!r} is not committed; "
                f"call commit_record_type first"
            )
        self.record_type = record_type
        self._buffers: Dict[str, FieldBuffer] = {
            name: FieldBuffer(field_type, arena)
            for name, field_type in record_type.fields()
        }
        self.committed = False
        #: Name of the processing unit that owns this record, if any.
        self.unit_name: Optional[str] = None
        self._key: Optional[Tuple[bytes, ...]] = None

    def field(self, name: str) -> FieldBuffer:
        """The field's :class:`FieldBuffer`; :class:`SchemaError` if the
        record type has no such field."""
        try:
            return self._buffers[name]
        except KeyError:
            raise SchemaError(
                f"record type {self.record_type.name!r} has no field "
                f"{name!r}"
            ) from None

    def allocated_bytes(self) -> int:
        """Total bytes currently held by this record's buffers."""
        return sum(
            len(buf._data) for buf in self._buffers.values()
            if buf._data is not None
        )

    def key_tuple(self) -> Tuple[bytes, ...]:
        """Current key-field buffer contents as an index key.

        Requires every key buffer to be allocated. Note the paper's caveat:
        the key is *snapshotted at commit time*; mutating key buffers later
        desynchronizes the index (section 3.3), and this library likewise
        does not guard against it.
        """
        buffers = self._buffers
        values = []
        for name in self.record_type.key_field_names:
            data = buffers[name]._data
            if data is None:
                raise RecordStateError(
                    f"key field {name!r} is not allocated; cannot form key"
                )
            values.append(bytes(data))
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
        freed = 0
        for buf in self._buffers.values():
            # FieldBuffer.release, written out: it runs for every buffer
            # of every record a deleted or evicted unit drops.
            data = buf._data
            if data is not None:
                freed += len(data)
                buf._data = None
                if buf._alloc is not None:
                    buf._arena.free_raw(buf._alloc)
                    buf._alloc = None
        return freed

    def __repr__(self) -> str:
        state = "committed" if self.committed else "uncommitted"
        return (
            f"Record({self.record_type.name!r}, {state}, "
            f"bytes={self.allocated_bytes()})"
        )
