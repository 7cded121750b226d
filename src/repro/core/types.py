"""Field types, record types, and the GODIVA data-type system.

Mirrors section 3.1 of the paper: a *field type* has a name, a data type,
and a pre-declared buffer size (possibly :data:`UNKNOWN`); a *record type*
is a named set of field types, some of which are *key* fields, finalized by
``commit_record_type``. Field types and record types are templates — "just
as database users can add data to a relational database by predefining the
schema of a relational table".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, ItemsView, List, Tuple

import numpy as np

from repro.errors import SchemaError


class _Unknown:
    """Singleton sentinel for field sizes not known at definition time."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"

    def __reduce__(self):
        return (_Unknown, ())


#: Buffer size placeholder for fields whose size is only known at read time
#: (e.g. mesh arrays whose extent is stored in the file's metadata).
UNKNOWN = _Unknown()


class DataType(enum.Enum):
    """Element types a field buffer may hold.

    The paper's example uses STRING and DOUBLE; the scientific datasets it
    describes (connectivity graphs, IDs, physical quantities) additionally
    need integer and single-precision types, so the full set covers the
    common scientific-format primitives.
    """

    STRING = ("S", 1)
    BYTE = ("u1", 1)
    INT32 = ("<i4", 4)
    INT64 = ("<i8", 8)
    FLOAT = ("<f4", 4)
    DOUBLE = ("<f8", 8)

    def __init__(self, dtype_code: str, itemsize: int):
        self.dtype_code = dtype_code
        self.itemsize = itemsize
        #: The numpy dtype used for this field's buffer view. STRING
        #: buffers are exposed as raw bytes (``uint8``); all numeric types
        #: use fixed little-endian layouts so buffers round-trip through
        #: the portable file formats unchanged.
        self.numpy_dtype = np.dtype(
            "u1" if dtype_code == "S" else dtype_code
        )


@dataclass(frozen=True)
class FieldType:
    """A named, typed, (possibly) sized field template.

    ``size`` is a byte count, or :data:`UNKNOWN` when the buffer must be
    allocated explicitly (``alloc_field_buffer``) once the actual extent is
    known — "especially useful in the common case where the data array size
    is not known until the meta data are read" (section 3.1).
    """

    name: str
    data_type: DataType
    size: object  # int byte count or UNKNOWN

    def __post_init__(self):
        if not self.name:
            raise SchemaError("field type name must be non-empty")
        if not isinstance(self.data_type, DataType):
            raise SchemaError(f"invalid data type: {self.data_type!r}")
        if self.size is not UNKNOWN:
            if not isinstance(self.size, int) or isinstance(self.size, bool):
                raise SchemaError(
                    f"field {self.name!r}: size must be an int byte count "
                    f"or UNKNOWN, got {self.size!r}"
                )
            if self.size < 0:
                raise SchemaError(f"field {self.name!r}: negative size")
            if self.size % self.data_type.itemsize != 0:
                raise SchemaError(
                    f"field {self.name!r}: size {self.size} is not a "
                    f"multiple of the {self.data_type.name} item size "
                    f"{self.data_type.itemsize}"
                )

    @property
    def has_known_size(self) -> bool:
        """Whether the buffer size was declared (not :data:`UNKNOWN`)."""
        return self.size is not UNKNOWN


class RecordType:
    """A named set of field types with designated key fields.

    Built incrementally: :meth:`insert_field` adds a (field type, is_key)
    pair, and :meth:`commit` freezes the definition. The declared number of
    key fields (``num_keys``) must match the inserted key fields at commit
    time — the paper's ``defineRecord("fluid", 2)`` declares two keys up
    front.
    """

    def __init__(self, name: str, num_keys: int):
        if not name:
            raise SchemaError("record type name must be non-empty")
        if num_keys < 1:
            raise SchemaError(
                f"record type {name!r}: must declare at least one key field"
            )
        self.name = name
        self.num_keys = num_keys
        self._fields: Dict[str, FieldType] = {}
        self._key_names: List[str] = []
        self._fixed_size_bytes = 0
        self._committed = False
        #: A record's row layout, set by :meth:`commit`: each field's
        #: slot (its position in field order), the field types and numpy
        #: dtypes by slot, the ``(slot, size)`` of each known-size field,
        #: the key fields' slots in key order, and a row of no storage.
        self.slot_of: Dict[str, int] = {}
        self.field_list: Tuple[FieldType, ...] = ()
        self.dtypes: Tuple[np.dtype, ...] = ()
        self.blank_row: Tuple[None, ...] = ()
        self.fixed_slots: Tuple[Tuple[int, int], ...] = ()
        self.key_slots: Tuple[int, ...] = ()

    @property
    def committed(self) -> bool:
        """Whether :meth:`commit` has frozen the definition."""
        return self._committed

    @property
    def field_names(self) -> Tuple[str, ...]:
        """Field names in insertion order (a record's slot order)."""
        return tuple(self._fields)

    @property
    def key_field_names(self) -> Tuple[str, ...]:
        """Key field names in insertion order — the order key values must be
        supplied to lookups."""
        return tuple(self._key_names)

    def fields(self) -> ItemsView[str, FieldType]:
        """``(name, field type)`` pairs in insertion order."""
        return self._fields.items()

    def field(self, name: str) -> FieldType:
        """The named field type; :class:`SchemaError` if absent."""
        try:
            return self._fields[name]
        except KeyError:
            raise SchemaError(
                f"record type {self.name!r} has no field {name!r}"
            ) from None

    def has_field(self, name: str) -> bool:
        """Whether the record type has a field of this name."""
        return name in self._fields

    def is_key(self, field_name: str) -> bool:
        """Whether the named field is a key field; :class:`SchemaError`
        if the record type has no such field."""
        self.field(field_name)
        return field_name in self._key_names

    def insert_field(self, field_type: FieldType, is_key: bool) -> None:
        """Add a field template; key fields must have known sizes.

        Key-field values form the index key, so their byte extents must be
        fixed at definition time (the paper's examples use fixed-width
        string IDs).
        """
        if self._committed:
            raise SchemaError(
                f"record type {self.name!r} is committed; cannot add fields"
            )
        if field_type.name in self._fields:
            raise SchemaError(
                f"record type {self.name!r} already has field "
                f"{field_type.name!r}"
            )
        if is_key and not field_type.has_known_size:
            raise SchemaError(
                f"key field {field_type.name!r} must have a known size"
            )
        self._fields[field_type.name] = field_type
        if field_type.has_known_size:
            self._fixed_size_bytes += field_type.size
        if is_key:
            if len(self._key_names) >= self.num_keys:
                raise SchemaError(
                    f"record type {self.name!r} declared {self.num_keys} "
                    f"key fields; cannot add another"
                )
            self._key_names.append(field_type.name)

    def commit(self) -> None:
        """Freeze the definition; records may now be instantiated."""
        if self._committed:
            raise SchemaError(f"record type {self.name!r} already committed")
        if not self._fields:
            raise SchemaError(
                f"record type {self.name!r} has no fields; cannot commit"
            )
        if len(self._key_names) != self.num_keys:
            raise SchemaError(
                f"record type {self.name!r} declared {self.num_keys} key "
                f"fields but {len(self._key_names)} were inserted"
            )
        self._committed = True
        self.slot_of = {name: slot for slot, name in enumerate(self._fields)}
        self.field_list = tuple(self._fields.values())
        self.dtypes = tuple(field_type.data_type.numpy_dtype
                            for field_type in self.field_list)
        self.blank_row = (None,) * len(self.field_list)
        self.fixed_slots = tuple(
            (slot, field_type.size)
            for slot, field_type in enumerate(self.field_list)
            if field_type.size is not UNKNOWN)
        self.key_slots = tuple(self.slot_of[name] for name in self._key_names)

    def fixed_size_bytes(self) -> int:
        """Total bytes of all known-size field buffers (pre-allocatable)."""
        return self._fixed_size_bytes

    def __repr__(self) -> str:
        state = "committed" if self._committed else "open"
        return (
            f"RecordType({self.name!r}, fields={len(self._fields)}, "
            f"keys={self._key_names}, {state})"
        )
