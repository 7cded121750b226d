"""Declarative record-schema helper.

Read callbacks run once per unit and typically (re)declare their record
types each time (section 3.3: the read function "defines the field and
record types, creates and commits new records"). :class:`RecordSchema`
captures one record type declaratively and applies it idempotently, so
callbacks can simply call ``schema.ensure(gbo)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.database import GBO
from repro.core.types import UNKNOWN, DataType


@dataclass(frozen=True)
class SchemaField:
    """One field declaration: name, type, size (bytes or UNKNOWN), key?"""

    name: str
    data_type: DataType
    size: object = UNKNOWN
    is_key: bool = False


@dataclass(frozen=True)
class RecordSchema:
    """A full record-type declaration.

    Example (the paper's Table 1)::

        FLUID = RecordSchema("fluid", (
            SchemaField("block id", DataType.STRING, 11, is_key=True),
            SchemaField("time-step id", DataType.STRING, 9, is_key=True),
            SchemaField("x coordinates", DataType.DOUBLE),
            SchemaField("y coordinates", DataType.DOUBLE),
            SchemaField("pressure", DataType.DOUBLE),
            SchemaField("temperature", DataType.DOUBLE),
        ))
        FLUID.ensure(gbo)
    """

    name: str
    fields: Tuple[SchemaField, ...]

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))

    @property
    def num_keys(self) -> int:
        """How many of the schema's fields are key fields."""
        return sum(1 for f in self.fields if f.is_key)

    @property
    def key_names(self) -> Tuple[str, ...]:
        """The key fields' names, in declaration order."""
        return tuple(f.name for f in self.fields if f.is_key)

    def ensure(self, gbo: GBO) -> None:
        """Define and commit this record type on ``gbo`` if not present.

        Safe to call concurrently from read callbacks on multiple I/O
        workers: field definitions are idempotent, and the record type
        goes through :meth:`GBO.ensure_record_type`, which resolves
        same-name races atomically instead of tripping over
        ``define_record``'s already-defined check.
        """
        for f in self.fields:
            gbo.define_field(f.name, f.data_type, f.size)
        gbo.ensure_record_type(
            self.name,
            self.num_keys,
            [(f.name, f.is_key) for f in self.fields],
        )


def fluid_sample_schema() -> RecordSchema:
    """The exact record type of the paper's Table 1."""
    return RecordSchema(
        "fluid",
        (
            SchemaField("block id", DataType.STRING, 11, is_key=True),
            SchemaField("time-step id", DataType.STRING, 9, is_key=True),
            SchemaField("x coordinates", DataType.DOUBLE),
            SchemaField("y coordinates", DataType.DOUBLE),
            SchemaField("pressure", DataType.DOUBLE),
            SchemaField("temperature", DataType.DOUBLE),
        ),
    )
