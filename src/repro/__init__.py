"""GODIVA — lightweight data management for scientific visualization.

A full reproduction of *GODIVA: Lightweight Data Management for Scientific
Visualization Applications* (ICDE 2004): the GBO in-memory buffer database
with record/field management, key lookups, background-I/O prefetching and
LRU caching, plus the substrates the paper's evaluation depends on — an
HDF4-like scientific file format, a GENx-like rocket-simulation dataset
generator, a Rocketeer/Voyager-like visualization pipeline, and a
platform simulator used by the benchmark harness.

This package exports the paper's single-process API only, so
``import repro`` loads the GBO and nothing else; the service and fleet
tiers are gathered in :mod:`repro.api`.

Quickstart::

    from repro import GBO, DataType, UNKNOWN

    with GBO(mem_mb=64) as g:
        g.define_field("block id", DataType.STRING, 11)
        g.define_field("pressure", DataType.DOUBLE, UNKNOWN)
        g.define_record("fluid", num_keys=1)
        g.insert_field("fluid", "block id", is_key=True)
        g.insert_field("fluid", "pressure", is_key=False)
        g.commit_record_type("fluid")

        rec = g.new_record("fluid")
        rec.field("block id").write(b"block_0001$")
        g.alloc_field_buffer(rec, "pressure", 80_000)
        g.commit_record(rec)

        buf = g.get_field_buffer("fluid", "pressure", [b"block_0001$"])
        buf[:] = 101325.0     # writes through to the stored buffer
"""

from repro.core import (
    GBO,
    MB,
    UNKNOWN,
    DataType,
    FieldBuffer,
    FieldType,
    GodivaStats,
    Record,
    RecordType,
    UnitHandle,
    UnitState,
    parse_mem,
)
from repro.errors import (
    AdmissionError,
    ArenaError,
    DatabaseClosedError,
    DuplicateKeyError,
    GodivaDeadlockError,
    GodivaError,
    KeyLookupError,
    MemoryBudgetError,
    ReadFunctionError,
    RecordStateError,
    SchemaError,
    StorageFormatError,
    UnitStateError,
    UnknownTypeError,
    UnknownUnitError,
)

__version__ = "1.0.0"

__all__ = [
    "GBO",
    "DataType",
    "FieldType",
    "RecordType",
    "UNKNOWN",
    "FieldBuffer",
    "Record",
    "UnitHandle",
    "UnitState",
    "GodivaStats",
    "MB",
    "parse_mem",
    "GodivaError",
    "SchemaError",
    "UnknownTypeError",
    "RecordStateError",
    "KeyLookupError",
    "DuplicateKeyError",
    "UnknownUnitError",
    "UnitStateError",
    "MemoryBudgetError",
    "GodivaDeadlockError",
    "DatabaseClosedError",
    "StorageFormatError",
    "ReadFunctionError",
    "AdmissionError",
    "ArenaError",
    "__version__",
]
