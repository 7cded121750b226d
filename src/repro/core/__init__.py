"""The GODIVA core: the paper's primary contribution.

Exports the GBO database object, the type system, and the supporting
pieces (units, policies, stats).
"""

from repro.core.cache import (
    EvictionPolicy,
    FifoEvictionPolicy,
    LruEvictionPolicy,
    MruEvictionPolicy,
    make_policy,
)
from repro.core.config import EngineConfig
from repro.core.database import GBO
from repro.core.derived import (
    DERIVED_PREFIX,
    DerivedCache,
    content_token,
    nbytes_of,
)
from repro.core.index import normalize_key_values
from repro.core.io_scheduler import IoScheduler
from repro.core.memory_manager import LoadYield, MemoryManager
from repro.core.record_engine import RecordEngine
from repro.core.unit_store import UnitStore
from repro.core.memory import (
    MB,
    RECORD_OVERHEAD_BYTES,
    MemoryAccountant,
    parse_mem,
)
from repro.core.record import FieldBuffer, Record
from repro.core.stats import GodivaStats
from repro.core.types import UNKNOWN, DataType, FieldType, RecordType
from repro.core.units import ProcessingUnit, UnitHandle, UnitState

__all__ = [
    "GBO",
    "EngineConfig",
    "DataType",
    "FieldType",
    "RecordType",
    "UNKNOWN",
    "FieldBuffer",
    "Record",
    "ProcessingUnit",
    "UnitHandle",
    "UnitState",
    "GodivaStats",
    "MemoryAccountant",
    "parse_mem",
    "MB",
    "RECORD_OVERHEAD_BYTES",
    "EvictionPolicy",
    "LruEvictionPolicy",
    "MruEvictionPolicy",
    "FifoEvictionPolicy",
    "make_policy",
    "normalize_key_values",
    "RecordEngine",
    "UnitStore",
    "MemoryManager",
    "IoScheduler",
    "LoadYield",
    "DerivedCache",
    "DERIVED_PREFIX",
    "content_token",
    "nbytes_of",
]
