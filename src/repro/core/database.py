"""The GBO (GODIVA Buffer Object) — the in-memory GODIVA database.

One GBO per process (section 3.3); a *facade* over four layers (lock
discipline per module and in ``DESIGN.md``): RecordEngine (schema,
records, index, queries — its **own** record lock), UnitStore (unit
table), MemoryManager (accounting, eviction) and IoScheduler (prefetch
queue, workers, deadlock detection); the last three share the
facade-owned *engine* lock; global lock order is engine → record. The
paper API is unchanged: the *TG* build (``background_io=True``) drains
the queue with ``io_workers`` workers, the *G* build reads inside
``wait_unit`` (section 4.2); read callbacks run lock-free and may
re-enter the record interfaces (``REPRO_ANALYSIS=1`` sanitizes both).

A facade may also be *scoped* over another GBO's layers (the service's
tenant sessions): unit and record-type names then gain the scope's
prefix where they enter the engine, derived keys enter a scoped view
of the same cache, and read callbacks and :class:`UnitHandle` objects
see the facade and its local names.
"""

from __future__ import annotations

import time
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.analysis.primitives import TrackedCondition, TrackedLock
from repro.analysis.races import guarded_by
from repro.core.arena import Arena, HeapArena, SharedMemoryArena
from repro.core.compute import ComputePool
from repro.core.config import EngineConfig, resolve_budget
from repro.core.derived import DerivedCache
from repro.core.io_scheduler import IoScheduler
from repro.core.memory import MemoryAccountant
from repro.core.memory_manager import MemoryManager
from repro.core.record import FieldBuffer, Record
from repro.core.record_engine import RecordEngine
from repro.core.stats import GodivaStats
from repro.core.types import UNKNOWN, DataType, FieldType, RecordType
from repro.core.unit_store import UnitStore
from repro.core.units import ReadFunction, UnitHandle, UnitState
from repro.errors import DatabaseClosedError

#: Pure one-frame record delegates, fast-bound per GBO instance.
_RECORD_DELEGATES = (
    "define_field", "has_field_type", "field_type", "define_record", "has_record_type",
    "record_type", "insert_field", "commit_record_type", "ensure_record_type", "new_record",
    "alloc_field_buffer", "commit_record", "delete_record", "record_count", "records_of_type",
    "get_record", "get_field_buffer", "get_field_buffer_size", "has_record",
)


@guarded_by("_closing", "_closed", lock="_lock")
class GBO:
    """The GODIVA database object (facade over the four engine layers).

    ``mem`` / ``mem_mb`` spell the budget and ``**engine`` names any
    other :class:`~repro.core.config.EngineConfig` field (defaults and
    rules live there); ``config`` hands over a ready one instead. With
    the process compute backend and no injected arena the GBO defaults
    its arena to a :class:`~repro.core.arena.SharedMemoryArena` so
    resident buffers export zero-copy. ``arena`` is the
    :class:`~repro.core.arena.Arena` every buffer (unit payloads,
    derived products) is allocated from — default a private
    :class:`~repro.core.arena.HeapArena`, byte-identical to plain heap
    storage; pass a :class:`~repro.core.arena.SharedMemoryArena` to
    place buffers in OS shared memory (the sharded build; the GBO
    closes only arenas it created itself); ``clock``
    injects the monotonic-seconds source; ``unit_event_hook(event,
    unit_name, now)`` observes unit transitions under the engine lock
    (``added``, ``boosted``, ``read_started``, ``loaded``, ``finished``,
    ``evicted``, ``deleted``, ``failed``, ``cancelled``, and the derived
    cache's ``derived_cached`` / ``derived_hit`` / ``derived_evicted``).
    """

    #: Prefix every unit and record-type name gains on entering the
    #: engine: empty here, ``<scope>::`` on a scoped facade (:meth:`_attach`).
    _prefix = ""

    def __init__(
        self,
        mem: Union[str, int, float, None] = None,
        *,
        mem_mb: Optional[float] = None,
        config: Optional[EngineConfig] = None,
        arena: Optional[Arena] = None,
        clock: Callable[[], float] = time.monotonic,
        unit_event_hook: Optional[Callable[[str, str, float], None]] = None,
        **engine: object,
    ):
        if config is None:
            config = EngineConfig(resolve_budget(mem, mem_mb), **engine)
        elif mem is not None or mem_mb is not None or engine:
            raise TypeError(
                "config= replaces the budget and engine keywords; "
                "pass one or the other"
            )
        #: The engine configuration this GBO was built from.
        self.config = config

        self._lock = TrackedLock(f"GBO._lock@{id(self):#x}")
        self._cond = TrackedCondition(self._lock)
        self.stats = GodivaStats()
        self._closing = False
        self._closed = False
        self._owns_arena = arena is None
        if arena is None and config.process_compute:
            # Resident buffers must live in shareable memory for the
            # process pool to export them zero-copy; a HeapArena would
            # force a staging copy of every input.
            arena = SharedMemoryArena()
            self._owns_arena = True
        self._arena = arena if arena is not None else HeapArena()

        self._records = RecordEngine(stats=self.stats, clock=clock,
                                     arena=self._arena)
        self._store = UnitStore(lock=self._lock, cond=self._cond, stats=self.stats,
                                clock=clock, unit_event_hook=unit_event_hook)
        self._mem = MemoryManager(config.budget_bytes,
                                  policy=config.eviction_policy, lock=self._lock,
                                  cond=self._cond, stats=self.stats, clock=clock)
        self._io = IoScheduler(lock=self._lock, cond=self._cond, stats=self.stats,
                               clock=clock,
                               workers=config.io_workers if config.background_io else 0)
        self._derived = (
            DerivedCache(self._mem, lock=self._lock, cond=self._cond, stats=self.stats,
                         clock=clock, event_hook=unit_event_hook, arena=self._arena)
            if config.derived_cache else None
        )
        self._store.bind(memory=self._mem, scheduler=self._io)
        self._mem.bind(units=self._store, scheduler=self._io,
                       release_records=self._records.drop_unit_records,
                       closing=lambda: self._closing, derived=self._derived,
                       arena=self._arena)
        self._io.bind(owner=self, units=self._store, memory=self._mem,
                      check_open=self._check_open, closing=lambda: self._closing)
        self._records.bind(charge=self._charge_bytes, release=self._release_bytes,
                           current_load_unit=self._io.current_load_unit,
                           touch_unit=self._touch_unit)
        # The compute plane has its own leaf lock — pool tasks may take
        # the engine lock (extraction kernels do), never the reverse.
        self._compute = config.make_compute_pool(
            "godiva-compute", stats=self.stats, clock=clock,
            share_arena=self._arena)
        self._io.start()
        self._compute.start()
        if type(self) is GBO:
            # Fast paths: shadow the pure delegate methods (kept below as
            # real defs for docs/overrides) with layer-bound equivalents —
            # one frame less per call; skipped in subclasses so overrides win.
            for name in _RECORD_DELEGATES:
                setattr(self, name, getattr(self._records, name))
            self.read_unit = self._io.read_unit
            self.wait_unit = self._io.wait_unit

    def _attach(self, engine: "GBO", scope: str) -> None:
        """Make this (uninitialised) facade a view of ``engine`` scoped
        to ``scope``: it shares the engine's layers, lock, condition,
        stats and pools, builds no engine of its own, and owns none of
        the engine's teardown (a subclass overrides ``close``,
        ``closed`` and ``_check_open``). Unit and record-type names gain
        ``<scope>::``; field types stay shared; ``derived`` is the
        cache's view of the same scope."""
        self.config, self.stats = engine.config, engine.stats
        self._lock, self._cond = engine._lock, engine._cond
        self._arena, self._compute = engine._arena, engine._compute
        self._records, self._store = engine._records, engine._store
        self._mem, self._io = engine._mem, engine._io
        self._derived = (None if engine._derived is None
                         else engine._derived._scoped(scope))
        self._prefix = f"{scope}::"

    def _local_read_fn(self, read_fn: Optional[ReadFunction]) -> Optional[ReadFunction]:
        """``read_fn`` as the engine calls it, ``(engine, name)``, adapted
        so it receives ``(this facade, local name)``; unchanged unscoped."""
        if not self._prefix or read_fn is None:
            return read_fn
        cut = len(self._prefix)
        return lambda _engine, name: read_fn(self, name[cut:])

    def _blocking(self, verb: Callable[..., None], *args: Any) -> None:
        """Run a blocking unit verb (``read_unit`` / ``wait_unit`` of the
        I/O layer) — the hook a scoped facade overrides to report a
        close racing the block."""
        verb(*args)

    # Record-layer seams; called WITHOUT the record lock held, so the
    # engine → record lock order is never reversed.
    def _charge_bytes(self, nbytes: int) -> None:
        with self._cond:
            self._mem.charge(nbytes)

    def _release_bytes(self, nbytes: int, unit_name: Optional[str]) -> None:
        with self._cond:
            self._mem.release(nbytes, unit_name)
            self._cond.notify_all()

    def _touch_unit(self, unit_name: str) -> None:
        with self._lock:
            self._mem.touch(unit_name)

    @property
    def derived(self) -> Optional[DerivedCache]:
        """The derived-data memo cache, or None when disabled.

        Entries are charged to this GBO's memory budget and evicted by
        its eviction policy alongside units; data backends use it to
        memoize derived arrays (see ``repro.core.derived``).
        """
        return self._derived

    @property
    def arena(self) -> Arena:
        """The buffer arena every record payload and derived product is
        allocated from (a :class:`~repro.core.arena.HeapArena` unless
        one was injected). Shard hosts expose frames from it via
        ``export_token``."""
        return self._arena

    @property
    def compute(self) -> ComputePool:
        """The compute plane's worker pool (tile rasterization and
        parallel extraction fan out here). With ``compute_workers=1``
        the pool runs every task inline at submission — the
        paper-faithful serial build."""
        return self._compute

    @property
    def compute_workers(self) -> int:
        """Configured compute-pool worker count (1 = serial inline)."""
        return self._compute.workers

    @property
    def compute_backend(self) -> str:
        """The configured compute-plane flavour: ``'thread'`` or
        ``'process'``. (With ``compute_workers=1`` both flavours run
        tasks inline and no threads or processes exist.)"""
        return self.config.compute_backend

    @property
    def background_io(self) -> bool:
        """Whether a background I/O worker pool is running."""
        return bool(self._io.threads)

    @property
    def io_workers(self) -> int:
        """Number of background I/O worker threads (0 in the G build)."""
        return len(self._io.threads)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed."""
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Terminate the I/O workers and free all buffers (the paper
        ties this to GBO destruction; also ``with`` exit).

        Idempotent and safe to race: exactly one caller runs the
        teardown; every other concurrent or subsequent ``close()``
        blocks until that teardown completes and then returns. Blocked
        waiters and prefetching workers observe ``_closing`` and raise
        :class:`~repro.errors.DatabaseClosedError` rather than hang.
        """
        with self._cond:
            if self._closed:
                return
            if self._closing:
                # Another thread owns the teardown; wait it out so a
                # racing close() never returns before the GBO is dead —
                # and never runs the teardown twice.
                while not self._closed:
                    self._cond.wait()
                return
            self._closing = True
            self._cond.notify_all()
        self._records.begin_close()
        self._io.join()
        # Pool tasks blocked on the engine observe _closing and fail
        # fast, so this join cannot hang; queued tasks are cancelled.
        self._compute.close()
        with self._cond:
            if self._derived is not None:
                self._derived.clear_locked()
            self._store.clear()
            self._io.clear_queue()
            self._mem.drain()
            self._closed = True
            self._cond.notify_all()
        self._records.shutdown()
        if self._owns_arena:
            # Injected arenas outlive the GBO (the shard host tears its
            # arena down after the coordinator detaches its views).
            self._arena.close()

    def __enter__(self) -> "GBO":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        """Raise once close() has begun. Engine lock held."""
        if self._closing or self._closed:
            raise DatabaseClosedError("GBO has been closed")

    @property
    def mem_budget_bytes(self) -> int:
        """The current memory budget in bytes."""
        with self._lock:
            return self._mem.accountant.budget_bytes

    @property
    def mem_used_bytes(self) -> int:
        """Bytes currently charged against the budget."""
        with self._lock:
            return self._mem.accountant.used_bytes

    @property
    def mem_high_water_bytes(self) -> int:
        """The highest usage ever observed."""
        with self._lock:
            return self._mem.accountant.high_water_bytes

    def set_mem_space(self, mem_mb: Optional[float] = None,
                      *, mem: Union[str, int, float, None] = None) -> None:
        """Adjust the budget (setMemSpace, MB positional); shrinking
        evicts finished units immediately."""
        budget = resolve_budget(mem, mem_mb)
        with self._cond:
            self._check_open()
            self._mem.set_budget(budget)

    def memory_report(self) -> dict:
        """Diagnostic snapshot of where the budget went, per unit."""
        with self._lock:
            return self._mem.report()

    def define_field(self, name: str, data_type: DataType,
                     size: int = UNKNOWN) -> FieldType:
        """Define (and name) a field type: name, data type, buffer size."""
        return self._records.define_field(name, data_type, size)

    def has_field_type(self, name: str) -> bool:
        """Whether a field type with this name exists."""
        return self._records.has_field_type(name)

    def field_type(self, name: str) -> FieldType:
        """The named field type, or raise :class:`UnknownTypeError`."""
        return self._records.field_type(name)

    def define_record(self, name: str, num_keys: int) -> RecordType:
        """Start a new record type with ``num_keys`` declared key fields."""
        return self._records.define_record(self._prefix + name, num_keys)

    def has_record_type(self, name: str) -> bool:
        """Whether a record type with this name exists."""
        return self._records.has_record_type(self._prefix + name)

    def record_type(self, name: str) -> RecordType:
        """The named record type, or raise :class:`UnknownTypeError`."""
        return self._records.record_type(self._prefix + name)

    def insert_field(self, record_type_name: str, field_name: str,
                     is_key: bool) -> None:
        """Add a predefined field type to a record type's field set."""
        self._records.insert_field(self._prefix + record_type_name, field_name, is_key)

    def commit_record_type(self, name: str) -> None:
        """Conclude a record type definition; instances may now be made."""
        self._records.commit_record_type(self._prefix + name)

    def ensure_record_type(self, name: str, num_keys: int,
                           fields: Sequence[Tuple[str, bool]]) -> RecordType:
        """Atomically look up, or define and commit, a record type."""
        return self._records.ensure_record_type(self._prefix + name, num_keys, fields)

    def new_record(self, record_type_name: str) -> Record:
        """Create a record; known-size field buffers are allocated now."""
        return self._records.new_record(self._prefix + record_type_name)

    def alloc_field_buffer(self, record: Record, field_name: str,
                           nbytes: int) -> FieldBuffer:
        """Allocate an UNKNOWN-size field's buffer (size now known)."""
        return self._records.alloc_field_buffer(record, field_name, nbytes)

    def commit_record(self, record: Record) -> None:
        """Insert the record into the index under its key-field values."""
        self._records.commit_record(record)

    def delete_record(self, record: Record) -> None:
        """Unindex a single record and free its buffers."""
        self._records.delete_record(record)

    def record_count(self, record_type_name: Optional[str] = None) -> int:
        """Number of committed records (optionally of one type)."""
        if record_type_name is not None:
            record_type_name = self._prefix + record_type_name
        return self._records.record_count(record_type_name)

    def records_of_type(self, record_type_name: str) -> List[Record]:
        """All committed records of a type, ordered by key."""
        return self._records.records_of_type(self._prefix + record_type_name)

    def get_record(self, record_type_name: str,
                   key_values: Sequence) -> Record:
        """Key lookup: the record under the key-value combination."""
        return self._records.get_record(self._prefix + record_type_name, key_values)

    def get_field_buffer(self, record_type_name: str, field_name: str,
                         key_values: Sequence) -> np.ndarray:
        """The live, zero-copy data buffer of the looked-up field."""
        return self._records.get_field_buffer(self._prefix + record_type_name,
                                              field_name, key_values)

    def get_field_buffer_size(self, record_type_name: str, field_name: str,
                              key_values: Sequence) -> int:
        """The looked-up field's buffer size in bytes."""
        return self._records.get_field_buffer_size(self._prefix + record_type_name,
                                                   field_name, key_values)

    def has_record(self, record_type_name: str,
                   key_values: Sequence) -> bool:
        """Whether a record exists under the key-value combination."""
        return self._records.has_record(self._prefix + record_type_name, key_values)

    def add_unit(self, name: str, read_fn: ReadFunction,
                 priority: float = 0.0) -> UnitHandle:
        """Queue a unit for prefetch (non-blocking); served highest
        priority first, FIFO ties (the paper's prefetch list)."""
        if read_fn is None:
            raise ValueError("add_unit requires a read function")
        read_fn = self._local_read_fn(read_fn)
        with self._cond:
            self._check_open()
            self._io.enqueue(self._prefix + name, read_fn, priority)
        return UnitHandle(self, name)

    def read_unit(self, name: str,
                  read_fn: Optional[ReadFunction] = None) -> None:
        """Blocking foreground read (interactive mode, section 3.2);
        never from inside a read callback."""
        self._blocking(self._io.read_unit, self._prefix + name,
                       self._local_read_fn(read_fn))

    def wait_unit(self, name: str) -> None:
        """Block until resident (evicted units re-queue, or re-read
        inline in the G build); raises on a true deadlock."""
        self._blocking(self._io.wait_unit, self._prefix + name)

    def finish_unit(self, name: str) -> None:
        """Declare processing complete; evictable once unreferenced."""
        with self._cond:
            self._check_open()
            self._store.finish(self._prefix + name)

    def delete_unit(self, name: str) -> None:
        """Explicitly delete the unit's records and free their memory."""
        with self._cond:
            self._check_open()
            self._store.delete(self._prefix + name)

    def cancel_unit(self, name: str) -> bool:
        """Cancel a pending prefetch: True only if still QUEUED (never
        interrupts a started read — then False)."""
        with self._cond:
            self._check_open()
            return self._store.cancel(self._prefix + name)

    def unit(self, name: str) -> UnitHandle:
        """A :class:`UnitHandle` for an already-added unit."""
        with self._lock:
            self._store.require(self._prefix + name)
            return UnitHandle(self, name)

    def unit_priority(self, name: str) -> float:
        """The unit's stored prefetch priority."""
        with self._lock:
            return self._store.priority_of(self._prefix + name)

    def set_unit_priority(self, name: str, priority: float) -> None:
        """Change a unit's prefetch priority, reordering if still QUEUED."""
        with self._cond:
            self._check_open()
            self._io.reprioritize(self._prefix + name, priority)

    @property
    def queue_depth(self) -> int:
        """Units currently pending in the prefetch queue."""
        with self._lock:
            return self._io.queue_len()

    def worker_report(self) -> List[dict]:
        """Per-worker utilization dicts (empty in the G build)."""
        with self._lock:
            return self._io.report()

    def unit_state(self, name: str) -> UnitState:
        """The unit's lifecycle state."""
        with self._lock:
            return self._store.state_of(self._prefix + name)

    def is_resident(self, name: str) -> bool:
        """Whether the named unit is currently RESIDENT."""
        with self._lock:
            unit = self._store.get(self._prefix + name)
            return unit is not None and unit.state is UnitState.RESIDENT

    def try_wait_unit(self, name: str) -> bool:
        """Non-blocking :meth:`wait_unit`: take a reference iff already
        RESIDENT.

        Atomically (under the engine lock) checks residency and, on a
        hit, pins the unit exactly as a hitting ``wait_unit`` would
        (wait-hit counted, reference taken, removed from the evictable
        set) and returns True. Returns False — touching nothing — when
        the unit is unknown, still loading, or was evicted. The frame-
        pipelining driver uses this for its lookahead so overlap never
        degrades into a blocking (and potentially deadlocking) load;
        an ``is_resident()``-then-``wait_unit()`` pair would race
        eviction between the two calls.
        """
        with self._lock:
            self._check_open()
            unit = self._store.get(self._prefix + name)
            if unit is None or unit.state is not UnitState.RESIDENT:
                return False
            self.stats.wait_hits += 1
            unit.ref_count += 1
            self._mem.remove_evictable(unit.name)
            return True

    def list_units(self) -> List[Tuple[str, UnitState]]:
        """(name, state) for every known unit."""
        with self._lock:
            return self._store.list_units()

    def resident_bytes_of(self, name: str) -> int:
        """Bytes currently charged to the named unit."""
        with self._lock:
            return self._store.resident_bytes_of(self._prefix + name)

    # Layer views: GBO internals under their original names (used by
    # analysis.invariants and white-box tests); engine-lock rules apply.
    @property
    def _units(self) -> Dict[str, object]:
        return self._store.units  # unit table (UnitStore)

    @property
    def _memory(self) -> MemoryAccountant:
        return self._mem.accountant  # byte accountant (MemoryManager)

    @property
    def _policy(self) -> object:
        return self._mem.policy  # eviction policy (MemoryManager)

    @property
    def _queue(self) -> object:
        return self._io.queue  # pending-unit queue (IoScheduler)

    @property
    def _io_blocked(self) -> Dict[object, Tuple[int, Optional[str]]]:
        return self._mem.io_blocked  # blocked workers (MemoryManager)

    @property
    def _abort_loads(self) -> set:
        return self._mem.abort_loads  # load rollbacks (MemoryManager)
