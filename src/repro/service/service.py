"""GodivaService — one shared GODIVA engine, many tenant sessions.

The paper's GBO is one database per process; the service re-hosts that
exact engine (a private :class:`~repro.core.database.GBO`, so the
paper-faithful API is untouched) behind **session handles**. Each
:class:`ServiceSession` belongs to one tenant and sees a private
namespace: unit and record-type names are transparently prefixed
``tenant::<id>::``, and the session's view of the derived-data cache
(:class:`TenantDerivedView`) scopes keys the same way — while records,
buffers, the prefetch queue, the I/O worker pool, and the one global
memory budget are shared.

Tenancy is enforced by three pieces from :mod:`repro.service.tenancy`:
the :class:`~repro.service.tenancy.TenantLedger` (per-tenant carve-out
floors registered at admission), admission control in
:meth:`GodivaService.create_session` (a session whose carve-out would
over-subscribe the global budget is rejected — or queued until another
session closes), and the
:class:`~repro.service.tenancy.TenantAwareEvictionPolicy` injected as
the engine's eviction policy (a thrashing tenant evicts itself, not a
neighbour under its floor).

Locking: the service introduces **no lock of its own**. All service
state (the session table, closing flags, the ledger) is guarded by the
engine lock borrowed from the wrapped GBO, and admission queuing waits
on the engine condition — so session creation, unit I/O, eviction, and
close all serialize through the one lock order the sanitizer already
checks (engine → record).

Close semantics mirror the PR-4/PR-6 GBO contract: ``close()`` is
idempotent and race-safe (one closer runs the teardown, concurrent
closers block until it finishes), and any session call racing a
``ServiceSession.close``/``GodivaService.close`` raises
:class:`~repro.errors.DatabaseClosedError` rather than hanging.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import (Any, Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.analysis.races import guarded_by
from repro.core.cache import make_policy
from repro.core.config import EngineConfig, resolve_budget
from repro.core.database import GBO
from repro.core.derived import DERIVED_PREFIX, DerivedCache
from repro.core.record import FieldBuffer, Record
from repro.core.stats import GodivaStats
from repro.core.types import UNKNOWN, DataType, FieldType, RecordType
from repro.core.units import ReadFunction, UnitHandle, UnitState
from repro.errors import (AdmissionError, DatabaseClosedError,
                          UnitStateError, UnknownUnitError)
from repro.service.tenancy import (TENANT_PREFIX, TenantBudget, TenantLedger,
                                   TenantAwareEvictionPolicy, scoped_name,
                                   unscoped_name, validate_tenant_id)


class TenantDerivedView:
    """One tenant's window onto the shared derived-data cache.

    Keys (and token identities) are prefixed with the tenant scope
    before reaching the shared :class:`~repro.core.derived.DerivedCache`,
    so two tenants using identical keys never observe each other's
    entries — and every cached byte is attributable (and charged) to
    its owner by name (``derived::tenant::<id>|...``). The interface
    mirrors the cache's client surface, so pipeline code written
    against a GBO's ``derived`` runs unchanged against a session's.
    """

    __slots__ = ("_cache", "_scope")

    def __init__(self, cache: DerivedCache, tenant: str) -> None:
        self._cache = cache
        self._scope = f"{TENANT_PREFIX}{tenant}"

    def _scoped(self, key: Any) -> Tuple[Any, ...]:
        """The shared-cache key for a tenant-local key."""
        if isinstance(key, (tuple, list)):
            return (self._scope, *key)
        return (self._scope, key)

    def get(self, key: Any) -> Optional[Any]:
        """The tenant's cached value for ``key``, or None."""
        return self._cache.get(self._scoped(key))

    def put(self, key: Any, value: Any,
            nbytes: Optional[int] = None) -> Any:
        """Insert a computed value under the tenant's scope."""
        return self._cache.put(self._scoped(key), value, nbytes=nbytes)

    def get_or_compute(self, key: Any, compute: Callable[[], Any],
                       nbytes: Optional[int] = None) -> Any:
        """Memoized call within the tenant's scope."""
        return self._cache.get_or_compute(self._scoped(key), compute,
                                          nbytes=nbytes)

    def invalidate(self, key: Any) -> bool:
        """Drop one of the tenant's entries."""
        return self._cache.invalidate(self._scoped(key))

    def token(self, identity: Hashable,
              array_provider: Callable[[], np.ndarray]) -> str:
        """Tenant-scoped content token (see ``DerivedCache.token``).

        The identity memo is scoped too: the same identity tuple in two
        tenants may name different bits, so sharing the memo would
        alias their tokens.
        """
        return self._cache.token((self._scope, identity), array_provider)

    def folded_token(
        self, identity: Hashable,
        parts_provider: Callable[[], Iterable[Optional[str]]],
    ) -> Optional[str]:
        """Tenant-scoped memoized fold (see
        ``DerivedCache.folded_token``)."""
        return self._cache.folded_token((self._scope, identity),
                                        parts_provider)

    def __contains__(self, key: Any) -> bool:
        return self._scoped(key) in self._cache

    @property
    def stats(self) -> GodivaStats:
        """The shared stats sink (``derived_*`` counters are global)."""
        return self._cache.stats


@guarded_by("_session_closed", lock="_lock")
class ServiceSession:
    """One tenant's handle on the shared engine.

    Sessions are created by :meth:`GodivaService.create_session` and
    expose the familiar GBO surface — unit verbs (``add_unit`` /
    ``wait_unit`` / ``read_unit`` / ``finish_unit`` / ...), the record
    and schema interfaces, and a ``derived`` view — with every unit and
    record-type name transparently scoped to the tenant. Field *types*
    are shared across tenants (they describe data layout, not data);
    conflicting redefinitions raise ``SchemaError`` exactly as they
    would inside one GBO.

    Read callbacks registered through a session are invoked as
    ``read_fn(session, logical_name)`` — the callback sees the *session*
    (scoped record interfaces) and the tenant-local unit name, so
    callbacks written for a private GBO port unchanged.

    ``close()`` (also ``with`` exit) deletes the tenant's units, drops
    the tenant's derived entries, and releases the carve-out; any call
    blocked in ``wait_unit``/``read_unit`` at that moment raises
    :class:`~repro.errors.DatabaseClosedError`. The session never
    closes the shared engine.
    """

    def __init__(self, service: "GodivaService", tenant: str,
                 budget: TenantBudget) -> None:
        self._service = service
        self._gbo = service._gbo
        self._lock = service._lock
        self._cond = service._cond
        self.tenant = tenant
        self._budget = budget
        self._session_closed = False

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def scoped(self, name: str) -> str:
        """The engine-side (tenant-prefixed) form of a local name."""
        return scoped_name(self.tenant, name)

    def unscoped(self, name: str) -> str:
        """The tenant-local form of an engine-side name."""
        return unscoped_name(self.tenant, name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether this session (or its service) has been closed."""
        with self._lock:
            return self._closed_locked()

    def _closed_locked(self) -> bool:
        """Session-side closed predicate. Lock held."""
        return (self._session_closed or self._service._closing
                or self._service._service_closed)

    def _check_open_locked(self) -> None:
        """Raise on a closed session/service/engine. Lock held."""
        if self._closed_locked():
            raise DatabaseClosedError(
                f"session for tenant {self.tenant!r} is closed"
            )
        self._gbo._check_open()

    def _translate_closed(self, exc: Exception) -> None:
        """Re-raise a unit-state error as DatabaseClosedError when the
        session was closed under the caller (close deletes the tenant's
        units, so blocked waiters surface unit errors, not hangs)."""
        with self._lock:
            closed = self._closed_locked()
        if closed:
            raise DatabaseClosedError(
                f"session for tenant {self.tenant!r} closed during the call"
            ) from None
        raise exc

    def close(self) -> None:
        """Tear down the tenant's footprint; idempotent and race-safe.

        Marks the session closed, deletes the tenant's units (waking
        any of the tenant's blocked waiters into
        :class:`~repro.errors.DatabaseClosedError`), drops the tenant's
        derived-cache entries, and releases the carve-out so queued
        admissions can proceed. The shared engine stays up.
        """
        with self._cond:
            if self._session_closed:
                return
            self._session_closed = True
            names = [
                name for name in self._gbo._units
                if name.startswith(f"{TENANT_PREFIX}{self.tenant}::")
            ]
            self._cond.notify_all()
        for name in names:
            try:
                self._gbo.delete_unit(name)
            except (UnknownUnitError, UnitStateError, DatabaseClosedError):
                pass
        with self._cond:
            derived = self._gbo.derived
            # The engine lock is held: read the guarded flag directly
            # (the `closed` property would re-acquire and self-deadlock).
            if derived is not None and not self._gbo._closed:
                derived.invalidate_prefix_locked(
                    f"{DERIVED_PREFIX}{TENANT_PREFIX}{self.tenant}|"
                )
            self._service._ledger.unregister(self.tenant)
            self._service._sessions.pop(self.tenant, None)
            self._cond.notify_all()

    def __enter__(self) -> "ServiceSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Unit verbs (client-facing: checked against session close)
    # ------------------------------------------------------------------
    def add_unit(self, name: str, read_fn: ReadFunction,
                 priority: float = 0.0) -> UnitHandle:
        """Queue a prefetch of the tenant's unit ``name``.

        The returned handle is bound to *this session* and the local
        name, so ``handle.wait()``/``handle.finish()`` go through the
        session's checks and scoping.
        """
        if read_fn is None:
            raise ValueError("add_unit requires a read function")
        wrapped = self._wrap_read_fn(read_fn)
        with self._cond:
            self._check_open_locked()
            self._gbo._io.enqueue(self.scoped(name), wrapped, priority)
        return UnitHandle(self, name)

    def _wrap_read_fn(self, read_fn: ReadFunction) -> ReadFunction:
        """Adapt a session callback to the engine's calling convention.

        The engine invokes ``wrapped(engine_gbo, scoped_name)``; the
        client's function receives ``(session, local_name)``. No closed
        check here — a session close racing an in-flight read must not
        leak :class:`DatabaseClosedError` into the I/O worker loop
        (the store's pending-delete path retires the unit instead).
        """
        session = self

        def wrapped(_engine: object, scoped: str) -> None:
            read_fn(session, session.unscoped(scoped))

        return wrapped

    def read_unit(self, name: str,
                  read_fn: Optional[ReadFunction] = None) -> None:
        """Blocking foreground read of the tenant's unit."""
        with self._lock:
            self._check_open_locked()
        wrapped = self._wrap_read_fn(read_fn) if read_fn is not None else None
        try:
            self._gbo.read_unit(self.scoped(name), wrapped)
        except (UnknownUnitError, UnitStateError) as exc:
            self._translate_closed(exc)

    def wait_unit(self, name: str) -> None:
        """Block until the tenant's unit is resident.

        Raises :class:`~repro.errors.DatabaseClosedError` (never hangs)
        when the session or service closes mid-wait.
        """
        with self._lock:
            self._check_open_locked()
        try:
            self._gbo.wait_unit(self.scoped(name))
        except (UnknownUnitError, UnitStateError) as exc:
            self._translate_closed(exc)

    def finish_unit(self, name: str) -> None:
        """Release one reference on the tenant's unit."""
        with self._cond:
            self._check_open_locked()
            self._gbo._store.finish(self.scoped(name))

    def delete_unit(self, name: str) -> None:
        """Delete the tenant's unit and free its records."""
        with self._cond:
            self._check_open_locked()
            self._gbo._store.delete(self.scoped(name))

    def cancel_unit(self, name: str) -> bool:
        """Cancel the tenant's pending prefetch (False once started)."""
        with self._cond:
            self._check_open_locked()
            return self._gbo._store.cancel(self.scoped(name))

    def acquire(self, name: str, read_fn: ReadFunction,
                priority: float = 0.0) -> UnitHandle:
        """Add-or-wait convenience: ensure the unit is queued, then
        block until resident. Safe to call when the unit is already
        active (the add is skipped)."""
        try:
            handle = self.add_unit(name, read_fn, priority)
        except UnitStateError:
            handle = UnitHandle(self, name)
        return handle.wait()

    def unit(self, name: str) -> UnitHandle:
        """A handle for an already-added unit of this tenant."""
        with self._lock:
            self._check_open_locked()
            self._gbo._store.require(self.scoped(name))
        return UnitHandle(self, name)

    def unit_state(self, name: str) -> UnitState:
        """The tenant unit's lifecycle state."""
        with self._lock:
            return self._gbo._store.state_of(self.scoped(name))

    def is_resident(self, name: str) -> bool:
        """Whether the tenant's unit is currently RESIDENT."""
        return self._gbo.is_resident(self.scoped(name))

    def try_wait_unit(self, name: str) -> bool:
        """Non-blocking :meth:`wait_unit`: atomically pin the tenant's
        unit iff already RESIDENT (True), else touch nothing (False)."""
        with self._lock:
            self._check_open_locked()
        return self._gbo.try_wait_unit(self.scoped(name))

    def unit_priority(self, name: str) -> float:
        """The tenant unit's stored prefetch priority."""
        return self._gbo.unit_priority(self.scoped(name))

    def set_unit_priority(self, name: str, priority: float) -> None:
        """Change the tenant unit's prefetch priority."""
        with self._cond:
            self._check_open_locked()
            self._gbo._io.reprioritize(self.scoped(name), priority)

    def resident_bytes_of(self, name: str) -> int:
        """Bytes currently charged to the tenant's unit."""
        return self._gbo.resident_bytes_of(self.scoped(name))

    def list_units(self) -> List[Tuple[str, UnitState]]:
        """(local name, state) for every unit of this tenant."""
        prefix = f"{TENANT_PREFIX}{self.tenant}::"
        with self._lock:
            return [
                (name[len(prefix):], state)
                for name, state in self._gbo._store.list_units()
                if name.startswith(prefix)
            ]

    # ------------------------------------------------------------------
    # Record & schema interfaces (unchecked: these run inside read
    # callbacks, which must keep working while a racing session close
    # settles — the store retires pending-delete units after the read)
    # ------------------------------------------------------------------
    def define_field(self, name: str, data_type: DataType,
                     size: int = UNKNOWN) -> FieldType:
        """Define a field type (field types are shared across tenants)."""
        return self._gbo.define_field(name, data_type, size)

    def has_field_type(self, name: str) -> bool:
        """Whether a (shared) field type with this name exists."""
        return self._gbo.has_field_type(name)

    def field_type(self, name: str) -> FieldType:
        """The named (shared) field type."""
        return self._gbo.field_type(name)

    def define_record(self, name: str, num_keys: int) -> RecordType:
        """Start a record type in the tenant's namespace."""
        return self._gbo.define_record(self.scoped(name), num_keys)

    def has_record_type(self, name: str) -> bool:
        """Whether the tenant has a record type of this name."""
        return self._gbo.has_record_type(self.scoped(name))

    def record_type(self, name: str) -> RecordType:
        """The tenant's named record type."""
        return self._gbo.record_type(self.scoped(name))

    def insert_field(self, record_type_name: str, field_name: str,
                     is_key: bool) -> None:
        """Add a shared field type to a tenant record type."""
        self._gbo.insert_field(self.scoped(record_type_name),
                               field_name, is_key)

    def commit_record_type(self, name: str) -> None:
        """Conclude a tenant record-type definition."""
        self._gbo.commit_record_type(self.scoped(name))

    def ensure_record_type(self, name: str, num_keys: int,
                           fields: Sequence[Tuple[str, bool]]) -> RecordType:
        """Atomically look up, or define and commit, a tenant record type."""
        return self._gbo.ensure_record_type(self.scoped(name),
                                            num_keys, fields)

    def new_record(self, record_type_name: str) -> Record:
        """Create a record of a tenant record type."""
        return self._gbo.new_record(self.scoped(record_type_name))

    def alloc_field_buffer(self, record: Record, field_name: str,
                           nbytes: int) -> FieldBuffer:
        """Allocate an UNKNOWN-size field's buffer."""
        return self._gbo.alloc_field_buffer(record, field_name, nbytes)

    def commit_record(self, record: Record) -> None:
        """Insert the record into the shared index."""
        self._gbo.commit_record(record)

    def delete_record(self, record: Record) -> None:
        """Unindex a single record and free its buffers."""
        self._gbo.delete_record(record)

    def record_count(self, record_type_name: Optional[str] = None) -> int:
        """Committed records of one tenant type (or the global count)."""
        if record_type_name is None:
            return self._gbo.record_count(None)
        return self._gbo.record_count(self.scoped(record_type_name))

    def records_of_type(self, record_type_name: str) -> List[Record]:
        """All committed records of a tenant type, ordered by key."""
        return self._gbo.records_of_type(self.scoped(record_type_name))

    def get_record(self, record_type_name: str,
                   key_values: Sequence) -> Record:
        """Key lookup within a tenant record type."""
        return self._gbo.get_record(self.scoped(record_type_name), key_values)

    def get_field_buffer(self, record_type_name: str, field_name: str,
                         key_values: Sequence) -> np.ndarray:
        """The live, zero-copy buffer of the looked-up tenant field."""
        return self._gbo.get_field_buffer(self.scoped(record_type_name),
                                          field_name, key_values)

    def get_field_buffer_size(self, record_type_name: str, field_name: str,
                              key_values: Sequence) -> int:
        """The looked-up tenant field's buffer size in bytes."""
        return self._gbo.get_field_buffer_size(self.scoped(record_type_name),
                                               field_name, key_values)

    def has_record(self, record_type_name: str,
                   key_values: Sequence) -> bool:
        """Whether the tenant has a record under this key combination."""
        return self._gbo.has_record(self.scoped(record_type_name), key_values)

    # ------------------------------------------------------------------
    # Shared-plane views
    # ------------------------------------------------------------------
    @property
    def derived(self) -> Optional[TenantDerivedView]:
        """The tenant's scoped view of the shared derived cache."""
        cache = self._gbo.derived
        if cache is None:
            return None
        return TenantDerivedView(cache, self.tenant)

    @property
    def compute(self):
        """The shared engine's compute-plane worker pool (tenants share
        its workers the way they share the I/O pool)."""
        return self._gbo.compute

    @property
    def stats(self) -> GodivaStats:
        """The shared engine's stats sink (global counters)."""
        return self._gbo.stats

    @property
    def carveout_bytes(self) -> int:
        """This tenant's guaranteed memory floor."""
        return self._budget.carveout_bytes

    def report(self) -> dict:
        """This tenant's ledger row: carve-out, usage, evictions."""
        with self._lock:
            return self._service._ledger.snapshot().get(self.tenant, {
                "carveout_bytes": self._budget.carveout_bytes,
                "used_bytes": 0,
                "evictions": self._budget.evictions,
                "unfair_evictions": self._budget.unfair_evictions,
            })

    def __repr__(self) -> str:
        return f"ServiceSession({self.tenant!r})"


@guarded_by("_sessions", "_closing", "_service_closed", lock="_lock")
class GodivaService:
    """A multi-tenant host for one shared GODIVA engine.

    Construction mirrors :class:`~repro.core.database.GBO`: one
    ``mem`` / ``mem_mb`` budget spelling plus ``**engine`` keywords
    (:class:`~repro.core.config.EngineConfig`), except that the
    service always runs
    the *TG* build (background I/O) and wraps the chosen eviction
    policy in a :class:`~repro.service.tenancy.TenantAwareEvictionPolicy`
    so carve-out floors shape victim selection.

    ``create_session`` admits tenants; ``executor`` is the shared
    thread pool the asyncio front-end
    (:class:`repro.service.aio.AsyncGodivaClient`) bridges through
    (sized by ``client_workers``, created lazily). The service is a
    context manager; closing it closes every session and then the
    engine.
    """

    def __init__(
        self,
        mem: Union[str, int, float, None] = None,
        *,
        mem_mb: Optional[float] = None,
        client_workers: int = 8,
        clock: Callable[[], float] = time.monotonic,
        unit_event_hook: Optional[Callable[[str, str, float], None]] = None,
        **engine: object,
    ) -> None:
        if client_workers < 1:
            raise ValueError("client_workers must be at least 1")
        config = EngineConfig(resolve_budget(mem, mem_mb),
                              background_io=True, **engine)
        self._ledger = TenantLedger()
        self._gbo = GBO(
            config=dataclasses.replace(
                config,
                eviction_policy=TenantAwareEvictionPolicy(
                    make_policy(config.eviction_policy), self._ledger),
            ),
            clock=clock, unit_event_hook=unit_event_hook,
        )
        self._lock = self._gbo._lock
        self._cond = self._gbo._cond
        self._ledger.bind(lock=self._lock, units=self._gbo._units,
                          derived=self._gbo.derived)
        self._clock = clock
        self._sessions: Dict[str, ServiceSession] = {}
        self._closing = False
        self._service_closed = False
        self._client_workers = client_workers
        self._executor: Optional[ThreadPoolExecutor] = None
        self._auto_seq = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def create_session(
        self,
        tenant: Optional[str] = None,
        *,
        mem: Union[str, int, float, None] = None,
        mem_mb: Optional[float] = None,
        admission: str = "reject",
        timeout: Optional[float] = None,
    ) -> ServiceSession:
        """Admit a tenant and return its session handle.

        ``mem`` / ``mem_mb`` spell the tenant's *carve-out*
        (guaranteed floor; omit both for a best-effort session
        with no floor). Admission control keeps the sum of live
        carve-outs within the global budget: ``admission='reject'``
        raises :class:`~repro.errors.AdmissionError` immediately when
        the carve-out does not fit; ``admission='queue'`` waits (up to
        ``timeout`` seconds, None = forever) for capacity freed by
        closing sessions. A tenant name already bound to a live
        session is always rejected.
        """
        if admission not in ("reject", "queue"):
            raise ValueError("admission must be 'reject' or 'queue'")
        if mem is None and mem_mb is None:
            carveout = 0
        else:
            carveout = resolve_budget(mem, mem_mb)
        if tenant is not None:
            validate_tenant_id(tenant)
        deadline = (None if timeout is None
                    else self._clock() + timeout)
        with self._cond:
            self._check_service_open_locked()
            if tenant is None:
                tenant = self._next_tenant_locked()
            budget_bytes = self._gbo._memory.budget_bytes
            if carveout > budget_bytes:
                raise AdmissionError(
                    f"carve-out {carveout} B exceeds the global budget "
                    f"{budget_bytes} B"
                )
            while (self._ledger.reserved_bytes() + carveout
                   > budget_bytes):
                if tenant in self._ledger:
                    break  # duplicate: let register() raise below
                if admission == "reject":
                    raise AdmissionError(
                        f"carve-out {carveout} B does not fit: "
                        f"{self._ledger.reserved_bytes()} of "
                        f"{budget_bytes} B already reserved"
                    )
                remaining = (None if deadline is None
                             else deadline - self._clock())
                if remaining is not None and remaining <= 0:
                    raise AdmissionError(
                        f"admission queue timed out after {timeout} s "
                        f"for tenant {tenant!r}"
                    )
                self._cond.wait(remaining)
                self._check_service_open_locked()
            budget = self._ledger.register(tenant, carveout)
            session = ServiceSession(self, tenant, budget)
            self._sessions[tenant] = session
            return session

    def _next_tenant_locked(self) -> str:
        """A fresh auto-assigned tenant id. Lock held."""
        while True:
            self._auto_seq += 1
            tenant = f"tenant{self._auto_seq}"
            if tenant not in self._ledger:
                return tenant

    def _check_service_open_locked(self) -> None:
        """Raise once service close has begun. Lock held."""
        if self._closing or self._service_closed:
            raise DatabaseClosedError("GodivaService has been closed")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every session, then the shared engine.

        Idempotent and race-safe with the same contract as
        :meth:`GBO.close`: one closer tears down, concurrent closers
        block until the teardown completes; blocked session calls raise
        :class:`~repro.errors.DatabaseClosedError`.
        """
        with self._cond:
            if self._service_closed:
                return
            if self._closing:
                while not self._service_closed:
                    self._cond.wait()
                return
            self._closing = True
            sessions = list(self._sessions.values())
            self._cond.notify_all()
        for session in sessions:
            session.close()
        executor = None
        with self._cond:
            self._sessions.clear()
            self._ledger.clear()
            executor, self._executor = self._executor, None
            self._cond.notify_all()
        if executor is not None:
            executor.shutdown(wait=False)
        self._gbo.close()
        with self._cond:
            self._service_closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed."""
        with self._lock:
            return self._service_closed

    def __enter__(self) -> "GodivaService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def executor(self) -> ThreadPoolExecutor:
        """The shared client thread pool (created on first use)."""
        with self._lock:
            self._check_service_open_locked()
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._client_workers,
                    thread_name_prefix="godiva-client",
                )
            return self._executor

    @property
    def stats(self) -> GodivaStats:
        """The shared engine's stats sink."""
        return self._gbo.stats

    @property
    def mem_budget_bytes(self) -> int:
        """The global memory budget in bytes."""
        return self._gbo.mem_budget_bytes

    @property
    def mem_used_bytes(self) -> int:
        """Bytes currently charged against the global budget."""
        return self._gbo.mem_used_bytes

    @property
    def io_workers(self) -> int:
        """Number of shared background I/O workers."""
        return self._gbo.io_workers

    @property
    def compute(self):
        """The shared engine's compute-plane worker pool."""
        return self._gbo.compute

    def session_count(self) -> int:
        """Number of live sessions."""
        with self._lock:
            return len(self._sessions)

    def tenants(self) -> List[str]:
        """Tenant ids of every live session."""
        with self._lock:
            return sorted(self._sessions)

    def tenant_report(self) -> Dict[str, dict]:
        """Per-tenant ledger snapshot: carve-out, usage, evictions."""
        with self._lock:
            return self._ledger.snapshot()

    def eviction_totals(self) -> Dict[str, int]:
        """Lifetime tenant-charged eviction totals (fair + unfair).

        Unlike :meth:`tenant_report`, the totals survive session close,
        so a drained service still shows whether fairness ever broke.
        """
        with self._lock:
            return self._ledger.totals()

    def memory_report(self) -> dict:
        """The engine's per-unit memory report (scoped names)."""
        return self._gbo.memory_report()

    def __repr__(self) -> str:
        with self._lock:
            n = len(self._sessions)
            state = ("closed" if self._service_closed
                     else "closing" if self._closing else "open")
        return f"GodivaService({n} sessions, {state})"
