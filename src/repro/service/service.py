"""GodivaService — one shared GODIVA engine, many tenant sessions.

The paper's GBO is one database per process; the service re-hosts that
exact engine (a private :class:`~repro.core.database.GBO`, so the
paper-faithful API is untouched) behind **session handles**. A
:class:`ServiceSession` *is* a GBO facade bound to one tenant over the
engine's shared layers: unit and record-type names are scoped
``tenant::<id>::`` where they enter the engine, and the session's
``derived`` is the cache's view of the tenant's scope — while records,
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
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.races import guarded_by
from repro.core.cache import make_policy
from repro.core.config import EngineConfig, resolve_budget
from repro.core.database import GBO
from repro.core.stats import GodivaStats
from repro.core.units import ReadFunction, UnitHandle, UnitState
from repro.errors import (AdmissionError, DatabaseClosedError,
                          UnitStateError, UnknownUnitError)
from repro.service.tenancy import (TENANT_PREFIX, TenantBudget, TenantLedger,
                                   TenantAwareEvictionPolicy,
                                   validate_tenant_id)


@guarded_by("_session_closed", lock="_lock")
class ServiceSession(GBO):
    """One tenant's GBO: a facade over the service's shared engine.

    Sessions are created by :meth:`GodivaService.create_session`. The
    whole GBO surface — unit verbs and :class:`UnitHandle`, the record
    and schema interfaces, ``derived``, ``compute`` — is inherited and
    works on tenant-local names: unit and record-type names are scoped
    to the tenant where they enter the engine. Field *types* are shared
    across tenants (they describe data layout, not data); conflicting
    redefinitions raise ``SchemaError`` exactly as inside one GBO.
    Engine-wide settings and reports (``set_mem_space``,
    ``memory_report``, ``stats``) are the shared engine's.

    Read callbacks are invoked as ``read_fn(session, local_name)``, so
    callbacks written for a private GBO port unchanged.

    ``close()`` (also ``with`` exit) deletes the tenant's units, drops
    the tenant's derived entries, and releases the carve-out; any call
    blocked in ``wait_unit``/``read_unit`` at that moment raises
    :class:`~repro.errors.DatabaseClosedError`. The session never
    closes the shared engine.
    """

    def __init__(self, service: "GodivaService", tenant: str,
                 budget: TenantBudget) -> None:
        self._attach(service._gbo, f"{TENANT_PREFIX}{tenant}")
        self._service = service
        self._engine = service._gbo
        self.tenant = tenant
        self._budget = budget
        self._session_closed = False

    @property
    def closed(self) -> bool:
        """Whether this session (or its service) has been closed."""
        with self._lock:
            return self._closed_locked()

    def _closed_locked(self) -> bool:
        """Session-side closed predicate. Lock held."""
        return (self._session_closed or self._service._closing
                or self._service._service_closed)

    def _check_open(self) -> None:
        """Raise on a closed session/service/engine. Lock held."""
        if self._closed_locked():
            raise DatabaseClosedError(
                f"session for tenant {self.tenant!r} is closed"
            )
        self._engine._check_open()

    def _blocking(self, verb: Callable[..., None], *args: Any) -> None:
        """Run a blocking verb on an open session. Close deletes the
        tenant's units, so a waiter it interrupts sees a unit error:
        reported as :class:`~repro.errors.DatabaseClosedError`."""
        with self._lock:
            self._check_open()
        try:
            verb(*args)
        except (UnknownUnitError, UnitStateError):
            if self.closed:
                raise DatabaseClosedError(
                    f"session for tenant {self.tenant!r} closed during "
                    f"the call"
                ) from None
            raise

    def close(self) -> None:
        """Tear down the tenant's footprint; idempotent and race-safe.

        Marks the session closed, deletes the tenant's units (waking
        any of the tenant's blocked waiters into
        :class:`~repro.errors.DatabaseClosedError`), drops the tenant's
        derived-cache entries, and releases the carve-out so queued
        admissions can proceed. The shared engine stays up.
        """
        with self._lock:
            if self._session_closed:
                return
            self._session_closed = True
        for name, _ in self.list_units():
            try:
                self._engine.delete_unit(self._prefix + name)
            except (UnknownUnitError, UnitStateError, DatabaseClosedError):
                pass
        with self._cond:
            # The engine lock is held: read the guarded flag directly
            # (the `closed` property would re-acquire and self-deadlock).
            if self._derived is not None and not self._engine._closed:
                self._derived.clear_locked()
            self._service._ledger.unregister(self.tenant)
            self._service._sessions.pop(self.tenant, None)
            self._cond.notify_all()

    def list_units(self) -> List[Tuple[str, UnitState]]:
        """(local name, state) for every unit of this tenant."""
        cut = len(self._prefix)
        with self._lock:
            return [
                (name[cut:], state)
                for name, state in self._io.list_units()
                if name.startswith(self._prefix)
            ]

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
