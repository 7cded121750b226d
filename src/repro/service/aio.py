"""AsyncGodivaClient — asyncio front-end over the threaded service.

The engine is thread-based (blocking waits on the engine condition);
asyncio clients bridge to it through the service's shared
:class:`~concurrent.futures.ThreadPoolExecutor` via
``loop.run_in_executor``, so thousands of lightweight coroutines can
multiplex unit reads, prefetches, and queries over a handful of bridge
threads without blocking the event loop. Each client wraps one
:class:`~repro.service.service.ServiceSession`; several clients may
share one session (the session is thread-safe), or each client may own
its tenant.

Blocking verbs (``wait_unit``, ``read_unit``, ``acquire``) consume a
bridge thread for the duration of the block — size
``GodivaService(client_workers=...)`` to the number of concurrently
*blocked* calls you expect, not to the number of clients: non-blocking
verbs hold a thread only for microseconds.

Example::

    async def frame(client: AsyncGodivaClient, step: str) -> None:
        await client.acquire(step, read_fn)
        ...  # query buffers via await client.call(...)
        await client.finish_unit(step)

    service = GodivaService(mem_mb=256, client_workers=16)
    client = await AsyncGodivaClient.connect(service, tenant="viz",
                                             mem_mb=32)
    async with client:
        await asyncio.gather(*(frame(client, s) for s in steps))
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.core.units import ReadFunction, UnitHandle, UnitState
from repro.errors import DatabaseClosedError
from repro.service.service import GodivaService, ServiceSession


class AsyncGodivaClient:
    """Awaitable facade over one tenant session.

    Construct with an existing session, or await
    :meth:`connect` to run the (potentially queueing) admission on a
    bridge thread. All verbs mirror
    :class:`~repro.service.service.ServiceSession` and raise the same
    errors (:class:`~repro.errors.DatabaseClosedError` on close races,
    :class:`~repro.errors.AdmissionError` at admission).
    """

    def __init__(self, session: ServiceSession) -> None:
        self._session = session
        self._service = session._service

    @classmethod
    async def connect(
        cls,
        service: GodivaService,
        tenant: Optional[str] = None,
        *,
        mem: Union[str, int, float, None] = None,
        mem_mb: Optional[float] = None,
        admission: str = "reject",
        timeout: Optional[float] = None,
    ) -> "AsyncGodivaClient":
        """Admit a tenant without blocking the event loop.

        Parameters are those of :meth:`GodivaService.create_session`;
        ``admission='queue'`` admissions park on a bridge thread, not
        in the loop.
        """
        loop = asyncio.get_running_loop()
        session = await loop.run_in_executor(
            service.executor,
            functools.partial(
                service.create_session, tenant,
                mem=mem, mem_mb=mem_mb,
                admission=admission, timeout=timeout,
            ),
        )
        return cls(session)

    @property
    def session(self) -> ServiceSession:
        """The underlying (thread-side) session."""
        return self._session

    @property
    def tenant(self) -> str:
        """The tenant this client acts as."""
        return self._session.tenant

    async def call(self, fn: Callable[..., Any], *args: Any,
                   **kwargs: Any) -> Any:
        """Run any blocking callable on the service's bridge pool.

        The escape hatch for session surface not wrapped below —
        e.g. ``await client.call(client.session.get_field_buffer,
        "solid", "pressure", keys)``.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._service.executor, functools.partial(fn, *args, **kwargs)
        )

    # ------------------------------------------------------------------
    # Unit verbs
    # ------------------------------------------------------------------
    async def add_unit(self, name: str, read_fn: ReadFunction,
                       priority: float = 0.0) -> UnitHandle:
        """Queue a prefetch (non-blocking on the loop)."""
        return await self.call(self._session.add_unit, name, read_fn,
                               priority)

    async def wait_unit(self, name: str) -> None:
        """Await residency; the block happens on a bridge thread."""
        await self.call(self._session.wait_unit, name)

    async def read_unit(self, name: str,
                        read_fn: Optional[ReadFunction] = None) -> None:
        """Foreground read on a bridge thread."""
        await self.call(self._session.read_unit, name, read_fn)

    async def acquire(self, name: str, read_fn: ReadFunction,
                      priority: float = 0.0) -> UnitHandle:
        """Add-or-wait until the unit is resident."""
        return await self.call(self._session.acquire, name, read_fn,
                               priority)

    async def finish_unit(self, name: str) -> None:
        """Release one reference on the unit."""
        await self.call(self._session.finish_unit, name)

    async def delete_unit(self, name: str) -> None:
        """Delete the unit and free its records."""
        await self.call(self._session.delete_unit, name)

    async def cancel_unit(self, name: str) -> bool:
        """Cancel a pending prefetch."""
        return await self.call(self._session.cancel_unit, name)

    async def unit_state(self, name: str) -> UnitState:
        """The unit's lifecycle state."""
        return await self.call(self._session.unit_state, name)

    async def list_units(self) -> List[Tuple[str, UnitState]]:
        """(local name, state) for the tenant's units."""
        return await self.call(self._session.list_units)

    async def report(self) -> dict:
        """The tenant's ledger row."""
        return await self.call(self._session.report)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Close the underlying session on a bridge thread.

        Uses a private single-shot thread when the service's pool is
        already gone (service close raced us) so close never raises
        from the bridge itself; any other failure propagates.
        """
        loop = asyncio.get_running_loop()
        try:
            executor = self._service.executor
        except DatabaseClosedError:
            await loop.run_in_executor(None, self._session.close)
            return
        await loop.run_in_executor(executor, self._session.close)

    async def __aenter__(self) -> "AsyncGodivaClient":
        return self

    async def __aexit__(self, exc_type: object, exc: object,
                        tb: object) -> None:
        await self.close()

    def __repr__(self) -> str:
        return f"AsyncGodivaClient({self._session.tenant!r})"
