"""repro.service — multi-tenant session hosting over one shared engine.

The server-shaped front half of the reproduction (ROADMAP north star;
SAVIME is the published analogue): :class:`GodivaService` hosts one
layered GODIVA engine, a :class:`ServiceSession` is a GBO bound to one
tenant over it, :class:`AsyncGodivaClient` bridges asyncio clients onto the
threaded engine, and :mod:`repro.service.tenancy` supplies the budget
ledger and the carve-out-aware eviction policy. See ``docs/SERVICE.md``.
"""

from repro.service.aio import AsyncGodivaClient
from repro.service.service import GodivaService, ServiceSession
from repro.service.tenancy import (
    TENANT_PREFIX,
    TenantAwareEvictionPolicy,
    TenantBudget,
    TenantLedger,
    tenant_of,
)

__all__ = [
    "AsyncGodivaClient",
    "GodivaService",
    "ServiceSession",
    "TENANT_PREFIX",
    "TenantAwareEvictionPolicy",
    "TenantBudget",
    "TenantLedger",
    "tenant_of",
]
