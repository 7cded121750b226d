"""Tenancy primitives: name scoping, the budget ledger, fair eviction.

The multi-tenant service hosts many clients on *one* engine (one
:class:`~repro.core.memory_manager.MemoryManager` budget, one eviction
policy, one I/O pool). Three mechanisms keep tenants honest:

* **Name scoping** — every unit and record type a session creates is
  prefixed ``tenant::<id>::``, so tenants share the engine's index and
  eviction policy without colliding, and ownership of any policy entry
  (unit *or* ``derived::`` cache entry) is derivable from its name.
* **The ledger** (:class:`TenantLedger`) — per-tenant *carve-outs*
  (guaranteed byte floors) registered at admission, plus eviction and
  fairness counters. Usage is computed from the engine's own
  accounting (unit ``resident_bytes`` plus the tenant's ``derived::``
  entries), so the ledger can never drift from the accountant.
* **Fair eviction** (:class:`TenantAwareEvictionPolicy`) — wraps any
  base policy; a victim is chosen in the base policy's order but
  tenants at or under their carve-out are skipped while some other
  tenant is over its own. A tenant thrashing past its carve-out
  therefore evicts *its own* entries (or unowned ones), never a
  well-behaved neighbour's.

Everything in this module is mutated under the *engine* lock: the
ledger is consulted from inside ``MemoryManager.evict_next_victim``
(lock held), and the service layer registers/unregisters tenants while
holding the same lock, so no second lock (and no lock-order edge) is
introduced.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional

from repro.analysis.primitives import make_held_checker
from repro.analysis.races import guarded_by
from repro.core.cache import EvictionPolicy
from repro.core.derived import DERIVED_PREFIX
from repro.errors import AdmissionError

#: Namespace prefix for every tenant-scoped name (units, record types,
#: derived-cache key scopes). Client-visible names may not start with it.
TENANT_PREFIX = "tenant::"

#: Tenant identifiers: no ``:`` or ``|`` so scoped names and canonical
#: derived keys stay unambiguously parseable.
_TENANT_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def validate_tenant_id(tenant: str) -> str:
    """Check a tenant identifier, returning it unchanged.

    Raises :class:`AdmissionError` for identifiers that would break
    name parsing (separator characters, empty strings).
    """
    if not isinstance(tenant, str) or not _TENANT_ID_RE.match(tenant):
        raise AdmissionError(
            f"invalid tenant id {tenant!r}: use letters, digits, "
            f"'_', '.', '-' (no ':' or '|')"
        )
    return tenant


def tenant_of(policy_name: str) -> Optional[str]:
    """The owning tenant of an eviction-policy name, or None.

    Understands both name shapes the shared policy tracks: scoped unit
    names (``tenant::<id>::<unit>``) and the derived-cache entries of a
    session's scoped cache (``derived::tenant::<id>|<canonical key>``).
    """
    name = policy_name
    if name.startswith(DERIVED_PREFIX):
        name = name[len(DERIVED_PREFIX):]
    if not name.startswith(TENANT_PREFIX):
        return None
    rest = name[len(TENANT_PREFIX):]
    end = len(rest)
    for sep in ("::", "|"):
        idx = rest.find(sep)
        if idx != -1:
            end = min(end, idx)
    return rest[:end] or None


class TenantBudget:
    """One tenant's carve-out and accounting counters.

    The carve-out is a *floor*, not a cap: a tenant may grow past it
    (borrowing slack from the global budget) but only usage above the
    carve-out is fair game for cross-tenant eviction pressure.
    """

    __slots__ = ("tenant", "carveout_bytes", "evictions",
                 "unfair_evictions")

    def __init__(self, tenant: str, carveout_bytes: int) -> None:
        self.tenant = tenant
        self.carveout_bytes = int(carveout_bytes)
        #: Policy victims charged to this tenant (units + derived).
        self.evictions = 0
        #: Evictions taken while this tenant was at/under its carve-out
        #: and some *other* tenant was over its own — the fairness
        #: violation the tenant-aware policy exists to prevent. Stays 0
        #: unless every over-carve-out tenant's memory is pinned.
        self.unfair_evictions = 0


@guarded_by("_tenants", "_total_evictions", "_total_unfair_evictions",
            lock="_lock")
class TenantLedger:
    """Per-tenant carve-outs and usage, layered on the memory manager.

    The ledger holds no byte counters of its own: usage is recomputed
    on demand from the unit table (``resident_bytes`` of
    ``tenant::``-scoped units) and the derived cache (entries whose
    keys carry a tenant scope), both of which the engine already
    maintains under the lock this ledger shares.
    """

    def __init__(self) -> None:
        self._tenants: Dict[str, TenantBudget] = {}
        self._lock: Optional[object] = None
        self._units: Optional[Dict[str, object]] = None
        self._derived: Optional[object] = None
        self._check_locked = lambda: None
        #: Lifetime totals — survive :meth:`unregister`, so a drained
        #: service can still report whether fairness ever broke.
        self._total_evictions = 0
        self._total_unfair_evictions = 0

    def bind(self, *, lock: object, units: Dict[str, object],
             derived: Optional[object] = None) -> None:
        """Wire the engine lock, the live unit table and the cache.

        ``units`` is the engine's name -> ProcessingUnit dict (shared,
        mutated under ``lock``); ``derived`` the optional
        :class:`~repro.core.derived.DerivedCache`.
        """
        self._lock = lock
        self._units = units
        self._derived = derived
        self._check_locked = make_held_checker(lock, "TenantLedger")

    # ------------------------------------------------------------------
    # Registration (Lock held.)
    # ------------------------------------------------------------------
    def register(self, tenant: str, carveout_bytes: int) -> TenantBudget:
        """Admit a tenant with a guaranteed byte floor. Lock held."""
        self._check_locked()
        if tenant in self._tenants:
            raise AdmissionError(
                f"tenant {tenant!r} already has a live session"
            )
        budget = TenantBudget(tenant, carveout_bytes)
        self._tenants[tenant] = budget
        return budget

    def unregister(self, tenant: str) -> None:
        """Release a tenant's carve-out reservation. Lock held."""
        self._check_locked()
        self._tenants.pop(tenant, None)

    def clear(self) -> None:
        """Drop every tenant (service close path). Lock held."""
        self._check_locked()
        self._tenants.clear()

    def __contains__(self, tenant: str) -> bool:
        """Whether the tenant has a live carve-out. Lock held."""
        self._check_locked()
        return tenant in self._tenants

    def reserved_bytes(self) -> int:
        """Sum of all live carve-outs — the admission ceiling. Lock held."""
        self._check_locked()
        return sum(b.carveout_bytes for b in self._tenants.values())

    def carveout_of(self, tenant: str) -> int:
        """A tenant's carve-out (0 for unknown tenants). Lock held."""
        self._check_locked()
        budget = self._tenants.get(tenant)
        return budget.carveout_bytes if budget is not None else 0

    # ------------------------------------------------------------------
    # Usage (Lock held.)
    # ------------------------------------------------------------------
    def usage_by_tenant(self) -> Dict[str, int]:
        """Resident bytes currently attributable to each tenant.

        Unit bytes come from the engine's per-unit accounting; derived
        bytes from the cache's per-entry sizes. Lock held.
        """
        self._check_locked()
        usage: Dict[str, int] = {t: 0 for t in self._tenants}
        if self._units is not None:
            for name, unit in self._units.items():
                tenant = tenant_of(name)
                if tenant is not None:
                    usage[tenant] = (
                        usage.get(tenant, 0) + unit.resident_bytes
                    )
        if self._derived is not None:
            for name, nbytes in self._derived.entries_locked():
                tenant = tenant_of(name)
                if tenant is not None:
                    usage[tenant] = usage.get(tenant, 0) + nbytes
        return usage

    def over_carveout(self, usage: Dict[str, int]) -> List[str]:
        """Tenants strictly above their carve-out, given a usage map.

        Lock held.
        """
        self._check_locked()
        return [
            tenant for tenant, used in usage.items()
            if used > self.carveout_of(tenant)
        ]

    # ------------------------------------------------------------------
    # Fairness accounting (Lock held.)
    # ------------------------------------------------------------------
    def note_victim(self, victim: str, usage: Dict[str, int],
                    over: List[str]) -> None:
        """Record one eviction against the victim's owner. Lock held.

        ``usage``/``over`` are the pre-eviction snapshot the policy
        chose under; an eviction is *unfair* when the victim's tenant
        was within its carve-out while another tenant was over its own.
        """
        self._check_locked()
        tenant = tenant_of(victim)
        if tenant is None:
            return
        budget = self._tenants.get(tenant)
        if budget is None:
            return
        budget.evictions += 1
        self._total_evictions += 1
        within = usage.get(tenant, 0) <= budget.carveout_bytes
        if within and any(other != tenant for other in over):
            budget.unfair_evictions += 1
            self._total_unfair_evictions += 1

    # ------------------------------------------------------------------
    # Reporting (Lock held.)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """Per-tenant report: carve-out, usage, eviction counters.

        Lock held.
        """
        self._check_locked()
        usage = self.usage_by_tenant()
        return {
            tenant: {
                "carveout_bytes": budget.carveout_bytes,
                "used_bytes": usage.get(tenant, 0),
                "evictions": budget.evictions,
                "unfair_evictions": budget.unfair_evictions,
            }
            for tenant, budget in self._tenants.items()
        }

    def totals(self) -> Dict[str, int]:
        """Lifetime eviction totals (survive unregister). Lock held."""
        self._check_locked()
        return {
            "evictions": self._total_evictions,
            "unfair_evictions": self._total_unfair_evictions,
        }


class TenantAwareEvictionPolicy(EvictionPolicy):
    """Carve-out-respecting wrapper around any base eviction policy.

    Tracks exactly what the base policy tracks (units and ``derived::``
    entries interleaved in one recency order); only :meth:`victim`
    differs: candidates are scanned in base-policy order and the first
    whose owner is *over* its carve-out — or who has no registered
    owner — wins. Candidates belonging to tenants within their
    carve-out are skipped (their recency positions are untouched). If
    every evictable entry belongs to a within-carve-out tenant the
    base policy's first choice is evicted anyway (global memory
    pressure must be answered); the ledger counts that case as an
    *unfair* eviction when some other tenant was over its floor.

    Called exclusively under the engine lock (the memory manager's
    eviction loop), which is also the lock the ledger's usage walk
    requires.
    """

    name = "tenant-aware"

    def __init__(self, inner: EvictionPolicy,
                 ledger: TenantLedger) -> None:
        self._inner = inner
        self._ledger = ledger

    def add(self, unit_name: str) -> None:
        """Delegate to the base policy."""
        self._inner.add(unit_name)

    def remove(self, unit_name: str) -> bool:
        """Delegate to the base policy."""
        return self._inner.remove(unit_name)

    def touch(self, unit_name: str) -> None:
        """Delegate to the base policy."""
        self._inner.touch(unit_name)

    def victim(self) -> Optional[str]:
        """First base-order candidate evictable without breaking a
        carve-out floor; the base policy's own first choice when no
        such candidate exists. Lock held (engine lock)."""
        usage = self._ledger.usage_by_tenant()
        over = set(self._ledger.over_carveout(usage))
        chosen: Optional[str] = None
        fallback: Optional[str] = None
        for candidate in self._inner:
            if fallback is None:
                fallback = candidate
            tenant = tenant_of(candidate)
            if (tenant is None or tenant not in self._ledger
                    or tenant in over):
                chosen = candidate
                break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            return None
        self._inner.remove(chosen)
        self._ledger.note_victim(chosen, usage, sorted(over))
        return chosen

    def __len__(self) -> int:
        return len(self._inner)

    def __contains__(self, unit_name: str) -> bool:
        return unit_name in self._inner

    def __iter__(self) -> Iterator[str]:
        return iter(self._inner)
