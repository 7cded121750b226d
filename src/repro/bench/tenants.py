"""S1 — multi-tenant service: fairness and asyncio client scale.

Two claims back the service layer:

* *isolation* — a steady tenant working inside its carve-out never
  loses residency to a thrashing neighbor (zero unfair evictions while
  the thrasher churns), measured with the deterministic workload
  driver from :mod:`repro.simulate.tenants`;
* *scale* — one shared engine serves >= 32 concurrent asyncio clients
  (we run 64), each with its own session, budget line, and namespace.

Both halves run against a :class:`~repro.service.service.GodivaService`
with synthetic in-memory payload reads, so the numbers isolate the
service/ledger/eviction machinery from disk behavior.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.bench.report import host_info
from repro.service import AsyncGodivaClient, GodivaService
from repro.simulate.tenants import (
    TenantSpec,
    WorkloadResult,
    payload_read_fn,
    run_tenant_workload,
)

KB = 1 << 10
MB = 1 << 20


def fairness_specs() -> List[TenantSpec]:
    """The canonical steady-vs-thrash pair.

    ``steady`` re-reads 4 x 1 MB units (fits its 8 MB carve-out) while
    ``thrash`` streams 20 x 1 MB units per round through a 4 MB floor —
    far past both its carve-out and the global slack.
    """
    return [
        TenantSpec("steady", carveout_mb=8, unit_mb=1.0,
                   n_units=4, rounds=3),
        TenantSpec("thrash", carveout_mb=4, unit_mb=1.0,
                   n_units=20, rounds=3),
    ]


def run_fairness(*, mem_mb: float = 16.0) -> WorkloadResult:
    """Drive the steady-vs-thrash workload on a fresh service."""
    with GodivaService(mem_mb=mem_mb, io_workers=2) as svc:
        return run_tenant_workload(svc, fairness_specs())


@dataclass
class AsyncScaleResult:
    """Outcome of :func:`run_async_scale`."""

    n_clients: int
    clients_served: int
    units_per_client: int
    wall_s: float
    unfair_evictions: int
    sessions_leaked: int


def run_async_scale(
    *,
    n_clients: int = 64,
    units_per_client: int = 2,
    unit_bytes: int = 4 * KB,
    mem_mb: float = 32.0,
    client_workers: int = 16,
) -> AsyncScaleResult:
    """N concurrent asyncio clients on one shared engine.

    Every client opens its own session (16 KB carve-out), acquires,
    finishes and deletes ``units_per_client`` payload units, then
    closes. Success means every client completed and the ledger drained
    back to empty.
    """

    async def one_client(svc: GodivaService, i: int) -> int:
        """One tenant's full connect/work/close round trip."""
        client = await AsyncGodivaClient.connect(
            svc, f"c{i}", mem=16 * KB
        )
        async with client:
            for step in range(units_per_client):
                name = f"u{step}"
                await client.acquire(name, payload_read_fn(unit_bytes))
                await client.finish_unit(name)
                await client.delete_unit(name)
        return i

    async def go() -> AsyncScaleResult:
        """Host the service and gather every client."""
        with GodivaService(mem_mb=mem_mb, io_workers=4,
                           client_workers=client_workers) as svc:
            t0 = time.perf_counter()
            served = await asyncio.gather(
                *(one_client(svc, i) for i in range(n_clients))
            )
            wall = time.perf_counter() - t0
            totals = svc.eviction_totals()
            return AsyncScaleResult(
                n_clients=n_clients,
                clients_served=len(set(served)),
                units_per_client=units_per_client,
                wall_s=wall,
                unfair_evictions=totals["unfair_evictions"],
                sessions_leaked=svc.session_count(),
            )

    return asyncio.run(go())


def service_tenants_json(
    results_dir: str,
    fairness: WorkloadResult,
    scale: AsyncScaleResult,
) -> str:
    """Write ``BENCH_service_tenants.json``; returns its path."""
    tenants: Dict[str, Dict[str, int]] = {
        name: {
            "carveout_bytes": outcome.carveout_bytes,
            "acquisitions": outcome.acquisitions,
            "evictions": outcome.evictions,
            "unfair_evictions": outcome.unfair_evictions,
        }
        for name, outcome in fairness.outcomes.items()
    }
    payload = {
        "experiment": "service_tenants",
        "host": host_info(),
        "fairness": {
            "tenants": tenants,
            "total_acquisitions": fairness.total_acquisitions,
            "total_evictions": fairness.total_evictions,
            "total_unfair_evictions": fairness.total_unfair_evictions,
            "isolation_held": fairness.isolation_held,
        },
        "async_scale": {
            "n_clients": scale.n_clients,
            "clients_served": scale.clients_served,
            "units_per_client": scale.units_per_client,
            "wall_s": scale.wall_s,
            "unfair_evictions": scale.unfair_evictions,
            "sessions_leaked": scale.sessions_leaked,
        },
    }
    path = os.path.join(results_dir, "BENCH_service_tenants.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    return path
