"""S1 — multi-tenant service: fairness and asyncio client scale.

Two halves over one shared engine; emits
``BENCH_service_tenants.json``.

Acceptance bars (the issue's criteria, asserted here):

* >= 32 concurrent asyncio clients served by one shared engine (we
  run 64) with zero leaked sessions;
* per-tenant budget isolation held on the steady-vs-thrash workload —
  the thrashing tenant churns (evictions fire) while the steady tenant
  inside its carve-out suffers zero evictions, unfair or otherwise.
"""

import json

import pytest

from repro.bench.tenants import (
    run_async_scale,
    run_fairness,
    service_tenants_json,
)

N_CLIENTS = 64


@pytest.fixture(scope="module")
def fairness_result():
    """Deterministic steady-vs-thrash workload on a 16 MB service."""
    return run_fairness(mem_mb=16.0)


@pytest.fixture(scope="module")
def scale_result():
    """64 concurrent asyncio clients on a 32 MB shared engine."""
    return run_async_scale(n_clients=N_CLIENTS)


def test_budget_isolation_held(fairness_result):
    """Thrasher churns; steady tenant never loses a byte."""
    steady = fairness_result.outcomes["steady"]
    thrash = fairness_result.outcomes["thrash"]
    assert thrash.evictions > 0, "thrash tenant never churned"
    assert steady.evictions == 0, (
        f"steady tenant lost {steady.evictions} entries inside its "
        "carve-out"
    )
    assert fairness_result.total_unfair_evictions == 0
    assert fairness_result.isolation_held


def test_async_client_scale(scale_result):
    """>= 32 concurrent asyncio clients (bar), 64 run, none leaked."""
    assert scale_result.n_clients >= 32
    assert scale_result.clients_served == scale_result.n_clients
    assert scale_result.sessions_leaked == 0
    assert scale_result.unfair_evictions == 0


def test_service_tenants_json(fairness_result, scale_result,
                              results_dir):
    path = service_tenants_json(
        results_dir, fairness_result, scale_result
    )
    with open(path) as f:
        payload = json.load(f)
    assert payload["experiment"] == "service_tenants"
    assert payload["fairness"]["isolation_held"] is True
    assert payload["async_scale"]["clients_served"] == N_CLIENTS
