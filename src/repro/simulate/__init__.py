"""Platform simulator: deterministic virtual-time machine model.

The paper's overlap results (Figure 3) are scheduling effects — how much
background I/O hides behind computation on a one-CPU workstation (Engle)
versus a dual-CPU cluster node (Turing). Reproducing those *shapes* on
arbitrary hosts requires a machine model rather than wall clocks, so this
package provides a small discrete-event simulation substrate:

* :mod:`repro.simulate.engine` — event heap + generator-based processes;
* :mod:`repro.simulate.resources` — processor-sharing CPU pool, FIFO
  disk, latches and semaphores;
* :mod:`repro.simulate.machine` — the ENGLE and TURING machine configs;
* :mod:`repro.simulate.workload` — per-test I/O + compute cost profiles,
  traced from the real pipeline or calibrated to the paper's scale;
* :mod:`repro.simulate.runner` — the one simulated Voyager node loop
  (O / G / TG, with an optional CPU-hogging competitor for TG1), run on
  one node (``simulate_voyager``), on N nodes over a snapshot split
  (``simulate_cluster_voyager``) or over the live rendezvous placement
  (``simulate_sharded_gbo``), plus the compute-plane sweep;
* :mod:`repro.simulate.shards` — the sharded-GBO scaling sweep
  (dozens of simulated shard hosts);
* :mod:`repro.simulate.tenants` — a deterministic multi-tenant
  contention driver over a real ``GodivaService`` (not a virtual-time
  model).
"""

from repro.simulate.engine import Process, Simulator
from repro.simulate.machine import ENGLE, TURING, Machine, compute_host
from repro.simulate.resources import (
    DiskFifo,
    ProcessorPool,
    SimLatch,
    SimSemaphore,
)
from repro.simulate.runner import (
    PROCESS_DISPATCH_OVERHEAD,
    THREAD_GIL_FRACTION,
    ClusterRunResult,
    ComputeSweepPoint,
    SimRunResult,
    compute_sweep,
    simulate_cluster_voyager,
    simulate_sharded_gbo,
    simulate_voyager,
)
from repro.simulate.shards import (
    ShardSweepPoint,
    ShardSweepResult,
    shard_sweep,
)
from repro.simulate.tenants import (
    TenantOutcome,
    TenantSpec,
    WorkloadResult,
    payload_read_fn,
    run_tenant_workload,
)
from repro.simulate.workload import TestWorkload, trace_workload

__all__ = [
    "Simulator",
    "Process",
    "ProcessorPool",
    "DiskFifo",
    "SimLatch",
    "SimSemaphore",
    "Machine",
    "ENGLE",
    "TURING",
    "compute_host",
    "TestWorkload",
    "trace_workload",
    "SimRunResult",
    "simulate_voyager",
    "ComputeSweepPoint",
    "compute_sweep",
    "THREAD_GIL_FRACTION",
    "PROCESS_DISPATCH_OVERHEAD",
    "ClusterRunResult",
    "simulate_cluster_voyager",
    "ShardSweepPoint",
    "ShardSweepResult",
    "shard_sweep",
    "simulate_sharded_gbo",
    "TenantSpec",
    "TenantOutcome",
    "WorkloadResult",
    "payload_read_fn",
    "run_tenant_workload",
]
