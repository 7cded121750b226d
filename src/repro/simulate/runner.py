"""Simulated Voyager schedules: O, G, TG (and TG1's competitor).

Replays a :class:`~repro.simulate.workload.TestWorkload` on a simulated
:class:`~repro.simulate.machine.Machine`, reproducing the measurement
methodology of section 4.2:

* **visible I/O time** — virtual time the main thread spends in blocking
  reads (O, G) or waiting for units (TG);
* **computation time** — total execution time minus visible I/O time
  (so TG's computation "slows down" when the I/O thread steals CPU,
  exactly as the paper reports).

The TG schedule mirrors the library's actual behaviour: all units are
added up front; a pool of background I/O processes (``io_workers``, 1 by
default = the paper's single thread) prefetches them in order, bounded
by a memory window (budget / unit size); the main process waits for each
unit, computes, and deletes it. ``files_per_snapshot`` splits each
snapshot into that many independently-prefetchable file units — the
workload shape where extra workers pay off, since several files of the
same snapshot can stream from disk and decode concurrently. TG1 adds a
CPU-hogging competitor process (the paper's "another
computation-intensive program").

One node loop, :func:`_run_nodes`, replays that schedule on any number
of simulated nodes sharing one virtual clock. :func:`simulate_voyager`
runs one node; :func:`simulate_cluster_voyager` splits the snapshots
across N nodes with
:func:`~repro.parallel.placement.partition_snapshots` (the paper's
four-process experiment, generalised into a scaling sweep);
:func:`simulate_sharded_gbo` assigns them by the live rendezvous
:class:`~repro.parallel.placement.PlacementMap`. Each node owns its
CPUs; disks are private per node (the paper's regime) or one shared
device (the cluster-filesystem regime, whose service time bounds the
makespan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.simulate.engine import Simulator
from repro.simulate.machine import Machine, compute_host
from repro.simulate.resources import (
    DiskFifo,
    ProcessorPool,
    SimLatch,
    SimSemaphore,
)
from repro.simulate.workload import TestWorkload

#: Fraction of each *thread*-pool task that must hold the GIL
#: (serialized across workers): Python-level bookkeeping, buffer
#: handoff, and the interpreter portions of the numpy kernels. With W
#: workers the GIL-bound fractions queue while the releases overlap, so
#: compute wall ~= f*C + (1-f)*C/W — calibrated to the real thread
#: pool's ~2.3-2.4x at four workers on the complex op-set.
THREAD_GIL_FRACTION = 0.25

#: Per-task overhead of the *process* pool as a fraction of the task's
#: compute demand: token encode/decode, queue hops, result attach.
#: Zero-copy tokens make dispatch cheap, not free — this is why
#: process/4 lands near 3.8x rather than a clean 4x.
PROCESS_DISPATCH_OVERHEAD = 0.05


@dataclass
class SimRunResult:
    """Simulated run outcome, in the paper's reporting terms."""

    mode: str
    test: str
    machine: str
    n_snapshots: int
    total_s: float
    visible_io_s: float
    io_workers: int = 1
    files_per_snapshot: int = 1
    compute_workers: int = 1
    compute_backend: str = "thread"
    per_unit_wait_s: List[float] = field(default_factory=list)
    #: Resource utilization: CPU-seconds actually consumed and disk
    #: busy time — lets benches report how overlap shifts load.
    cpu_busy_s: float = 0.0
    disk_busy_s: float = 0.0

    @property
    def computation_s(self) -> float:
        """The paper's computation time: total minus visible I/O."""
        return self.total_s - self.visible_io_s

    @property
    def disk_utilization(self) -> float:
        return self.disk_busy_s / self.total_s if self.total_s else 0.0


@dataclass
class WorkerRun:
    """One worker's outcome."""

    worker: int
    n_units: int
    finish_s: float
    visible_io_s: float


@dataclass
class ClusterRunResult:
    """Aggregate outcome of a simulated parallel run."""

    mode: str
    n_workers: int
    shared_disk: bool
    workers: List[WorkerRun] = field(default_factory=list)
    disk_busy_s: float = 0.0

    @property
    def makespan_s(self) -> float:
        """When the last worker finished."""
        return max((w.finish_s for w in self.workers), default=0.0)

    @property
    def total_visible_io_s(self) -> float:
        """Visible I/O summed over every worker."""
        return sum(w.visible_io_s for w in self.workers)

    def speedup_vs(self, serial: "ClusterRunResult") -> float:
        """Makespan speedup over ``serial`` (usually the 1-worker run)."""
        return serial.makespan_s / self.makespan_s


def _run_nodes(
    machine: Machine,
    workload: TestWorkload,
    mode: str,
    node_units: Sequence[Sequence[int]],
    window_units: int = 12,
    shared_disk: bool = False,
    competitor: bool = False,
    jitter: float = 0.0,
    seed: int = 0,
    io_workers: int = 1,
    files_per_snapshot: int = 1,
    compute_workers: int = 1,
    compute_backend: str = "thread",
) -> Tuple[List[Tuple[float, List[float]]], List[ProcessorPool],
           List[DiskFifo]]:
    """Replay the Voyager schedule on one simulated node per step list.

    Every node is ``machine`` built on one shared :class:`Simulator` and
    runs the ``mode`` schedule over its snapshot steps (see
    :func:`simulate_voyager` for the options). ``shared_disk`` points
    every node at the first node's disk. Returns each node's
    ``(finish_s, per-unit waits)``, every node's CPU pool, and the
    distinct disks.
    """
    if window_units < 1:
        raise ValueError("window must allow at least one unit")
    sim = Simulator()
    nodes = [machine.build(sim) for _steps in node_units]
    cpus = [cpu for cpu, _disk in nodes]
    disks = [nodes[0][1]] if shared_disk else [d for _c, d in nodes]
    profile = workload.io_profile(mode)
    disk_s = profile.disk_seconds(machine.disk)
    parse_s = profile.parse_seconds(machine)
    n = workload.n_snapshots

    if jitter > 0.0:
        import numpy as np

        rng = np.random.default_rng(seed)
        io_factor = np.clip(
            rng.normal(1.0, jitter, size=n), 0.3, 3.0
        )
        compute_factor = np.clip(
            rng.normal(1.0, jitter, size=n), 0.3, 3.0
        )
    else:
        io_factor = [1.0] * n
        compute_factor = [1.0] * n

    runs: list = [None] * len(node_units)   # filled as nodes finish

    def _spawn_node(index, steps, cpu, disk):
        waits: List[float] = []
        state = {"stop": False}
        gil = SimSemaphore(sim, 1)

        def _finish():
            state["stop"] = True
            runs[index] = (sim.now, waits)

        def _compute_phase(step):
            # One snapshot's compute demand on the modelled compute
            # plane. With one worker this is a single cpu.use — no
            # latch, no spawn.
            demand = workload.compute_s * compute_factor[step]
            if compute_workers == 1:
                yield cpu.use(demand)
                return
            done = SimLatch(sim)
            left = {"n": compute_workers}
            share = demand / compute_workers

            def _compute_worker():
                if compute_backend == "thread":
                    yield gil.acquire()
                    yield cpu.use(share * THREAD_GIL_FRACTION)
                    gil.release()
                    yield cpu.use(share * (1.0 - THREAD_GIL_FRACTION))
                else:
                    yield cpu.use(share * (1.0 + PROCESS_DISPATCH_OVERHEAD))
                left["n"] -= 1
                if left["n"] == 0:
                    done.set()

            for _w in range(compute_workers):
                sim.spawn(_compute_worker())
            yield done.wait()

        if competitor:
            def _competitor_proc():
                # CPU-bound chunks until the measured run completes.
                while not state["stop"]:
                    yield cpu.use(0.05)

            sim.spawn(_competitor_proc())

        if mode in ("O", "G"):
            def _blocking_proc():
                for step in steps:
                    t0 = sim.now
                    # Coupled read: device time then decode, all visible.
                    yield disk.read(disk_s * io_factor[step])
                    yield cpu.use(parse_s * io_factor[step])
                    waits.append(sim.now - t0)
                    yield from _compute_phase(step)
                _finish()

            sim.spawn(_blocking_proc())
            return

        files = files_per_snapshot
        # The window is counted in file units so the resident-snapshot
        # bound stays window_units regardless of the file split.
        window = SimSemaphore(sim, window_units * files)
        loaded = [[SimLatch(sim) for _f in range(files)] for _s in steps]
        # Shared task cursor: workers claim (snapshot, file) chunks in
        # queue order. Claiming involves no yield, so it is atomic under
        # the engine's cooperative scheduling.
        tasks = [(i, j) for i in range(len(steps)) for j in range(files)]
        cursor = {"next": 0}

        def _io_worker():
            while True:
                task = cursor["next"]
                if task >= len(tasks):
                    return
                cursor["next"] = task + 1
                i, j = tasks[task]
                yield window.acquire()
                yield disk.read(disk_s * io_factor[steps[i]] / files)
                yield cpu.use(parse_s * io_factor[steps[i]] / files)
                loaded[i][j].set()

        def _main_thread():
            for i, step in enumerate(steps):
                t0 = sim.now
                for latch in loaded[i]:
                    yield latch.wait()
                waits.append(sim.now - t0)
                yield from _compute_phase(step)
                for _ in range(files):
                    window.release()   # delete_unit frees the memory
            _finish()

        for _w in range(io_workers):
            sim.spawn(_io_worker())
        sim.spawn(_main_thread())

    for index, steps in enumerate(node_units):
        _spawn_node(index, steps, cpus[index],
                    disks[0 if shared_disk else index])
    sim.run()
    return runs, cpus, disks


def simulate_voyager(
    machine: Machine,
    workload: TestWorkload,
    mode: str,
    window_units: int = 12,
    competitor: bool = False,
    jitter: float = 0.0,
    seed: int = 0,
    io_workers: int = 1,
    files_per_snapshot: int = 1,
    compute_workers: int = 1,
    compute_backend: str = "thread",
) -> SimRunResult:
    """Simulate one Voyager run.

    ``mode``: 'O' (original traffic, coupled schedule), 'G' (GODIVA
    traffic, blocking schedule), or 'TG' (GODIVA traffic, background
    prefetch). ``window_units`` bounds how many units may be resident —
    the memory budget divided by the per-unit footprint (the paper's
    384 MB over ~20-30 MB snapshots allows roughly a dozen).
    ``competitor=True`` adds an endless CPU hog (the paper's TG1).

    ``jitter`` adds deterministic seeded per-unit variation (fractional
    sigma) to I/O and compute demands — the real system's run-to-run
    noise, which is what keeps prefetching from hiding *all* I/O even on
    two CPUs (the paper reports 81-91 % hidden, with error bars from five
    runs; re-run with different ``seed`` values to reproduce those).

    ``io_workers`` (TG only) sizes the background prefetch pool;
    ``files_per_snapshot`` splits each snapshot's I/O demand across that
    many separately-loadable file units. The defaults of 1/1 replay the
    paper's exact single-thread schedule, event for event.

    ``compute_workers``/``compute_backend`` model the compute plane:
    each snapshot's compute demand is split evenly across that many
    workers. The ``"thread"`` backend serializes
    :data:`THREAD_GIL_FRACTION` of every worker's share through a GIL
    semaphore; the ``"process"`` backend
    (:class:`~repro.core.compute_proc.ProcessComputePool`) runs shares
    fully concurrently, inflated by
    :data:`PROCESS_DISPATCH_OVERHEAD`. ``compute_workers=1`` (the
    default) bypasses the model entirely — the serial schedule is
    replayed event for event.
    """
    if mode not in ("O", "G", "TG"):
        raise ValueError(f"unknown mode {mode!r}")
    if io_workers < 1:
        raise ValueError("io_workers must be at least 1")
    if files_per_snapshot < 1:
        raise ValueError("files_per_snapshot must be at least 1")
    if compute_workers < 1:
        raise ValueError("compute_workers must be at least 1")
    if compute_backend not in ("thread", "process"):
        raise ValueError(
            "compute_backend must be 'thread' or 'process', "
            f"got {compute_backend!r}"
        )

    [(total, waits)], [cpu], [disk] = _run_nodes(
        machine, workload, mode, [range(workload.n_snapshots)],
        window_units=window_units, competitor=competitor,
        jitter=jitter, seed=seed, io_workers=io_workers,
        files_per_snapshot=files_per_snapshot,
        compute_workers=compute_workers,
        compute_backend=compute_backend,
    )
    return SimRunResult(
        mode=mode,
        test=workload.test,
        machine=machine.name,
        n_snapshots=workload.n_snapshots,
        total_s=total,
        visible_io_s=sum(waits),
        io_workers=io_workers if mode == "TG" else 1,
        files_per_snapshot=files_per_snapshot if mode == "TG" else 1,
        compute_workers=compute_workers,
        compute_backend=compute_backend,
        per_unit_wait_s=waits,
        cpu_busy_s=cpu.busy_cpu_seconds,
        disk_busy_s=disk.busy_seconds,
    )


def _cluster_run(machine: Machine, workload: TestWorkload, mode: str,
                 node_units: Sequence[Sequence[int]], shared_disk: bool,
                 window_units: int) -> ClusterRunResult:
    """Run one node per step list and report it per worker."""
    runs, _cpus, disks = _run_nodes(
        machine, workload, mode, node_units,
        window_units=window_units, shared_disk=shared_disk,
    )
    return ClusterRunResult(
        mode=mode, n_workers=len(node_units), shared_disk=shared_disk,
        workers=[
            WorkerRun(worker=index, n_units=len(steps), finish_s=finish,
                      visible_io_s=sum(waits))
            for index, (steps, (finish, waits))
            in enumerate(zip(node_units, runs))
        ],
        disk_busy_s=sum(disk.busy_seconds for disk in disks),
    )


def simulate_cluster_voyager(
    machine: Machine,
    workload: TestWorkload,
    mode: str,
    n_workers: int,
    shared_disk: bool = False,
    window_units: int = 12,
) -> ClusterRunResult:
    """Simulate ``n_workers`` Voyager processes over a snapshot split.

    Each worker runs on its own node (private CPU pool, the paper's
    one-Voyager-process-per-node setup) over its
    :func:`~repro.parallel.placement.partition_snapshots` share; disks
    are private per node or one shared device. ``mode``: 'G' (blocking)
    or 'TG' (background prefetch per worker — each worker owns a
    private GODIVA database and I/O thread, section 3.3).
    """
    if mode not in ("G", "TG"):
        raise ValueError(f"unsupported cluster mode {mode!r}")
    if n_workers < 1:
        raise ValueError("need at least one worker")

    from repro.parallel.placement import partition_snapshots

    return _cluster_run(
        machine, workload, mode,
        partition_snapshots(workload.n_snapshots, n_workers),
        shared_disk, window_units,
    )


def simulate_sharded_gbo(
    machine: Machine,
    workload: TestWorkload,
    n_shards: int,
    shared_disk: bool = False,
    window_units: int = 12,
) -> ClusterRunResult:
    """Simulate one sharded-GBO run at a fixed shard count.

    Every shard host runs the TG pipeline over its rendezvous-assigned
    units: an I/O process prefetches through a ``window_units``-deep
    budget window (the shard's memory slice, expressed in units), the
    render process consumes in order. ``shared_disk`` funnels every
    host through one storage device.
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")

    from repro.parallel.placement import PlacementMap

    shard_ids = [f"shard{i}" for i in range(n_shards)]
    steps = PlacementMap(shard_ids).steps(workload.n_snapshots)
    return _cluster_run(
        machine, workload, "TG", [steps[shard] for shard in shard_ids],
        shared_disk, window_units,
    )


@dataclass
class ComputeSweepPoint:
    """One (backend, workers) cell of a compute-plane sweep."""

    backend: str
    workers: int
    total_s: float
    computation_s: float
    #: Compute-wall speedup over the serial (one-worker) run.
    speedup: float


def compute_sweep(
    workload: TestWorkload,
    machine: Optional[Machine] = None,
    workers: Sequence[int] = (1, 2, 4),
    backends: Sequence[str] = ("thread", "process"),
    mode: str = "G",
    window_units: int = 12,
) -> List[ComputeSweepPoint]:
    """Sweep the compute plane: backend x worker-count, same workload.

    Runs :func:`simulate_voyager` once per cell on ``machine`` (default:
    a zero-contention four-core :func:`~repro.simulate.machine.compute_host`)
    and reports each cell's compute wall
    (:attr:`SimRunResult.computation_s`) as a speedup over the serial
    run. Returns one :class:`ComputeSweepPoint` per (backend, workers)
    cell, backends outermost, in the order given. Deterministic, and a
    model, not a measurement: ``tests/test_simulate_compute.py`` asserts
    its shape — the thread backend plateaus at ``1 / (f + (1-f)/W)``
    under the GIL while the process backend tracks
    ``W / (1 + overhead)``.
    """
    if machine is None:
        machine = compute_host(4)
    base = simulate_voyager(machine, workload, mode,
                            window_units=window_units)
    points: List[ComputeSweepPoint] = []
    for backend in backends:
        for count in workers:
            run = simulate_voyager(
                machine, workload, mode,
                window_units=window_units,
                compute_workers=count,
                compute_backend=backend,
            )
            speedup = (base.computation_s / run.computation_s
                       if run.computation_s > 0 else float("inf"))
            points.append(ComputeSweepPoint(
                backend=backend,
                workers=count,
                total_s=run.total_s,
                computation_s=run.computation_s,
                speedup=speedup,
            ))
    return points
