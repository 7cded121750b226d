"""ShardedGBO — shard-per-process GODIVA over shared-memory arenas.

The multi-process launcher (:mod:`repro.parallel.launcher`) runs fully
independent Voyager passes: each worker owns a private GBO and returns
only scalar metrics. The *sharded* build keeps the process-per-shard
layout but turns the fleet into one database:

* **Placement** — unit names map to shards deterministically
  (:mod:`repro.parallel.placement` rendezvous hashing by default, or a
  cost-weighted static split); every participant computes the owner
  locally, so there is no placement traffic at all.
* **Shared-memory data plane** — every shard host allocates its GBO's
  buffers from a :class:`~repro.core.arena.SharedMemoryArena` and
  publishes rendered frames as sealed arena buffers. The coordinator
  attaches the exported :class:`~repro.core.arena.BufferToken`\\ s and
  reads frames **zero-copy, read-only** (the PR-5 view discipline,
  across process boundaries); only tokens — a few dozen bytes — cross
  the pipes.
* **Global budget protocol** — the coordinator carves the global
  memory budget into per-shard slices and tracks them on a
  :class:`~repro.service.tenancy.TenantLedger` (shards are tenants
  with carve-out *floors*). A shard that exhausts its slice — after
  its own engine has already tried eviction and
  :class:`~repro.core.memory_manager.LoadYield` rollback — raises
  ``pressure``; the coordinator *work-steals* budget from peers above
  their carve-outs (each peer shrinks via ``set_mem_space``, evicting
  down), then ``grant``\\ s the freed bytes. Only when no peer has
  stealable slack does the shard's failure surface as the cluster's
  deadlock verdict.

Lock discipline: the coordinator owns one lock, ``ShardedGBO._lock``,
registered under the **engine** role (rank 0) in
``repro.analysis.lockfacts`` — the borrowed :class:`TenantLedger`
"Lock held." contracts therefore resolve against it, exactly as they
do against ``GBO._lock`` in the service layer. Shard hosts are
:class:`~repro.core.child.Child` processes, one pipe each, and reuse the
engine's existing locks; inside a host the two threads share only a
queue of grant verdicts and the lock serializing their sends.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.primitives import TrackedLock, make_held_checker
from repro.analysis.races import guarded_by
from repro.core.arena import AttachCache, BufferToken, SharedMemoryArena
from repro.core.child import Child, close_all, ready
from repro.core.compute import usable_cores
from repro.core.config import EngineConfig, resolve_budget
from repro.core.database import GBO
from repro.core.stats import GodivaStats
from repro.errors import (
    ChildExitedError,
    GodivaDeadlockError,
    GodivaError,
    MemoryBudgetError,
    ReadFunctionError,
)
from repro.io.disk import ENGLE_DISK, DiskProfile, IoStats
from repro.io.readers import (
    make_snapshot_read_fn,
    snapshot_unit_name,
    solid_schema,
)
from repro.parallel.placement import PlacementMap, weighted_assignment
from repro.parallel.scheduler import partition_snapshots
from repro.service.tenancy import TenantLedger
from repro.viz.camera import Camera
from repro.viz.gops import test_gops
from repro.viz.pipeline import Pipeline
from repro.viz.voyager import GodivaSnapshotData

#: Placement strategies :class:`ShardedGBO` accepts.
PLACEMENTS = ("rendezvous", "weighted", "block", "cyclic")

#: How long a shard waits for the coordinator's grant/deny verdict, and
#: how long the coordinator waits for any shard message, before
#: declaring the protocol wedged.
DEFAULT_PROTOCOL_TIMEOUT_S = 60.0

_MB = 1024 * 1024


@dataclass
class ShardSpec:
    """Everything one shard host needs to run (picklable, spawn-safe)."""

    shard_index: int
    shard_id: str
    data_dir: str
    test: str
    steps: List[int]
    #: This shard's engine: the fleet's knobs, this shard's budget
    #: slice, and the coordinator's oversubscription guard
    #: (``compute_max_threads`` = host cores // shard count).
    config: EngineConfig
    render: bool = True
    disk: DiskProfile = ENGLE_DISK
    segment_bytes: int = 4 * _MB
    max_pressure_rounds: int = 8
    protocol_timeout_s: float = DEFAULT_PROTOCOL_TIMEOUT_S


@dataclass
class ShardReport:
    """One shard's final accounting, returned by value when it drains."""

    shard_id: str
    n_frames: int
    triangles: int
    stats: GodivaStats
    io: Dict[str, float]
    arena: dict
    pressure_rounds: int


@dataclass
class ShardedResult:
    """Outcome of one sharded render.

    ``frames`` maps snapshot step to a **read-only, zero-copy** ndarray
    over the producing shard's shared memory — valid until the owning
    :class:`ShardedGBO` is closed (copy first to outlive it).
    """

    n_shards: int
    frames: Dict[int, np.ndarray]
    triangles: int
    stats: GodivaStats
    io_totals: Dict[str, float]
    shards: List[ShardReport] = field(default_factory=list)
    assignment: Dict[str, List[int]] = field(default_factory=dict)
    pressure_rounds: int = 0
    reclaims: int = 0
    wall_s: float = 0.0


class _ShardUsage:
    """Coordinator-side mirror of one shard's resident bytes.

    Quacks like a :class:`~repro.core.unit_store.ProcessingUnit` just
    enough for :meth:`TenantLedger.usage_by_tenant`, which only reads
    ``resident_bytes`` of the unit table it was bound to. One synthetic
    unit per shard, named ``tenant::<shard>::resident`` so
    :func:`~repro.service.tenancy.tenant_of` attributes it.
    """

    __slots__ = ("resident_bytes",)

    def __init__(self) -> None:
        self.resident_bytes = 0


# ----------------------------------------------------------------------
# Shard host (child process)
# ----------------------------------------------------------------------

def _budget_cause(err: Optional[BaseException]
                  ) -> Optional[BaseException]:
    """The budget failure behind ``err``, following the cause chain.

    ``wait_unit`` wraps a read callback's MemoryBudgetError in
    ReadFunctionError; the pressure protocol cares about the root.
    """
    seen = set()
    while err is not None and id(err) not in seen:
        if isinstance(err, (MemoryBudgetError, GodivaDeadlockError)):
            return err
        seen.add(id(err))
        err = err.__cause__ or err.__context__
    return None


class _ShardHost:
    """The per-process shard engine: a GBO over a shared-memory arena.

    The main thread runs the serial Voyager render loop over the
    shard's snapshot steps; a control thread serves coordinator
    commands (budget reclaims, grants, shutdown) concurrently — every
    GBO entry point it uses is thread-safe, and the two threads share
    state only through :class:`queue.SimpleQueue`. Both send on the one
    pipe, so :meth:`_send` serializes them.
    """

    def __init__(self, spec: ShardSpec, conn) -> None:
        self.spec = spec
        self.conn = conn
        self._send_lock = TrackedLock(f"_ShardHost._send_lock@{id(self):#x}")
        # The arena's own random ``godiva-<hex>`` prefix: a fixed
        # per-shard name would collide with the same shard of another
        # fleet alive on this host.
        self.arena = SharedMemoryArena(segment_bytes=spec.segment_bytes)
        self.gbo = GBO(config=spec.config, arena=self.arena)
        self.io_stats = IoStats()
        #: Sealed frame arrays, kept alive until shutdown so the
        #: coordinator can attach their tokens at leisure.
        self._frames: List[np.ndarray] = []
        self._grants: queue_module.SimpleQueue = queue_module.SimpleQueue()
        self._shutdown = threading.Event()
        #: Set while the render thread is mid-step (loading/rendering a
        #: unit). Reclaims are deferred until it clears — shrinking a
        #: shard's budget under its in-flight load fails the load and
        #: turns two pressuring shards into a grant/steal ping-pong.
        self._stepping = threading.Event()
        self._req_seq = 0
        self.pressure_rounds = 0

    # -- control thread ------------------------------------------------
    def _control_loop(self) -> None:
        """Serve coordinator commands until shutdown, until the
        coordinator is gone (EOF), or until serving one fails — all
        three release the render thread."""
        try:
            while True:
                try:
                    msg = self.conn.recv()
                except (EOFError, OSError):
                    return
                kind = msg["type"]
                if kind == "shutdown":
                    return
                if kind == "reclaim":
                    # Wait out an in-flight step first: it completes (or
                    # fails) in bounded time, and ``_stepping`` is clear
                    # whenever the render thread is parked waiting on
                    # its own grant — so two starving shards take turns
                    # instead of stealing each other's grants mid-load.
                    deadline = (time.monotonic()
                                + self.spec.protocol_timeout_s)
                    while (self._stepping.is_set()
                           and time.monotonic() < deadline):
                        time.sleep(0.005)
                    freed = self._shrink_by(int(msg["steal_bytes"]))
                    self._send({
                        "type": "reclaimed",
                        "req": msg["req"],
                        "freed": freed,
                        "used": self.gbo.mem_used_bytes,
                        "budget": self.gbo.mem_budget_bytes,
                    })
                elif kind == "grant":
                    # Applied here, not in the render thread: the control
                    # thread is the *only* budget mutator on a host, so
                    # a grant can never interleave with a concurrent
                    # reclaim's read-modify-write of the budget.
                    self.gbo.set_mem_space(
                        mem=self.gbo.mem_budget_bytes + int(msg["mem_delta"])
                    )
                    # Shield the grant until the retry actually runs: a
                    # reclaim landing between here and the render
                    # thread's next attempt would steal it straight back.
                    self._stepping.set()
                    self._grants.put(msg)
                elif kind == "deny":
                    self._grants.put(msg)
        finally:
            self._shutdown.set()
            self._grants.put({"type": "shutdown"})  # wakes a grant waiter

    def _shrink_by(self, steal_bytes: int) -> int:
        """Shrink the budget by ``steal_bytes``; returns bytes freed.

        The reclaim is *relative* — grants and reclaims race on a busy
        host (control thread vs render thread), and deltas commute
        where absolute targets would clobber each other.
        ``set_mem_space`` evicts finished units and derived entries
        down to the new budget; pinned memory that cannot be evicted
        stays, so the achieved budget is ``max(target, used_after)`` —
        the coordinator is told the truth, never a promise.
        """
        old = self.gbo.mem_budget_bytes
        target = max(old - max(int(steal_bytes), 0), 1)
        if target >= old:
            return 0
        self.gbo.set_mem_space(mem=target)
        achieved = max(target, self.gbo.mem_used_bytes)
        if achieved > target:
            self.gbo.set_mem_space(mem=achieved)
        return old - achieved

    # -- render loop (main thread) -------------------------------------
    def _send(self, msg: dict) -> None:
        msg["shard"] = self.spec.shard_id
        with self._send_lock:
            self.conn.send(msg)

    def _request_grant(self, error: BaseException) -> bool:
        """The pressure round-trip; True when the coordinator granted.

        The failing charge's ``needed`` understates the real shortfall
        when a multi-buffer load dies on its *first* over-budget
        allocation, so the request asks for at least a budget doubling
        — geometric growth keeps the retry count logarithmic, and the
        coordinator only ever moves ``min(needed, peer slack)``.
        """
        needed = int(getattr(error, "needed", None) or 0)
        needed = max(needed, self.gbo.mem_budget_bytes, 1)
        self._req_seq += 1
        self.pressure_rounds += 1
        req = (self.spec.shard_id, self._req_seq)
        self._send({
            "type": "pressure",
            "req": req,
            "needed": int(needed),
            "used": self.gbo.mem_used_bytes,
            "budget": self.gbo.mem_budget_bytes,
        })
        try:
            reply = self._grants.get(
                timeout=self.spec.protocol_timeout_s
            )
        except queue_module.Empty:
            return False
        # The control thread already applied a grant's budget delta.
        return reply["type"] == "grant"

    def _publish_frame(self, step: int, image: Optional[np.ndarray],
                       triangles: int) -> None:
        """Seal a frame into the arena and ship its token (zero-copy)."""
        token: Optional[BufferToken] = None
        if image is not None:
            frame = self.arena.allocate(dtype=image.dtype,
                                        shape=image.shape)
            np.copyto(frame, image)
            self.arena.seal(frame)
            token = self.arena.export_token(frame)
            self._frames.append(frame)
        self._send({
            "type": "frame",
            "step": step,
            "token": token,
            "triangles": int(triangles),
            "used": self.gbo.mem_used_bytes,
            "budget": self.gbo.mem_budget_bytes,
        })

    def _render(self) -> Tuple[int, int]:
        """The serial Voyager G/TG loop over this shard's steps.

        Identical op order to :meth:`repro.viz.voyager.Voyager.
        _drive_godiva` (same camera, same pipeline, same unit
        schedule), so per-step frames are byte-for-byte what the
        single-process serial build renders.
        """
        spec = self.spec
        from repro.gen.snapshot import load_manifest

        manifest = load_manifest(spec.data_dir)
        gops = test_gops(spec.test)
        camera = Camera.fit_bounds((-1.7, -1.7, 0.0), (1.7, 1.7, 10.0))
        pipeline = Pipeline(gops, camera=camera, render=spec.render)
        read_fn = make_snapshot_read_fn(
            manifest, fields=gops.fields_used(),
            stats=self.io_stats, profile=spec.disk,
        )
        solid_schema().ensure(self.gbo)
        for step in spec.steps:
            self.gbo.add_unit(snapshot_unit_name(step), read_fn)
        n_frames = 0
        triangles = 0
        for step in spec.steps:
            unit = snapshot_unit_name(step)
            attempts = 0
            while True:
                self._stepping.set()
                try:
                    self.gbo.wait_unit(unit)
                    plan = pipeline.begin(GodivaSnapshotData(
                        self.gbo,
                        manifest.snapshots[step].tsid,
                        manifest.block_ids,
                    ))
                    result = pipeline.finish(plan)
                    break
                except (MemoryBudgetError, GodivaDeadlockError,
                        ReadFunctionError) as err:
                    self._stepping.clear()
                    # The engine already tried eviction and LoadYield
                    # rollback; escalate to the coordinator before
                    # accepting the verdict. A budget failure inside
                    # the unit's read callback arrives wrapped in
                    # ReadFunctionError — unwrap it, and anything
                    # else a read function raised stays fatal.
                    cause = _budget_cause(err)
                    if cause is None:
                        raise
                    attempts += 1
                    failed_load = isinstance(err, ReadFunctionError)
                    if failed_load:
                        # Drop the partial load's pinned charges before
                        # asking for more budget — a raided peer must
                        # be able to shrink this shard too, or two
                        # starved shards livelock each other.
                        self.gbo.delete_unit(unit)
                    if attempts > spec.max_pressure_rounds:
                        raise cause
                    if not self._request_grant(cause):
                        # Denied: the peers had nothing to spare *right
                        # now*. Pinned bytes unpin at step boundaries,
                        # so back off and re-raise pressure; only an
                        # exhausted round budget is the real verdict.
                        time.sleep(min(0.1 * attempts, 0.5))
                    if failed_load:
                        # Reschedule the unit under whatever budget the
                        # round ended with.
                        self.gbo.add_unit(unit, read_fn)
                finally:
                    self._stepping.clear()
            triangles += result.triangles
            self._publish_frame(step, result.image, result.triangles)
            n_frames += 1
            self.gbo.delete_unit(unit)
        return n_frames, triangles

    def run(self) -> None:
        """Render, report, then hold the arena until shutdown."""
        control = threading.Thread(
            target=self._control_loop,
            name=f"{self.spec.shard_id}-control",
            daemon=True,
        )
        control.start()
        try:
            n_frames, triangles = self._render()
            self._send({
                "type": "done",
                "report": ShardReport(
                    shard_id=self.spec.shard_id,
                    n_frames=n_frames,
                    triangles=triangles,
                    stats=self.gbo.stats,
                    io=self.io_stats.snapshot(),
                    arena=self.arena.report(),
                    pressure_rounds=self.pressure_rounds,
                ),
            })
        except BaseException as err:  # ship the verdict, then clean up
            self._send({
                "type": "error",
                "kind": type(err).__name__,
                "message": str(err),
                "traceback": traceback.format_exc(),
            })
        finally:
            # Keep the arena mapped, and keep answering reclaims, until
            # the coordinator signals "shutdown" — or dies: the control
            # thread reads its pipe's EOF as shutdown.
            self._shutdown.wait()
            self.gbo.close()
            self._frames.clear()
            self.arena.close()


def _shard_main(conn, spec: ShardSpec) -> None:
    """Child-process entry point (must be module-level for spawn)."""
    _ShardHost(spec, conn).run()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

class _Pressure:
    """One in-flight pressure request's coordinator-side state."""

    __slots__ = ("shard_id", "req", "needed", "awaiting", "freed",
                 "usage", "over", "plan")

    def __init__(self, shard_id: str, req, needed: int,
                 usage: Dict[str, int], over: List[str]) -> None:
        self.shard_id = shard_id
        self.req = req
        self.needed = needed
        self.awaiting: set = set()
        self.freed = 0
        self.usage = usage
        self.over = over
        self.plan: Dict[str, int] = {}


@guarded_by("_budgets", "_usage_units", "_inflight", lock="_lock")
class ShardedGBO:
    """Coordinator for a fleet of shard-host processes.

    Partitions the dataset's snapshot steps across ``n_shards``
    processes (placement below), spawns one :func:`_shard_main` child
    per shard, arbitrates the global memory budget over a
    :class:`TenantLedger`, and collects frames zero-copy.

    Placement: ``"rendezvous"`` (default) hashes each snapshot's unit
    name onto the shard set — deterministic, coordination-free, and
    minimally disturbed by shard-count changes; ``"weighted"``
    LPT-balances explicit per-snapshot ``weights``; ``"block"`` /
    ``"cyclic"`` are the launcher's classic splits.

    Budget: the global ``mem_mb`` is sliced evenly into per-shard
    budgets; each shard's *carve-out* (guaranteed floor) is
    ``carveout_fraction`` of its slice, and the slack above the floors
    is what the pressure protocol can move between shards.

    ``**engine`` keywords (:class:`~repro.core.config.EngineConfig`
    fields) configure every shard host's engine alike.
    """

    def __init__(self, data_dir: str, n_shards: int = 2, *,
                 test: str = "simple",
                 mem_mb: float = 384.0,
                 carveout_fraction: float = 0.5,
                 placement: str = "rendezvous",
                 weights: Optional[Sequence[float]] = None,
                 steps: Optional[int] = None,
                 render: bool = True,
                 disk: DiskProfile = ENGLE_DISK,
                 protocol_timeout_s: float = DEFAULT_PROTOCOL_TIMEOUT_S,
                 **engine: object):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        # Built, so validated, here in the parent: a bad knob must not
        # take a fleet of spawned hosts to find. compute_max_threads is
        # the oversubscription guard — n_shards pools each sizing
        # themselves to the whole machine would run n_shards * cores
        # compute threads, so the cores are divided across shards.
        slice_bytes = max(resolve_budget(mem_mb=mem_mb) // n_shards, 1)
        shard_config = EngineConfig(
            slice_bytes,
            compute_max_threads=max(1, usable_cores() // n_shards),
            **engine,
        )
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; choose one of "
                + ", ".join(repr(p) for p in PLACEMENTS)
            )
        if not 0.0 <= carveout_fraction <= 1.0:
            raise ValueError("carveout_fraction must be in [0, 1]")
        self.data_dir = data_dir
        self.n_shards = n_shards
        self.test = test
        self.render = render
        self.protocol_timeout_s = protocol_timeout_s
        self.shard_ids = [f"shard{i}" for i in range(n_shards)]
        self.placement = PlacementMap(self.shard_ids)

        from repro.gen.snapshot import load_manifest

        manifest = load_manifest(data_dir)
        n_steps = len(manifest.snapshots)
        if steps is not None:
            n_steps = min(n_steps, steps)
        self.assignment = self._assign(placement, n_steps, weights)

        self._lock = TrackedLock(f"ShardedGBO._lock@{id(self):#x}")
        self._check_locked = make_held_checker(self._lock, "ShardedGBO")
        self._budgets: Dict[str, int] = {
            shard: slice_bytes for shard in self.shard_ids
        }
        #: Steal bytes planned but not yet confirmed by a ``reclaimed``
        #: reply — subtracted from slack so two concurrent pressure
        #: rounds cannot both commit the same peer bytes.
        self._inflight: Dict[str, int] = {
            shard: 0 for shard in self.shard_ids
        }
        self._usage_units: Dict[str, _ShardUsage] = {
            f"tenant::{shard}::resident": _ShardUsage()
            for shard in self.shard_ids
        }
        self._ledger = TenantLedger()
        self._ledger.bind(lock=self._lock, units=self._usage_units)
        with self._lock:
            for shard in self.shard_ids:
                self._ledger.register(
                    shard, int(slice_bytes * carveout_fraction)
                )

        self._specs = [
            ShardSpec(
                shard_index=index,
                shard_id=shard,
                data_dir=data_dir,
                test=test,
                steps=self.assignment[shard],
                config=shard_config,
                render=render,
                disk=disk,
                protocol_timeout_s=protocol_timeout_s,
            )
            for index, shard in enumerate(self.shard_ids)
        ]
        self._hosts: Dict[str, Child] = {}
        #: The mappings of every frame the hosts publish.
        self._attach = AttachCache()
        self._closed = False

    # ------------------------------------------------------------------
    def _assign(self, placement: str, n_steps: int,
                weights: Optional[Sequence[float]]
                ) -> Dict[str, List[int]]:
        """Snapshot steps per shard id under the chosen placement."""
        if placement == "rendezvous":
            from repro.io.readers import unit_step

            groups = self.placement.partition(
                [snapshot_unit_name(step) for step in range(n_steps)]
            )
            return {
                shard: sorted(unit_step(name) for name in names)
                for shard, names in groups.items()
            }
        if placement == "weighted":
            return weighted_assignment(n_steps, self.shard_ids, weights)
        parts = partition_snapshots(n_steps, self.n_shards, placement)
        return dict(zip(self.shard_ids, parts))

    # ------------------------------------------------------------------
    # Budget arbitration (all ledger/budget state under self._lock)
    # ------------------------------------------------------------------
    def _note_usage(self, msg: dict) -> None:
        """Refresh a shard's resident bytes from one of its messages."""
        with self._lock:
            self._usage_units[
                f"tenant::{msg['shard']}::resident"
            ].resident_bytes = int(msg["used"])

    def _plan_steal(self, pressure: _Pressure,
                    starving: Set[str]) -> Dict[str, int]:
        """Per-peer *steal amounts* covering ``needed`` bytes. Lock held.

        Peers are raided richest-slack-first; no peer is pushed below
        its carve-out floor (that is the ledger's guarantee to every
        shard), and the requester is never its own victim. Peers with
        their *own* pressure round open (``starving``) are exempt —
        two starving shards raiding each other just shuttle the same
        bytes back and forth (each round's grant cancels the other's
        reclaim, net zero, forever); denying the later request instead
        serializes them, and the denied shard's backoff retry wins
        once the first round's holder finishes a step.
        """
        self._check_locked()
        plan: Dict[str, int] = {}
        remaining = pressure.needed
        candidates = sorted(
            (
                (self._budgets[peer]
                 - self._ledger.carveout_of(peer)
                 - self._inflight[peer],
                 peer)
                for peer in self.shard_ids
                if peer != pressure.shard_id and peer not in starving
            ),
            reverse=True,
        )
        for slack, peer in candidates:
            if remaining <= 0:
                break
            steal = min(slack, remaining)
            if steal <= 0:
                continue
            plan[peer] = steal
            remaining -= steal
        return plan

    def _handle_pressure(self, msg: dict,
                         pending: Dict[object, _Pressure]) -> None:
        """Open a pressure round: plan steals or deny outright."""
        shard_id = msg["shard"]
        self._note_usage(msg)
        pressure_req = msg["req"]
        with self._lock:
            # The coordinator's budget ledger stays authoritative here:
            # the shard's self-reported budget can predate an in-flight
            # reclaim and would un-account the steal.
            usage = self._ledger.usage_by_tenant()
            over = self._ledger.over_carveout(usage)
            pressure = _Pressure(shard_id, pressure_req,
                                 int(msg["needed"]), usage, over)
            starving = {p.shard_id for p in pending.values()}
            plan = self._plan_steal(pressure, starving)
            pressure.plan = plan
            pressure.awaiting = set(plan)
            for peer, steal in plan.items():
                self._inflight[peer] += steal
        if not plan:
            self._hosts[shard_id].send({"type": "deny", "req": pressure_req})
            return
        pending[pressure_req] = pressure
        for peer, steal in plan.items():
            self._hosts[peer].send({
                "type": "reclaim",
                "req": pressure_req,
                "steal_bytes": steal,
            })

    def _handle_reclaimed(self, msg: dict,
                          pending: Dict[object, _Pressure],
                          result: ShardedResult) -> None:
        """Fold one peer's reclaim reply; settle the round when full."""
        peer = msg["shard"]
        self._note_usage(msg)
        pressure = pending.get(msg["req"])
        if pressure is None:
            return
        freed = int(msg["freed"])
        with self._lock:
            # Delta accounting: the ledger moves exactly the bytes the
            # victim actually freed — self-reported absolute budgets
            # can predate a concurrent grant and would un-account it.
            self._budgets[peer] -= freed
            self._inflight[peer] -= pressure.plan.get(peer, 0)
            pressure.awaiting.discard(peer)
            pressure.freed += freed
            if freed > 0:
                result.reclaims += 1
                # Charge the eviction to the raided shard on the
                # ledger, against the usage snapshot the plan used.
                self._ledger.note_victim(
                    f"tenant::{peer}::resident",
                    pressure.usage, sorted(pressure.over),
                )
            settled = not pressure.awaiting
            if settled:
                del pending[pressure.req]
                granted = pressure.freed > 0
                if granted:
                    self._budgets[pressure.shard_id] += pressure.freed
        if not settled:
            return
        if granted:
            self._hosts[pressure.shard_id].send({
                "type": "grant",
                "req": pressure.req,
                "mem_delta": pressure.freed,
            })
        else:
            self._hosts[pressure.shard_id].send(
                {"type": "deny", "req": pressure.req}
            )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def render_all(self) -> ShardedResult:
        """Run every shard to completion; returns the merged result.

        Frames in the result are zero-copy views into shard memory and
        stay valid until :meth:`close`.
        """
        if self._closed:
            raise GodivaError("ShardedGBO is closed")
        # A rerun's hosts reuse the segment names: map them afresh.
        self._attach.close()
        t0 = time.perf_counter()
        self._hosts = {spec.shard_id: Child(_shard_main, spec,
                                            name=spec.shard_id)
                       for spec in self._specs}

        result = ShardedResult(
            n_shards=self.n_shards,
            frames={},
            triangles=0,
            stats=GodivaStats(),
            io_totals={},
            assignment=dict(self.assignment),
        )
        pending: Dict[object, _Pressure] = {}
        done: Dict[str, ShardReport] = {}
        try:
            while len(done) < self.n_shards:
                # Every host, done ones too: they still answer reclaims.
                woken = ready(list(self._hosts.values()),
                              self.protocol_timeout_s)
                if not woken:
                    raise GodivaError(
                        "sharded run wedged: no shard message for "
                        f"{self.protocol_timeout_s:.0f}s"
                    )
                for host in woken:
                    msg = host.recv()
                    kind = msg["type"]
                    if kind == "frame":
                        self._note_usage(msg)
                        if msg["token"] is not None:
                            result.frames[msg["step"]] = \
                                self._attach.attach(msg["token"])
                    elif kind == "pressure":
                        result.pressure_rounds += 1
                        self._handle_pressure(msg, pending)
                    elif kind == "reclaimed":
                        self._handle_reclaimed(msg, pending, result)
                    elif kind == "done":
                        done[msg["shard"]] = msg["report"]
                    elif kind == "error":  # raised after the shutdown
                        shard_id = msg["shard"]
                        if msg["kind"] in ("MemoryBudgetError",
                                           "GodivaDeadlockError"):
                            raise GodivaDeadlockError(
                                f"{shard_id} out of memory after cross-shard "
                                f"reclamation was exhausted — the cluster's "
                                f"deadlock verdict ({msg['kind']}: {msg['message']})"
                            )
                        raise GodivaError(
                            f"{shard_id} failed: {msg['kind']}: {msg['message']}\n"
                            f"{msg['traceback']}"
                        )
        except ChildExitedError as err:  # a recv, or a send to a peer
            raise GodivaError(
                f"shard host exited without reporting: {err}") from None
        finally:
            self._shutdown_shards()
        result.wall_s = time.perf_counter() - t0
        for shard in self.shard_ids:
            report = done[shard]
            result.shards.append(report)
            result.triangles += report.triangles
            result.stats.merge(report.stats)
            for key, value in report.io.items():
                if isinstance(value, (int, float)):
                    result.io_totals[key] = (
                        result.io_totals.get(key, 0) + value
                    )
        return result

    def _shutdown_shards(self) -> None:
        """Release and close every host."""
        hosts, self._hosts = self._hosts, {}
        close_all(hosts.values(), {"type": "shutdown"})

    # ------------------------------------------------------------------
    def ledger_snapshot(self) -> Dict[str, dict]:
        """Per-shard carve-out/usage/eviction report off the ledger."""
        with self._lock:
            return self._ledger.snapshot()

    def budgets(self) -> Dict[str, int]:
        """The coordinator's view of each shard's current budget."""
        with self._lock:
            return dict(self._budgets)

    def close(self) -> None:
        """Detach every frame mapping; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._shutdown_shards()
        self._attach.close()

    def __enter__(self) -> "ShardedGBO":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def render_sharded(data_dir: str, n_shards: int,
                   **kwargs: object) -> ShardedResult:
    """One-shot sharded render with frames *copied* out of shard memory.

    Convenience for callers that want the frames to outlive the fleet:
    runs :meth:`ShardedGBO.render_all`, materializes each frame as a
    private read-only copy, and tears everything down.
    """
    with ShardedGBO(data_dir, n_shards, **kwargs) as cluster:
        result = cluster.render_all()
        owned: Dict[int, np.ndarray] = {}
        for step, frame in result.frames.items():
            copy = frame.copy()
            copy.flags.writeable = False
            owned[step] = copy
        result.frames = owned
    return result
