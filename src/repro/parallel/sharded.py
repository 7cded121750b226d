"""ShardedGBO — shard-per-process GODIVA over shared-memory arenas.

The multi-process launcher (:mod:`repro.parallel.launcher`) runs fully
independent Voyager passes: each worker owns a private GBO and returns
only scalar metrics. The *sharded* build keeps the process-per-shard
layout but turns the fleet into one database:

* **Placement** — unit names map to shards by
  :mod:`repro.parallel.placement` rendezvous hashing; every participant
  computes the owner locally, so there is no placement traffic at all.
* **Shared-memory data plane** — every shard host allocates its GBO's
  buffers from a :class:`~repro.core.shared_arena.SharedMemoryArena` and
  publishes rendered frames as sealed arena buffers. The coordinator
  attaches the exported :class:`~repro.core.arena.BufferToken`\\ s and
  reads frames **zero-copy, read-only** (the PR-5 view discipline,
  across process boundaries); only tokens — a few dozen bytes — cross
  the pipes.
* **Fixed budgets** — each shard host's budget is the global budget
  divided by the shard count, fixed for the run: the paper's static
  split (§3.3, §4), one private GBO per processor and no traffic
  between the databases. A slice that cannot hold a step is the
  fleet's deadlock verdict (ADR-024).

Lock discipline: the coordinator holds no lock of its own — one thread
runs :meth:`ShardedGBO.render_all`. Shard hosts are
:class:`~repro.core.child.Child` processes, one pipe each, and reuse
the engine's existing locks; a host's one thread renders and sends.
"""

from __future__ import annotations

import time
import traceback
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.arena import BufferToken
from repro.core.shared_arena import AttachCache, SharedMemoryArena
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
)
from repro.io.disk import ENGLE_DISK, DiskProfile, IoStats
from repro.io.readers import (
    make_snapshot_read_fn,
    snapshot_unit_name,
    solid_schema,
)
from repro.parallel.placement import PlacementMap
from repro.viz.camera import Camera
from repro.viz.godiva_data import GodivaSnapshotData
from repro.viz.gops import test_gops
from repro.viz.pipeline import Pipeline

#: How long the coordinator waits for any shard message before
#: declaring the run wedged.
DEFAULT_PROTOCOL_TIMEOUT_S = 60.0

_MB = 1024 * 1024

#: Each shard host's arena segment size.
SEGMENT_BYTES = 4 * _MB


@dataclass
class ShardSpec:
    """Everything one shard host needs to run (picklable, spawn-safe)."""

    shard_id: str
    data_dir: str
    test: str
    steps: List[int]
    #: This shard's engine: the fleet's knobs, this shard's fixed
    #: budget slice, and the coordinator's oversubscription guard
    #: (``compute_max_threads`` = host cores // shard count).
    config: EngineConfig
    render: bool = True
    disk: DiskProfile = ENGLE_DISK


@dataclass
class ShardReport:
    """One shard's final accounting, returned by value when it drains."""

    shard_id: str
    n_frames: int
    triangles: int
    stats: GodivaStats
    io: Dict[str, float]
    arena: dict


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
    #: Always 0: budgets are fixed, so no shard asks for more. Kept
    #: while the e2e ``fleet_shards2`` workload still reports it.
    pressure_rounds: int = 0
    #: Always 0, for the same reason as ``pressure_rounds``.
    reclaims: int = 0
    wall_s: float = 0.0


# ----------------------------------------------------------------------
# Shard host (child process)
# ----------------------------------------------------------------------

def _budget_cause(err: Optional[BaseException]
                  ) -> Optional[BaseException]:
    """The budget failure behind ``err``, following the cause chain.

    ``wait_unit`` wraps a read callback's MemoryBudgetError in
    ReadFunctionError; the deadlock verdict cares about the root.
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

    One thread runs the serial Voyager render loop over the shard's
    snapshot steps under the shard's fixed budget, sends ``done`` (or
    ``error``), then holds its arena until the coordinator's
    ``shutdown`` — or its death, the pipe's EOF.
    """

    def __init__(self, spec: ShardSpec, conn) -> None:
        self.spec = spec
        self.conn = conn
        # The arena's own random ``godiva-<hex>`` prefix: a fixed
        # per-shard name would collide with the same shard of another
        # fleet alive on this host.
        self.arena = SharedMemoryArena(segment_bytes=SEGMENT_BYTES)
        self.gbo = GBO(config=spec.config, arena=self.arena)
        self.io_stats = IoStats()
        #: Sealed frame arrays, kept alive until shutdown so the
        #: coordinator can attach their tokens at leisure.
        self._frames: List[np.ndarray] = []

    def _send(self, msg: dict) -> None:
        msg["shard"] = self.spec.shard_id
        self.conn.send(msg)

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
            self.gbo.wait_unit(unit)
            result = pipeline.finish(pipeline.begin(GodivaSnapshotData(
                self.gbo,
                manifest.snapshots[step].tsid,
                manifest.block_ids,
            )))
            triangles += result.triangles
            self._publish_frame(step, result.image, result.triangles)
            n_frames += 1
            self.gbo.delete_unit(unit)
        return n_frames, triangles

    def run(self) -> None:
        """Render, report, then hold the arena until shutdown."""
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
                ),
            })
        except BaseException as err:  # ship the verdict, then clean up
            # A budget failure inside a unit's read callback arrives
            # wrapped in ReadFunctionError: report its root.
            cause = _budget_cause(err) or err
            # A coordinator gone mid-run is the shutdown read below
            # from EOF: nobody to tell.
            with suppress(OSError):
                self._send({
                    "type": "error",
                    "kind": type(cause).__name__,
                    "message": str(cause),
                    "traceback": traceback.format_exc(),
                })
        finally:
            # Keep the arena mapped until the coordinator's "shutdown"
            # (its only message to a host) or its death (EOF).
            with suppress(EOFError, OSError):
                self.conn.recv()
            self.gbo.close()
            self._frames.clear()
            self.arena.close()


def _shard_main(conn, spec: ShardSpec) -> None:
    """Child-process entry point (must be module-level for spawn)."""
    _ShardHost(spec, conn).run()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

class ShardedGBO:
    """Coordinator for a fleet of shard-host processes.

    Places the dataset's snapshot steps on ``n_shards`` processes by
    rendezvous-hashing each step's unit name onto the shard set —
    deterministic, coordination-free, and minimally disturbed by
    shard-count changes — spawns one :func:`_shard_main` child per
    shard, and collects frames zero-copy.

    Budget: each shard host gets ``mem_mb / n_shards``, fixed for the
    run. ``protocol_timeout_s`` is how long the coordinator waits for
    any shard message before declaring the run wedged.

    ``**engine`` keywords (:class:`~repro.core.config.EngineConfig`
    fields) configure every shard host's engine alike.
    """

    def __init__(self, data_dir: str, n_shards: int = 2, *,
                 test: str = "simple",
                 mem_mb: float = 384.0,
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
        shard_config = EngineConfig(
            max(resolve_budget(mem_mb=mem_mb) // n_shards, 1),
            compute_max_threads=max(1, usable_cores() // n_shards),
            **engine,
        )
        self.data_dir = data_dir
        self.n_shards = n_shards
        self.test = test
        self.render = render
        self.protocol_timeout_s = protocol_timeout_s
        self.shard_ids = [f"shard{i}" for i in range(n_shards)]

        from repro.gen.snapshot import load_manifest

        manifest = load_manifest(data_dir)
        n_steps = len(manifest.snapshots)
        if steps is not None:
            n_steps = min(n_steps, steps)
        self.assignment = PlacementMap(self.shard_ids).steps(n_steps)

        self._specs = [
            ShardSpec(
                shard_id=shard,
                data_dir=data_dir,
                test=test,
                steps=self.assignment[shard],
                config=shard_config,
                render=render,
                disk=disk,
            )
            for shard in self.shard_ids
        ]
        self._hosts: Dict[str, Child] = {}
        #: The mappings of every frame the hosts publish.
        self._attach = AttachCache()
        self._closed = False

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
        done: Dict[str, ShardReport] = {}
        try:
            while len(done) < self.n_shards:
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
                        if msg["token"] is not None:
                            result.frames[msg["step"]] = \
                                self._attach.attach(msg["token"])
                    elif kind == "done":
                        done[msg["shard"]] = msg["report"]
                    elif kind == "error":  # raised after the shutdown
                        shard_id = msg["shard"]
                        if msg["kind"] in ("MemoryBudgetError",
                                           "GodivaDeadlockError"):
                            budget = self._specs[0].config.budget_bytes
                            raise GodivaDeadlockError(
                                f"{shard_id} cannot hold a step in its "
                                f"fixed {budget} B budget — the fleet's "
                                f"deadlock verdict ({msg['kind']}: "
                                f"{msg['message']})"
                            )
                        raise GodivaError(
                            f"{shard_id} failed: {msg['kind']}: {msg['message']}\n"
                            f"{msg['traceback']}"
                        )
        except ChildExitedError as err:
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
