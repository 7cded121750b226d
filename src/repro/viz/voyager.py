"""Voyager — the batch-mode visualization tool, in its three builds.

Section 4.2 measures three versions of Voyager over the same datasets and
tasks:

* **O** — the original implementation: "reading data and processing data
  are closely coupled, and certain mesh data may need to be read in
  repeatedly if there is more than one variable to visualize";
* **G** — single-thread GODIVA: record/query interfaces active, but "a
  readUnit operation is performed inside the corresponding waitUnit
  call" — no overlap, yet redundant reads eliminated;
* **TG** — multi-thread GODIVA: all units added up front, the background
  I/O thread prefetches in processing order.

:class:`Voyager` runs any of the three over a generated dataset and
reports the paper's metrics: visible I/O time, computation time, bytes
read, and seek counts — in both real wall-clock seconds and the disk
model's deterministic *virtual* seconds.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import (
    EngineConfig,
    add_engine_arguments,
    resolve_budget,
)
from repro.core.database import GBO
from repro.gen.snapshot import DatasetManifest, load_manifest
from repro.io.disk import ENGLE_DISK, NULL_DISK, DiskProfile, IoStats
from repro.io.readers import (
    make_snapshot_read_fn,
    snapshot_unit_name,
    solid_schema,
)
from repro.io.sdf import SdfReader
from repro.viz.camera import Camera
from repro.viz.godiva_data import GodivaSnapshotData
from repro.viz.gops import GraphicsOp, GraphicsOps, test_gops
from repro.viz.image import write_ppm
from repro.viz.pipeline import Pipeline, SnapshotData

MODES = ("O", "G", "TG")


class VoyagerConfig:
    """One Voyager run's parameters.

    ``mem_mb`` and the ``**engine`` keywords
    (:class:`~repro.core.config.EngineConfig` fields) build
    :attr:`engine`, the configuration of the private GBO the G/TG modes
    open (``background_io`` is the mode's to set); the O build has no
    GBO and takes only its compute pool from it. ``compute_workers``
    > 1 runs isosurface tet ranges as pool tasks and, in the G/TG modes,
    overlaps extraction of the next snapshot with rasterization of the
    current one — frames are byte-for-byte identical either way.

    ``gops`` overrides ``test``; ``snapshot_indices`` (a parallel
    worker's partition) overrides ``steps``, the snapshot-count limit.
    ``session`` runs against a multi-tenant service session
    (:class:`repro.service.ServiceSession`) instead of a private GBO:
    its shared engine always prefetches in the background, so the mode
    is forced to "TG"; budget and engine keywords are the *service's*
    to configure and are ignored here; Voyager never closes it.
    """

    def __init__(
        self,
        data_dir: str,
        test: str = "simple",
        mode: str = "O",
        mem_mb: float = 384.0,
        out_dir: Optional[str] = None,
        camera: Optional[Camera] = None,
        disk: DiskProfile = ENGLE_DISK,
        render: bool = True,
        steps: Optional[int] = None,
        gops: Optional[GraphicsOps] = None,
        snapshot_indices: Optional[List[int]] = None,
        session: Optional[object] = None,
        **engine: object,
    ):
        if mode not in MODES:
            raise ValueError(
                f"unknown mode {mode!r}; choose from {MODES}"
            )
        self.data_dir = data_dir
        self.test = test
        self.mode = mode if session is None else "TG"
        self.out_dir = out_dir
        self.camera = camera
        self.disk = disk
        self.render = render
        self.steps = steps
        self.gops = gops
        self.snapshot_indices = snapshot_indices
        self.session = session
        self.engine = EngineConfig(resolve_budget(mem_mb=mem_mb),
                                   background_io=self.mode == "TG",
                                   **engine)

    def resolve_gops(self) -> GraphicsOps:
        """The explicit op list, or else the named test's."""
        return self.gops if self.gops is not None else test_gops(self.test)


@dataclass
class VoyagerResult:
    """Run outcome in the paper's metrics.

    ``visible_io_wall_s`` is the paper's "visible input time": blocking
    reads plus waiting for units. ``virtual_io_s`` is the disk model's
    deterministic total I/O cost for the run's traffic (volume + seeks);
    ``visible_virtual_io_s`` is the part charged to foreground reads.
    """

    mode: str
    test: str
    n_snapshots: int
    total_wall_s: float
    visible_io_wall_s: float
    bytes_read: int
    read_calls: int
    seeks: int
    settles: int
    virtual_io_s: float
    visible_virtual_io_s: float
    triangles: int
    images: List[str] = field(default_factory=list)
    gbo_stats: Optional[Dict[str, float]] = None
    per_snapshot_wall: List[float] = field(default_factory=list)

    @property
    def compute_wall_s(self) -> float:
        """Wall time not spent in visible I/O: the computation share."""
        return self.total_wall_s - self.visible_io_wall_s


class DirectSnapshotData(SnapshotData):
    """The original Voyager's data access: straight from the files.

    Models the coupling the paper describes: "reading data and processing
    data are closely coupled, and certain mesh data may need to be read in
    repeatedly if there is more than one variable to visualize". The data
    layer builds one grid per *variable*; switching the pipeline to an
    operation on a different variable rebuilds the grid, **re-reading the
    coordinate arrays** (topology/connectivity and already-read field
    arrays stay cached for the snapshot). Those coordinate re-reads seek
    "back and forth in a file", which is where the extra I/O time beyond
    the extra volume comes from (section 4.2).
    """

    def __init__(self, paths: Sequence[str],
                 stats: Optional[IoStats] = None,
                 profile: DiskProfile = NULL_DISK,
                 file_format: str = "sdf"):
        from repro.io.readers import open_scientific_file

        self._readers: List[SdfReader] = []
        self._block_file: Dict[str, SdfReader] = {}
        self._block_order: List[str] = []
        self._grid_variable: Optional[str] = None
        self._coords_cache: Dict[str, np.ndarray] = {}
        self._conn_cache: Dict[str, np.ndarray] = {}
        self._field_cache: Dict[tuple, np.ndarray] = {}
        self.read_wall_s = 0.0
        t0 = time.perf_counter()
        for path in paths:
            reader = open_scientific_file(
                path, file_format, stats=stats, profile=profile
            )
            self._readers.append(reader)
            attrs = reader.file_attributes()
            for block_id in attrs["block_ids"].split(","):
                if block_id:
                    self._block_file[block_id] = reader
                    self._block_order.append(block_id)
        self.read_wall_s += time.perf_counter() - t0

    def begin_op(self, op: GraphicsOp) -> None:
        """Rebuild the grid for a new variable: its coordinates are
        read again."""
        if op.field != self._grid_variable:
            # Grid rebuild for a new variable: coordinates are re-read.
            self._grid_variable = op.field
            self._coords_cache.clear()

    def block_ids(self) -> List[str]:
        """The snapshot's blocks, in file and then directory order."""
        return list(self._block_order)

    def _read(self, block_id: str, name: str) -> np.ndarray:
        reader = self._block_file[block_id]
        t0 = time.perf_counter()
        data = reader.read(f"{name}:{block_id}")
        self.read_wall_s += time.perf_counter() - t0
        return data

    def coords(self, block_id: str) -> np.ndarray:
        """The block's coordinates, read once per grid."""
        cached = self._coords_cache.get(block_id)
        if cached is None:
            cached = self._read(block_id, "coords")
            self._coords_cache[block_id] = cached
        return cached

    def connectivity(self, block_id: str) -> np.ndarray:
        """The block's connectivity, read once per snapshot."""
        cached = self._conn_cache.get(block_id)
        if cached is None:
            cached = self._read(block_id, "conn")
            self._conn_cache[block_id] = cached
        return cached

    def field(self, block_id: str, name: str) -> np.ndarray:
        """A block's field, read once per snapshot."""
        key = (block_id, name)
        cached = self._field_cache.get(key)
        if cached is None:
            cached = self._read(block_id, name)
            self._field_cache[key] = cached
        return cached

    def close(self) -> None:
        """Close every file of the snapshot."""
        for reader in self._readers:
            reader.close()


class Voyager:
    """Runs one configured Voyager pass over a dataset."""

    def __init__(self, config: VoyagerConfig):
        self.config = config
        self.manifest: DatasetManifest = load_manifest(config.data_dir)
        self.gops = config.resolve_gops()
        self.camera = config.camera or Camera.fit_bounds(
            (-1.7, -1.7, 0.0), (1.7, 1.7, 10.0)
        )
        self.pipeline = Pipeline(
            self.gops, camera=self.camera, render=config.render
        )
        self.io_stats = IoStats()

    def _steps(self) -> List[int]:
        n = len(self.manifest.snapshots)
        if self.config.snapshot_indices is not None:
            bad = [i for i in self.config.snapshot_indices
                   if not 0 <= i < n]
            if bad:
                raise ValueError(f"snapshot indices out of range: {bad}")
            return list(self.config.snapshot_indices)
        if self.config.steps is not None:
            n = min(n, self.config.steps)
        return list(range(n))

    def run(self) -> VoyagerResult:
        """Process every configured snapshot in the configured mode
        (O, G or TG) and return the run's timings and counters."""
        if self.config.mode == "O":
            return self._run_original()
        return self._run_godiva(multi_thread=self.config.mode == "TG")

    # ------------------------------------------------------------------
    def _maybe_write_image(self, step: int, image, images: List[str]
                           ) -> None:
        if image is None or self.config.out_dir is None:
            return
        os.makedirs(self.config.out_dir, exist_ok=True)
        path = os.path.join(
            self.config.out_dir,
            f"{self.config.test}_{self.config.mode}_{step:04d}.ppm",
        )
        write_ppm(path, image)
        images.append(path)

    def _run_original(self) -> VoyagerResult:
        images: List[str] = []
        per_snapshot: List[float] = []
        visible_io = 0.0
        triangles = 0
        # The O build has no GBO (hence no engine-owned pool), but its
        # isosurface tet ranges still fan out; per-op lookahead stays
        # off — DirectSnapshotData's per-op grid state is not thread-safe.
        pool = self.config.engine.make_compute_pool("voyager-compute")
        pool.start()
        self.pipeline.pool = pool
        t_start = time.perf_counter()
        try:
            for step in self._steps():
                t0 = time.perf_counter()
                data = DirectSnapshotData(
                    self.manifest.snapshot_paths(step),
                    stats=self.io_stats, profile=self.config.disk,
                    file_format=self.manifest.file_format,
                )
                try:
                    result = self.pipeline.process(data)
                finally:
                    data.close()
                visible_io += data.read_wall_s
                triangles += result.triangles
                self._maybe_write_image(step, result.image, images)
                per_snapshot.append(time.perf_counter() - t0)
            total = time.perf_counter() - t_start
        finally:
            self.pipeline.pool = None
            pool.close()
        io = self.io_stats.snapshot()
        return VoyagerResult(
            mode="O",
            test=self.config.test,
            n_snapshots=len(per_snapshot),
            total_wall_s=total,
            visible_io_wall_s=visible_io,
            bytes_read=int(io["bytes_read"]),
            read_calls=int(io["read_calls"]),
            seeks=int(io["seeks"]),
            settles=int(io["settles"]),
            virtual_io_s=io["virtual_seconds"],
            visible_virtual_io_s=io["virtual_seconds"],
            triangles=triangles,
            images=images,
            per_snapshot_wall=per_snapshot,
        )

    def _run_godiva(self, multi_thread: bool) -> VoyagerResult:
        if self.config.session is not None:
            # Service mode: drive the shared engine through the session;
            # the service owns budget/policy/workers and the close.
            return self._drive_godiva(self.config.session,
                                      multi_thread=True)
        with GBO(config=self.config.engine) as gbo:
            return self._drive_godiva(gbo, multi_thread=multi_thread)

    def _drive_godiva(self, gbo, multi_thread: bool) -> VoyagerResult:
        """The G/TG processing loop over a :class:`GBO` — a private one
        or a :class:`ServiceSession` (a GBO bound to one tenant, whose
        names are scoped and whose engine, stats and pools are shared)."""
        images: List[str] = []
        per_snapshot: List[float] = []
        triangles = 0
        steps = self._steps()
        fields = self.gops.fields_used()
        read_fn = make_snapshot_read_fn(
            self.manifest, fields=fields,
            stats=self.io_stats, profile=self.config.disk,
        )
        t_start = time.perf_counter()
        # Revisit-aware schedule: snapshot_indices may name a step more
        # than once (parameter sweeps, A/B comparisons). Each unit is
        # added once; non-final visits finish_unit (evictable, reloadable
        # on demand) and only the final visit deletes.
        last_visit = {step: i for i, step in enumerate(steps)}
        solid_schema().ensure(gbo)
        # Batch mode: notify GODIVA of every unit up front, in
        # processing order (section 3.2).
        for step in dict.fromkeys(steps):
            gbo.add_unit(snapshot_unit_name(step), read_fn)
        pool = self.pipeline.pool = gbo.compute
        # Frame pipelining: with a parallel pool, begin extraction of
        # snapshot t+1 (low priority) while t rasterizes. The lookahead
        # only fires when try_wait_unit pins an already-resident unit —
        # never a blocking load, so a squeezed budget degrades to the
        # serial schedule instead of deadlocking.
        pipelining = pool.parallel
        lookahead = None  # FramePlan for the next visit, unit pinned
        try:
            for visit, step in enumerate(steps):
                t0 = time.perf_counter()
                unit = snapshot_unit_name(step)
                if lookahead is not None:
                    plan = lookahead
                    lookahead = None
                else:
                    gbo.wait_unit(unit)
                    plan = self.pipeline.begin(GodivaSnapshotData(
                        gbo,
                        self.manifest.snapshots[step].tsid,
                        self.manifest.block_ids,
                    ))
                if pipelining and visit + 1 < len(steps):
                    nstep = steps[visit + 1]
                    if gbo.try_wait_unit(snapshot_unit_name(nstep)):
                        lookahead = self.pipeline.begin(
                            GodivaSnapshotData(
                                gbo,
                                self.manifest.snapshots[nstep].tsid,
                                self.manifest.block_ids,
                            ))
                result = self.pipeline.finish(plan)
                triangles += result.triangles
                self._maybe_write_image(step, result.image, images)
                if last_visit[step] == visit:
                    # Batch mode knows the data is not needed again.
                    gbo.delete_unit(unit)
                else:
                    gbo.finish_unit(unit)
                per_snapshot.append(time.perf_counter() - t0)
            total = time.perf_counter() - t_start
        finally:
            self.pipeline.pool = None
        stats = gbo.stats.snapshot()
        io = self.io_stats.snapshot()
        if multi_thread:
            # Foreground virtual I/O is only what the main thread waited
            # for; approximate by scaling total virtual time by the wall
            # visible fraction of wall I/O-thread time.
            io_wall = stats["io_thread_read_seconds"]
            visible_fraction = (
                stats["wait_seconds"] / io_wall if io_wall > 0 else 0.0
            )
            visible_virtual = io["virtual_seconds"] * min(
                1.0, visible_fraction
            )
        else:
            visible_virtual = io["virtual_seconds"]
        return VoyagerResult(
            mode=self.config.mode,
            test=self.config.test,
            n_snapshots=len(per_snapshot),
            total_wall_s=total,
            visible_io_wall_s=stats["visible_io_seconds"],
            bytes_read=int(io["bytes_read"]),
            read_calls=int(io["read_calls"]),
            seeks=int(io["seeks"]),
            settles=int(io["settles"]),
            virtual_io_s=io["virtual_seconds"],
            visible_virtual_io_s=visible_virtual,
            triangles=triangles,
            images=images,
            gbo_stats=stats,
            per_snapshot_wall=per_snapshot,
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``godiva-voyager --data DIR --test simple --mode TG ...``"""
    parser = argparse.ArgumentParser(
        description="Batch visualization over a snapshot dataset."
    )
    parser.add_argument("--data", required=True,
                        help="dataset directory (with manifest.json)")
    parser.add_argument("--test", default="simple",
                        choices=("simple", "medium", "complex"))
    parser.add_argument("--mode", default="TG", choices=MODES)
    parser.add_argument("--mem-mb", type=float, default=384.0)
    parser.add_argument("--out", default=None,
                        help="image output directory (omit to skip)")
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--no-render", action="store_true")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes (snapshots are "
                             "partitioned across them)")
    engine_flags = add_engine_arguments(parser)
    args = parser.parse_args(argv)

    config = VoyagerConfig(
        data_dir=args.data,
        test=args.test,
        mode=args.mode,
        mem_mb=args.mem_mb,
        out_dir=args.out,
        render=not args.no_render,
        steps=args.steps,
        **{name: getattr(args, name) for name in engine_flags},
    )
    if args.workers > 1:
        from repro.parallel import run_parallel_voyager

        parallel = run_parallel_voyager(config, args.workers)
        print(
            f"workers={parallel.n_workers} "
            f"snapshots={parallel.n_snapshots}\n"
            f"  makespan        : {parallel.makespan_s:8.3f} s\n"
            f"  sum visible I/O : "
            f"{parallel.total_visible_io_s:8.3f} s\n"
            f"  bytes read      : {parallel.total_bytes_read:>12,d}"
        )
        return 0
    result = Voyager(config).run()
    print(
        f"mode={result.mode} test={result.test} "
        f"snapshots={result.n_snapshots}\n"
        f"  total wall      : {result.total_wall_s:8.3f} s\n"
        f"  visible I/O wall: {result.visible_io_wall_s:8.3f} s\n"
        f"  computation wall: {result.compute_wall_s:8.3f} s\n"
        f"  bytes read      : {result.bytes_read:>12,d}\n"
        f"  read calls/seeks: {result.read_calls}/{result.seeks}\n"
        f"  virtual I/O time: {result.virtual_io_s:8.3f} s\n"
        f"  triangles       : {result.triangles:,d}\n"
        f"  images          : {len(result.images)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
