"""Apollo/Houston — interactive client-server parallel visualization.

The Rocketeer suite contains "an interactive tool with parallel
processing in a client-server mode called Apollo/Houston" (section 4.1):
a front-end client drives back-end server processes that hold the data.
This module reproduces that architecture:

* each **Houston server** process owns a private GODIVA database (one
  GBO per processor, section 3.3) over a *block partition* of the mesh;
  on a view request it reads its partition's records (foreground
  ``read_unit`` — interactive mode cannot predict the user, section
  3.2), extracts the requested geometry, marks the unit finished (kept
  cached for revisits), and ships the triangle soups back;
* the **Apollo client** broadcasts the user's view requests, merges the
  returned soups per operation, and renders the composite image.

Geometry extraction is embarrassingly parallel across blocks; only
compact triangle soups cross process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.child import Child, close_all
from repro.core.config import EngineConfig, resolve_budget
from repro.errors import ChildExitedError
from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.gops import GraphicsOps, test_gops
from repro.viz.isosurface import TriangleSoup
from repro.viz.render import Renderer


class HoustonConfig:
    """Cluster-wide configuration (each server receives a copy plus its
    block partition). ``**engine`` keywords
    (:class:`~repro.core.config.EngineConfig` fields) configure every
    server's private GBO — always the single-thread *G* library, since
    interactive mode reads in the foreground."""

    def __init__(self, data_dir: str, test: str = "simple",
                 n_servers: int = 2, mem_mb_per_server: float = 64.0,
                 gops: Optional[GraphicsOps] = None, **engine: object):
        self.data_dir = data_dir
        self.test = test
        self.n_servers = n_servers
        self.gops = gops
        self.engine = EngineConfig(
            resolve_budget(mem_mb=mem_mb_per_server),
            background_io=False, **engine)

    def resolve_gops(self) -> GraphicsOps:
        """The explicit op list, or else the named test's."""
        return self.gops if self.gops is not None else test_gops(
            self.test
        )


@dataclass
class ViewReply:
    """One server's answer to a view request."""

    server_index: int
    #: op index -> (vertices, values) arrays of the partition's soup.
    soups: List[tuple]
    cache_hit: bool
    bytes_read: int


def _server_main(conn, config: HoustonConfig, server_index: int,
                 blocks: Sequence[str]) -> None:
    """Server process body: GBO + pipeline over one block partition."""
    # Imports inside the process keep spawn-start fast and explicit.
    from repro.core.database import GBO
    from repro.gen.snapshot import load_manifest
    from repro.io.disk import ENGLE_DISK, IoStats
    from repro.io.readers import (
        make_snapshot_read_fn,
        snapshot_unit_name,
        solid_schema,
    )
    from repro.viz.pipeline import Pipeline
    from repro.viz.godiva_data import GodivaSnapshotData

    manifest = load_manifest(config.data_dir)
    gops = config.resolve_gops()
    io_stats = IoStats()
    read_fn = make_snapshot_read_fn(
        manifest, fields=gops.fields_used(), stats=io_stats,
        profile=ENGLE_DISK, blocks=blocks,
    )
    pipeline = Pipeline(gops, render=False)

    with GBO(config=config.engine) as gbo:
        solid_schema().ensure(gbo)
        while True:
            message = conn.recv()
            command = message[0]
            if command == "close":
                return
            if command == "view":
                step = message[1]
                unit = snapshot_unit_name(step)
                hits_before = gbo.stats.wait_hits
                bytes_before = io_stats.snapshot()["bytes_read"]
                gbo.read_unit(unit, read_fn)
                data = GodivaSnapshotData(
                    gbo, manifest.snapshots[step].tsid, list(blocks)
                )
                soups = []
                for op in gops:
                    soup = pipeline.extract(data, op)
                    soups.append((soup.vertices, soup.values))
                gbo.finish_unit(unit)
                conn.send(ViewReply(
                    server_index=server_index,
                    soups=soups,
                    cache_hit=gbo.stats.wait_hits > hits_before,
                    bytes_read=(
                        io_stats.snapshot()["bytes_read"]
                        - bytes_before
                    ),
                ))
            elif command == "stats":
                conn.send(gbo.stats.snapshot())
            else:
                raise ValueError(f"unknown command {command!r}")


class HoustonCluster:
    """The Apollo client plus its Houston server processes."""

    def __init__(self, config: HoustonConfig,
                 camera: Optional[Camera] = None):
        from repro.gen.snapshot import load_manifest
        from repro.parallel.placement import partition_snapshots

        self.config = config
        self.manifest = load_manifest(config.data_dir)
        self.gops = config.resolve_gops()
        self.camera = camera or Camera.fit_bounds(
            (-1.7, -1.7, 0.0), (1.7, 1.7, 10.0)
        )
        # Partition *blocks* across servers (interactive-parallel mode
        # splits the data, not the time series).
        assignment = partition_snapshots(
            len(self.manifest.block_ids), config.n_servers
        )
        self.partitions = [
            [self.manifest.block_ids[i] for i in indices]
            for indices in assignment
        ]
        self._servers = [
            Child(_server_main, config, index, blocks,
                  name=f"houston-{index}")
            for index, blocks in enumerate(self.partitions)
        ]
        self.views = 0
        self.total_bytes_read = 0

    def view(self, step: int) -> np.ndarray:
        """Render one time step from all partitions; returns the image."""
        if not 0 <= step < len(self.manifest.snapshots):
            raise ValueError(f"snapshot {step} out of range")
        replies: List[ViewReply] = self._ask(("view", step))
        self.views += 1
        self.total_bytes_read += sum(r.bytes_read for r in replies)

        renderer = Renderer(self.camera)
        for op_index, op in enumerate(self.gops):
            merged = TriangleSoup.concatenate([
                TriangleSoup(*reply.soups[op_index])
                for reply in replies
            ])
            if merged.n_triangles:
                renderer.draw(
                    merged, Colormap(op.colormap),
                    vmin=op.vmin, vmax=op.vmax,
                )
        return renderer.image()

    def _ask(self, message: tuple) -> list:
        """Every server's reply to ``message``; a dead server closes the
        cluster (no stale reply is read later) and its error is raised."""
        try:
            for server in self._servers:
                server.send(message)
            return [server.recv() for server in self._servers]
        except ChildExitedError:
            self.close()
            raise

    def server_stats(self) -> List[Dict[str, float]]:
        """Each server's cache and I/O counters, in server order."""
        return self._ask(("stats",))

    def close(self) -> None:
        """Stop every server process and close its GBO."""
        close_all(self._servers, ("close",))

    def __enter__(self) -> "HoustonCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
