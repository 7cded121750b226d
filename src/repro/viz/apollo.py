"""Apollo — the interactive-mode session model.

Rocketeer's interactive tools (the serial GUI and the Apollo/Houston
client-server pair, section 4.1) cannot predict what the user will
request next, so they use GODIVA differently from Voyager (section 3.2):
explicit blocking ``read_unit`` calls instead of ``add_unit`` prefetching,
and ``finish_unit`` instead of ``delete_unit`` — "hoping that the user
revisits some data that are still in the database", with LRU eviction
reclaiming memory when it runs low.

:class:`ApolloSession` models exactly that usage; "users may frequently
switch back and forth between snapshot images from two different
time-steps to observe the changes" (section 1), so
:func:`interactive_trace` synthesizes such access patterns for the
caching experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import EngineConfig, resolve_budget
from repro.core.database import GBO
from repro.gen.snapshot import DatasetManifest, load_manifest
from repro.io.disk import ENGLE_DISK, DiskProfile, IoStats
from repro.io.readers import (
    make_snapshot_read_fn,
    snapshot_unit_name,
    solid_schema,
)
from repro.viz.camera import Camera
from repro.viz.godiva_data import GodivaSnapshotData
from repro.viz.gops import GraphicsOps, test_gops
from repro.viz.pipeline import Pipeline


@dataclass
class ViewStats:
    """Session-level cache behaviour."""

    views: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    bytes_read: int = 0
    virtual_io_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of views served from the frame cache (0 before any
        view)."""
        return self.cache_hits / self.views if self.views else 0.0


class ApolloSession:
    """An interactive exploration session over a snapshot dataset.

    Each :meth:`view` request blocks until the requested snapshot is
    resident (a cache hit when the user revisits recent data), processes
    it through the pipeline, and marks the unit *finished* — evictable
    but retained while memory allows. ``**engine`` keywords
    (:class:`~repro.core.config.EngineConfig` fields) configure the
    session's GBO.
    """

    def __init__(
        self,
        data_dir: str,
        test: str = "simple",
        mem_mb: float = 64.0,
        disk: DiskProfile = ENGLE_DISK,
        render: bool = False,
        camera: Optional[Camera] = None,
        gops: Optional[GraphicsOps] = None,
        predictive: bool = False,
        prefetch_depth: int = 2,
        **engine: object,
    ):
        self.manifest: DatasetManifest = load_manifest(data_dir)
        self.gops = gops if gops is not None else test_gops(test)
        self.io_stats = IoStats()
        self._read_fn = make_snapshot_read_fn(
            self.manifest,
            fields=self.gops.fields_used(),
            stats=self.io_stats,
            profile=disk,
        )
        # Plain interactive tools do foreground blocking reads with no
        # I/O thread; predictive mode (a Doshi-style technique layered
        # on the GODIVA interfaces, section 5) speculates with add_unit
        # hints, which needs the background thread.
        self.predictive = predictive
        self._predictor = None
        if predictive:
            from repro.viz.prefetch import AccessPredictor

            self._predictor = AccessPredictor(depth=prefetch_depth)
        self._gbo = GBO(config=EngineConfig(
            resolve_budget(mem_mb=mem_mb), background_io=predictive,
            **engine))
        solid_schema().ensure(self._gbo)
        self._pipeline = Pipeline(
            self.gops,
            camera=camera or Camera.fit_bounds(
                (-1.7, -1.7, 0.0), (1.7, 1.7, 10.0)
            ),
            render=render,
        )
        self.stats = ViewStats()

    @property
    def gbo(self) -> GBO:
        """The session's own GBO, for its counters and unit verbs."""
        return self._gbo

    def view(self, step: int) -> Optional[np.ndarray]:
        """Display one time step; returns the image when rendering."""
        if not 0 <= step < len(self.manifest.snapshots):
            raise ValueError(f"snapshot {step} out of range")
        unit = snapshot_unit_name(step)
        before = self._gbo.stats.wait_hits
        io_before = self.io_stats.snapshot()
        self._gbo.read_unit(unit, self._read_fn)
        self.stats.views += 1
        if self._gbo.stats.wait_hits > before:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
        io_after = self.io_stats.snapshot()
        self.stats.bytes_read += int(
            io_after["bytes_read"] - io_before["bytes_read"]
        )
        self.stats.virtual_io_s += (
            io_after["virtual_seconds"] - io_before["virtual_seconds"]
        )
        data = GodivaSnapshotData(
            self._gbo,
            self.manifest.snapshots[step].tsid,
            self.manifest.block_ids,
        )
        result = self._pipeline.process(data)
        # Keep the data around for revisits; evictable under pressure.
        self._gbo.finish_unit(unit)
        if self._predictor is not None:
            self._issue_prefetch_hints(step)
        return result.image

    def _issue_prefetch_hints(self, step: int) -> None:
        """Speculatively queue the predicted next steps for prefetch."""
        from repro.core.units import UnitState
        from repro.errors import UnknownUnitError

        self._predictor.record(step)
        for predicted in self._predictor.predict(
            len(self.manifest.snapshots)
        ):
            name = snapshot_unit_name(predicted)
            try:
                state = self._gbo.unit_state(name)
            except UnknownUnitError:
                state = None
            if state in (UnitState.QUEUED, UnitState.READING,
                         UnitState.RESIDENT):
                continue  # already on its way (or resident)
            self._gbo.add_unit(name, self._read_fn)

    def close(self) -> None:
        """Close the GBO: stop its I/O and free every unit."""
        self._gbo.close()

    def __enter__(self) -> "ApolloSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def interactive_trace(
    n_snapshots: int,
    n_views: int,
    pattern: str = "backforth",
    seed: int = 0,
) -> List[int]:
    """Synthesize an interactive access trace.

    Patterns:

    * ``backforth`` — the paper's motivating case: the user walks
      forward but keeps flipping back to compare with the previous
      time step (A, B, A, B, C, B, C, D, ...).
    * ``browse`` — a seeded random walk with strong locality.
    * ``scan`` — straight batch-like forward pass (worst case for
      caching, baseline).
    """
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    if pattern == "scan":
        return [i % n_snapshots for i in range(n_views)]
    if pattern == "backforth":
        trace: List[int] = []
        current = 0
        while len(trace) < n_views:
            trace.append(current)
            if current > 0:
                trace.append(current - 1)
                trace.append(current)
            current = (current + 1) % n_snapshots
        return trace[:n_views]
    if pattern == "browse":
        rng = np.random.default_rng(seed)
        trace = []
        current = 0
        for _ in range(n_views):
            trace.append(current)
            jump = rng.choice([-1, 0, 1, 1, 2, -2])
            current = int(np.clip(current + jump, 0, n_snapshots - 1))
        return trace
    raise ValueError(
        f"unknown pattern {pattern!r}; choose backforth, browse, or scan"
    )
