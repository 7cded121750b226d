"""The data-processing pipeline: execute a graphics-operations list.

The pipeline is deliberately ignorant of where data comes from: it pulls
mesh and field arrays through the :class:`SnapshotData` interface, whose
implementations are the crux of the evaluation — the *original* Voyager
couples reading with processing (re-reading mesh data for every variable),
while the GODIVA builds query buffers that were read once (section 4.2).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.derived import canonical_key
from repro.gen.quantities import ELEMENT_FIELDS, NODE_FIELDS
from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.geometry import (
    boundary_faces,
    element_to_node,
    node_tet_counts,
)
from repro.viz.gops import GraphicsOp, GraphicsOps
from repro.viz.isosurface import (
    TriangleSoup,
    marching_tets_pieces,
    merge_tet_pieces,
)
from repro.viz.render import Renderer
from repro.viz.slice_plane import plane_cut

#: Minimum tets per extraction task when one op's marching-tets pass
#: fans out over tet ranges. Meshes smaller than two grains run whole —
#: the fan-out's share/dispatch/merge overhead would exceed the kernel
#: time it parallelizes.
SUBBLOCK_MIN_TETS = 32768


class SnapshotData:
    """Access interface for one snapshot's data, per block.

    :meth:`Pipeline.extract` reads an op's source arrays in a fixed
    order: ``begin_op(op)``, then for each block of ``block_ids()`` in
    turn ``coords``, ``connectivity``, ``field(block, op.field)`` —
    minus whatever a derived cache already holds merged (both mesh
    arrays together, or the field). Backends whose cost depends on the
    access pattern (the original Voyager's file reads) may rely on it.
    """

    def begin_op(self, op: "GraphicsOp") -> None:
        """Pipeline notification that a new operation starts.

        The original Voyager's data layer rebuilds its grid when the
        operation switches to a new variable — re-reading coordinate data
        — so it needs to know about op boundaries; GODIVA-backed data
        ignores this.
        """

    def derived_cache(self) -> Optional[object]:
        """The :class:`~repro.core.derived.DerivedCache` to memoize
        derived arrays in, or None (the default) to disable memoization.
        """
        return None

    def snapshot_token(self, name: str) -> Optional[str]:
        """Content token of one source array (``'coords'``/``'conn'``/a
        field name) across the whole snapshot, or None (the default)
        when unknown — a None token disables caching for the lookups
        that would need it. Tokens must change whenever the bits of any
        block's array change; content-hash tokens (see
        :func:`repro.core.derived.content_token`) additionally let
        identical snapshots — e.g. a mesh constant across time-steps —
        share cache entries. Extraction asks once per op, so backends
        may memoize it."""
        return None

    def parallel_extract_safe(self) -> bool:
        """Whether per-op extraction may run on compute-pool
        threads. False (the default) keeps extraction on the calling
        thread — correct for backends with per-op mutable state such as
        the original Voyager's re-reading grid. GODIVA-backed data
        returns True: its reads go through the engine lock and its
        derived cache tolerates racing computes.
        """
        return False

    def block_ids(self) -> List[str]:
        raise NotImplementedError

    def coords(self, block_id: str) -> np.ndarray:
        """Node coordinates, shape (n_nodes, 3)."""
        raise NotImplementedError

    def connectivity(self, block_id: str) -> np.ndarray:
        """Tet connectivity, shape (n_tets, 4)."""
        raise NotImplementedError

    def field(self, block_id: str, name: str) -> np.ndarray:
        """A quantity: (n,) scalars or (n, 3) vectors, node- or
        element-based per NODE_FIELDS/ELEMENT_FIELDS."""
        raise NotImplementedError


def field_components(name: str) -> int:
    """Number of components of a known quantity (1 or 3)."""
    if name in NODE_FIELDS:
        return NODE_FIELDS[name]
    if name in ELEMENT_FIELDS:
        return ELEMENT_FIELDS[name]
    raise KeyError(f"unknown field {name!r}")


def is_element_field(name: str) -> bool:
    """Whether a known quantity lives on tets (True) or nodes (False);
    KeyError for an unknown name."""
    if name in ELEMENT_FIELDS:
        return True
    if name in NODE_FIELDS:
        return False
    raise KeyError(f"unknown field {name!r}")


def scalarize(values: np.ndarray, component: Optional[str]) -> np.ndarray:
    """Reduce a (n,) or (n, 3) field to per-entity scalars."""
    values = np.asarray(values)
    if values.ndim == 1:
        return values
    if component in (None, "magnitude"):
        # einsum accumulates the squared norm in one pass — no (n, 3)
        # abs/square temporary the way linalg.norm spells it.
        return np.sqrt(
            np.einsum("ij,ij->i", values, values, dtype=np.float64)
        )
    index = {"x": 0, "y": 1, "z": 2}[component]
    return values[:, index]


def merge_blocks(coords: Sequence[np.ndarray],
                 conn: Sequence[np.ndarray]) -> tuple:
    """Per-block meshes -> one mesh ``(nodes, tets, tet_block)``.

    Node arrays are concatenated, each block's connectivity is offset
    into its slice of the merged node range, and ``tet_block`` names
    each tet's block (non-decreasing). Blocks keep disjoint node
    ranges, so every per-node scatter and every face-uniqueness test
    sees exactly the rows it saw block by block.
    """
    node_counts = [len(block) for block in coords]
    tet_counts = [len(block) for block in conn]
    offsets = np.cumsum([0] + node_counts[:-1])
    tets = np.concatenate(conn) + np.repeat(offsets, tet_counts)[:, None]
    tet_block = np.repeat(np.arange(len(conn)), tet_counts)
    return np.concatenate(coords), tets, tet_block


def geometry_prefix(ops: Sequence[GraphicsOp]) -> int:
    """How many leading ops are ``boundary`` or ``slice``: draws whose
    triangles depend on the mesh and the op's plane, not on a field."""
    for index, op in enumerate(ops):
        if op.kind not in ("boundary", "slice"):
            return index
    return len(ops)


def draw_ops(renderer: Renderer, ops: Sequence[GraphicsOp],
             soups: Sequence[TriangleSoup],
             memo: Optional[Callable] = None) -> None:
    """Draw consecutive ops' soups as one submission.

    The soups' vertices are covered as one submission, in op order;
    then each op's lit colors (:meth:`~repro.viz.render.Renderer.
    colors`, with its colormap and bounds) are computed for its
    triangles that won a pixel (:meth:`~repro.viz.render.Coverage.
    winners`) only, into their rows of one buffer laid out
    channel-major so :meth:`~repro.viz.render.Renderer.shade` reads it
    in place, and the coverage is shaded once. That is the per-op
    :meth:`~repro.viz.render.Renderer.draw` loop byte for byte,
    counters included: the compositor reproduces the
    one-triangle-at-a-time reference for any run partition, so one
    submission in op order is the draws one after another, and a
    triangle's colors are elementwise in its own row, so a pixel's
    color is its writer's whether or not the losers were colored.
    ``memo(compute)``, when given, returns the submission's coverage —
    memoized or ``compute()``. An empty submission draws nothing and
    asks nothing.
    """
    drawn = [(op, soup) for op, soup in zip(ops, soups)
             if soup.n_triangles]
    if not drawn:
        return
    parts = [soup.vertices for _op, soup in drawn]
    if memo is None:
        coverage = renderer.cover(parts)
    else:
        coverage = memo(lambda: renderer.cover(parts))
    total = sum(len(part) for part in parts)
    rows, coverage = coverage.winners(total)
    colors = np.empty((3, 3, len(rows))).transpose(2, 1, 0)
    offset = 0
    for op, soup in drawn:
        end = offset + soup.n_triangles
        lo, hi = np.searchsorted(rows, (offset, end))
        if lo < hi:
            renderer.colors(soup, Colormap(op.colormap), op.vmin, op.vmax,
                            out=colors[lo:hi], rows=rows[lo:hi] - offset)
        offset = end
    renderer.shade(coverage, colors)
    renderer.triangles_drawn += total


@dataclass
class PipelineResult:
    """Per-snapshot processing outcome."""

    image: Optional[np.ndarray]
    triangles: int
    #: op index -> triangle count (geometry workload accounting).
    op_triangles: List[int] = field(default_factory=list)


@dataclass
class FramePlan:
    """In-flight state of one snapshot's frame, between
    :meth:`Pipeline.begin` and :meth:`Pipeline.finish`.

    Either ``cached`` holds the memoized frame (nothing left to do), or
    ``tasks`` holds the in-flight extraction futures (one per op, in op
    order), or both are None and :meth:`Pipeline.finish` extracts
    synchronously.
    """

    data: SnapshotData
    frame_key: Optional[tuple]
    cache: Optional[object]
    #: Memoized ``(image, op_triangles)`` when the frame cache hit.
    cached: Optional[tuple] = None
    #: One ComputeTask per op (None = extract synchronously).
    tasks: Optional[List[object]] = None


class Pipeline:
    """Executes graphics operations over snapshot data and renders."""

    def __init__(self, gops: GraphicsOps, camera: Optional[Camera] = None,
                 render: bool = True, colorbar: bool = False,
                 pool: Optional[object] = None):
        self.gops = gops
        self.camera = camera or Camera()
        self.render = render
        #: Paint the first op's colormap as a legend strip on each frame.
        self.colorbar = colorbar
        #: Optional :class:`~repro.core.compute.ComputePool`. When it is
        #: parallel, isosurface tet ranges fan out to it, and — for data
        #: backends declaring :meth:`SnapshotData.parallel_extract_safe`
        #: — per-op extraction does too, which is what lets the driver
        #: overlap extraction of t+1 with rasterization of t.
        self.pool = pool
        #: ``(parts, canonical)``: the frame key's op list, camera
        #: signature and flags, and their canonical string form, reused
        #: by :meth:`_frame_key` while the parts compare equal.
        self._key_memo: Optional[tuple] = None

    def process(self, data: SnapshotData) -> PipelineResult:
        """Run every op over the snapshot; returns the composited image.

        The op-major / block-minor read order matters: it is what makes
        the original Voyager's per-op mesh reads *re-reads* (the GODIVA
        builds are insensitive to the order since buffers are resident).

        When the data backend exposes a derived cache and content tokens
        for every source array, the whole composited frame is memoized:
        revisiting a time-step whose bits have not changed re-renders
        nothing (the memo is keyed by op list, camera, and the tokens,
        so any change to inputs or view recomputes).

        Equivalent to ``finish(begin(data))``; drivers that pipeline
        frames across snapshots call the two halves separately.
        """
        return self.finish(self.begin(data))

    def begin(self, data: SnapshotData) -> FramePlan:
        """Start a frame: probe the frame cache and, on a miss with a
        parallel pool and a thread-safe backend, submit one extraction
        task per op to the pool (below the tet-range tasks' priority, so
        lookahead work never starves the current frame's extraction).
        Frame-cache hits skip the pool entirely.
        """
        frame_key = self._frame_key(data)
        cache = data.derived_cache() if frame_key is not None else None
        if cache is not None:
            cached = cache.get(frame_key)
            if cached is not None:
                return FramePlan(data, frame_key, cache, cached=cached)
        pool = self.pool
        tasks: Optional[List[object]] = None
        # Lookahead tasks capture the data backend (a bound method over
        # engine state) — fine on threads, impossible on a distributed
        # (process) pool, whose parallelism comes from the tet-range
        # split inside extraction instead.
        if (pool is not None and pool.parallel
                and not pool.distributed
                and data.parallel_extract_safe()):
            tasks = [pool.submit(self.extract, data, op, priority=-1.0)
                     for op in self.gops]
        return FramePlan(data, frame_key, cache, tasks=tasks)

    def finish(self, plan: FramePlan) -> PipelineResult:
        """Complete a frame begun with :meth:`begin`: collect (or run)
        the extractions, rasterize, and memoize the composite.

        The frame is drawn as at most two submissions (:func:`draw_ops`
        over :func:`geometry_prefix`): the leading ``boundary`` and
        ``slice`` ops, whose triangles are a function of the mesh and
        the ops' planes and not of their fields, then everything else.
        With a frame cache, the first submission's
        :meth:`~repro.viz.render.Renderer.cover` is a derived product,
        memoized under ``("cover", camera, geometry of the prefix)``,
        so a frame over an unchanged mesh only shades the prefix's new
        colors. The second is covered fresh and not stored.
        """
        if plan.cached is not None:
            image, op_triangles = plan.cached
            return PipelineResult(
                image=image,
                triangles=sum(op_triangles),
                op_triangles=list(op_triangles),
            )
        ops = self.gops.ops
        if plan.tasks is not None:
            soups = [task.wait() for task in plan.tasks]
        else:
            soups = [self.extract(plan.data, op) for op in ops]
        op_triangles = [soup.n_triangles for soup in soups]
        image = None
        if self.render:
            renderer = Renderer(self.camera)
            prefix = geometry_prefix(ops)
            memo = None
            if plan.cache is not None:
                mesh_tokens = (plan.data.snapshot_token("coords"),
                               plan.data.snapshot_token("conn"))
                key = ("cover", self._camera_sig(), tuple(
                    (op.kind, op.origin, op.normal, *mesh_tokens)
                    for op in ops[:prefix]))
                memo = functools.partial(plan.cache.get_or_compute, key)
            draw_ops(renderer, ops[:prefix], soups[:prefix], memo)
            draw_ops(renderer, ops[prefix:], soups[prefix:])
            if self.colorbar:
                renderer.draw_colorbar(Colormap(ops[0].colormap))
            image = renderer.image()
        if plan.cache is not None:
            plan.cache.put(plan.frame_key, (image, tuple(op_triangles)))
        return PipelineResult(
            image=image, triangles=sum(op_triangles),
            op_triangles=op_triangles,
        )

    def _camera_sig(self) -> tuple:
        """Everything about the camera a frame's pixels depend on."""
        cam = self.camera
        return (tuple(cam.position), tuple(cam.look_at), tuple(cam.up),
                cam.fov_deg, cam.width, cam.height, cam.near)

    def _frame_key(self, data: SnapshotData) -> Optional[tuple]:
        """Cache key covering everything the composited frame depends
        on: the full op list (including color mapping), the camera, the
        render/colorbar flags, and the snapshot token of every source
        array. None (= no frame caching) when the backend has no cache
        or any token is unknown. Only the tokens are new from one frame
        to the next, so the parts between ``"frame"`` and the tokens are
        held in their canonical string form (the one the cache names the
        key by), made again only when the op list, the camera or a flag
        compares unequal to the last frame's: a frame-cache hit pays for
        its tokens and one lookup, not for the op list's JSON."""
        if data.derived_cache() is None:
            return None
        tokens = [
            data.snapshot_token(name)
            for name in ("coords", "conn", *sorted(self.gops.fields_used()))
        ]
        if None in tokens:
            return None
        parts = (tuple(self.gops.ops), self._camera_sig(), self.render,
                 self.colorbar)
        memo = self._key_memo
        if memo is None or memo[0] != parts:
            ops_sig = json.dumps([op.to_json() for op in parts[0]],
                                 sort_keys=True)
            memo = (parts, canonical_key((ops_sig, *parts[1:])))
            self._key_memo = memo
        return ("frame", memo[1], tuple(tokens))

    def extract(self, data: SnapshotData,
                op: GraphicsOp) -> TriangleSoup:
        """Run one op over the whole snapshot; returns its soup (without
        rendering). Public so distributed front-ends can merge soups
        across processes before drawing.

        The snapshot's blocks are merged into one mesh and the op runs
        as one kernel pass over it; the soup is byte-identical to
        extracting block by block and concatenating in ``block_ids()``
        order. With a derived cache and content tokens for every source
        array the soup is memoized under the op's geometry parameters
        plus the snapshot tokens, and so are the stages beneath it —
        the merged mesh and field, magnitude scalarization, node
        incidence counts, the element-to-node scatter, the boundary
        skin — which is where ops *within* one frame share work (the
        complex test's five stacked isosurfaces scatter the same stress
        field once) and where a mesh constant across time-steps is
        merged once. A slice's soup is not memoized: its plane's
        :class:`~repro.viz.isosurface.TetCut` is, under
        ``("cut", origin, normal, mesh tokens)``, and each step only
        carries its field onto it.

        Source arrays are read through the accessors in a fixed order —
        for each block in turn ``coords``, ``connectivity``, ``field``
        (see :meth:`_gather`) — the O build's read/seek pattern.
        """
        data.begin_op(op)
        cache = data.derived_cache()
        if cache is not None:
            tokens = tuple(data.snapshot_token(name)
                           for name in ("coords", "conn", op.field))
            if None not in tokens:
                if op.kind == "slice":
                    return self._soup(data, op, cache, tokens)
                key = ("soup", op.kind, op.field, op.component,
                       op.isovalue, op.origin, op.normal, *tokens)
                return cache.get_or_compute(
                    key, lambda: self._soup(data, op, cache, tokens)
                )
        return self._soup(data, op, None, (None, None, None))

    def _soup(self, data: SnapshotData, op: GraphicsOp,
              cache: Optional[object], tokens: tuple) -> TriangleSoup:
        """The extraction stages for one op (memoized individually
        when a cache and the snapshot tokens are supplied)."""
        coords_tok, conn_tok, field_tok = tokens

        def memo(key, compute):
            if cache is None:
                return compute()
            return cache.get_or_compute(key, compute)

        mesh, raw = self._gather(data, op.field, cache, tokens)
        if mesh is None:
            return TriangleSoup.empty()
        nodes, tets, tet_block = mesh
        n_nodes = len(nodes)

        def tets_tok():
            # Merged connectivity depends on the per-block node counts
            # as well as on the per-block connectivity, so the stages
            # that are functions of it alone are keyed by its own
            # content token: a deforming mesh (new coords every step)
            # still shares them.
            if cache is None:
                return None
            return cache.token(("merged-tets", coords_tok, conn_tok),
                               lambda: (tets,))

        def scalars():
            if raw.ndim == 2 and op.component in (None, "magnitude"):
                return memo(("mag", op.field, field_tok),
                            lambda: scalarize(raw, op.component))
            return scalarize(raw, op.component)

        if is_element_field(op.field):
            node_scalars = memo(
                ("e2n", tets_tok(), op.field, field_tok, op.component,
                 n_nodes),
                lambda: element_to_node(
                    n_nodes, tets, scalars(),
                    counts=memo(("adj", tets_tok(), n_nodes),
                                lambda: node_tet_counts(n_nodes, tets)),
                ),
            )
        else:
            node_scalars = scalars()

        if op.kind == "boundary":
            faces = memo(("bfaces", tets_tok()),
                         lambda: boundary_faces(tets))
            if not len(faces):
                return TriangleSoup.empty()
            return TriangleSoup(nodes[faces], node_scalars[faces])
        if op.kind == "isosurface":
            return self._marching(nodes, tets, node_scalars,
                                  op.isovalue, tet_block)
        if op.kind == "slice":
            cut = memo(("cut", op.origin, op.normal, coords_tok, conn_tok),
                       lambda: plane_cut(nodes, tets, op.origin, op.normal,
                                         tet_block=tet_block))
            return cut.carry(node_scalars)
        raise AssertionError(f"unreachable op kind {op.kind!r}")

    @staticmethod
    def _gather(data: SnapshotData, field_name: str,
                cache: Optional[object], tokens: tuple) -> tuple:
        """The snapshot's merged mesh and merged raw field.

        Whatever the cache does not already hold is read through the
        accessors in one block-major pass — per block ``coords``,
        ``connectivity``, then the field, exactly the per-block order
        the O build's I/O pattern was measured with — and merged
        (:func:`merge_blocks`, ``np.concatenate``). Returns
        ``(None, None)`` for a snapshot with no blocks.
        """
        coords_tok, conn_tok, field_tok = tokens
        mesh_key = ("mesh", coords_tok, conn_tok)
        field_key = ("field", field_name, field_tok)
        mesh = raw = None
        if cache is not None:
            mesh = cache.get(mesh_key)
            raw = cache.get(field_key)
        readers = []
        if mesh is None:
            readers += [data.coords, data.connectivity]
        if raw is None:
            readers.append(lambda block_id: data.field(block_id,
                                                       field_name))
        rows = [[read(block_id) for read in readers]
                for block_id in data.block_ids()]
        if not rows:
            return None, None
        columns = list(zip(*rows))
        if mesh is None:
            mesh = merge_blocks(columns[0], columns[1])
            if cache is not None:
                mesh = cache.put(mesh_key, mesh)
        if raw is None:
            raw = np.concatenate(columns[-1])
            if cache is not None:
                raw = cache.put(field_key, raw)
        return mesh, raw

    def _marching(self, nodes: np.ndarray, tets: np.ndarray,
                  node_scalars: np.ndarray, isovalue: float,
                  tet_block: np.ndarray) -> TriangleSoup:
        """Isosurface extraction, split into tet ranges.

        The (merged) tet array is cut into contiguous ranges, each
        range runs :func:`~repro.viz.isosurface.marching_tets_pieces`,
        the pieces merge deterministically into the mesh's cut, and
        the level values are carried onto it — the soup is
        byte-identical however many ranges there are and wherever they
        ran. A serial build or a mesh under two grains is one range,
        run here; a large mesh on a parallel pool fans out as tasks at
        priority -0.5, ahead of per-op lookahead (-1.0), with the mesh
        arrays shared once (``pool.share``:
        identity on threads, one token export or staging copy on the
        process backend).
        """
        pool = self.pool
        n = len(tets)
        n_chunks = 1
        if pool is not None and pool.parallel:
            n_chunks = max(1, min(2 * pool.workers,
                                  n // SUBBLOCK_MIN_TETS))
        if n_chunks == 1:
            return merge_tet_pieces([marching_tets_pieces(
                nodes, tets, node_scalars, isovalue, 0, n,
                tet_block=tet_block,
            )], n_nodes=len(nodes)).carry(node_scalars)
        bounds = np.linspace(0, n, n_chunks + 1).astype(np.int64)
        shared = [pool.share(a) for a in (nodes, tets, node_scalars)]
        shared_block = pool.share(tet_block)
        tasks: List[object] = []
        try:
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                tasks.append(pool.submit(
                    marching_tets_pieces, *shared, isovalue,
                    int(lo), int(hi), tet_block=shared_block,
                    priority=-0.5,
                ))
            cut = merge_tet_pieces([task.wait() for task in tasks],
                                   n_nodes=len(nodes))
            return cut.carry(node_scalars)
        finally:
            for task in tasks:
                task.release()
