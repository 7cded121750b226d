"""A draw is a coverage and a shading: visibility as a derived product.

:meth:`Renderer.cover` computes which triangle last wrote each pixel
(and its interpolation terms) against the z-buffer as it stands;
:meth:`Renderer.shade` colors that coverage. The contracts:

* any sequence of draws through ``cover`` + ``shade`` leaves the
  per-triangle reference loop's frame and z-buffer after every draw;
* a stored coverage shaded with new colors is the full draw with those
  colors, counters included;
* the pipeline memoizes a draw's coverage under its geometry — the mesh
  tokens and the op's plane, never the field — so a new time-step over
  an unchanged mesh replays it, a deforming mesh misses it, and an op
  list that starts with an isosurface stores none;
* the pipeline colors only the triangles that win a pixel, each as the
  whole soup's colors have it (autoscaled bounds, a lone winner's light
  factor), and :meth:`Renderer.image` converts only the written pixels
  — both equal the dense computation byte for byte.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference_raster import ReferenceRenderer

from repro.core.database import GBO
from repro.core.derived import DerivedCache, content_token
from repro.core.memory_manager import MemoryManager
from repro.gen.tetmesh import structured_tet_block
from repro.io.readers import (
    make_snapshot_read_fn,
    snapshot_unit_name,
    solid_schema,
)
import repro.viz.pipeline as pipeline_module
from repro.viz import gops as gops_module
from repro.viz.apollo import ApolloSession, interactive_trace
from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.godiva_data import GodivaSnapshotData
from repro.viz.gops import GraphicsOp, GraphicsOps
from repro.viz.isosurface import TriangleSoup
from repro.viz.pipeline import (
    Pipeline,
    SnapshotData,
    draw_ops,
    geometry_prefix,
)
from repro.viz.geometry import triangle_normals
from repro.viz.render import LIGHT_DIR, Renderer


def _camera(width=100, height=70):
    return Camera(position=(0.0, -5.0, 0.0), look_at=(0.0, 0.0, 0.0),
                  up=(0, 0, 1), width=width, height=height)


def _same_buffers(renderer, oracle):
    assert np.array_equal(renderer._zbuffer, oracle._zbuffer)
    assert np.array_equal(renderer._frame, oracle._frame)
    assert renderer.triangles_culled == oracle.triangles_culled
    assert renderer.triangles_drawn == oracle.triangles_drawn


def _dense_image(renderer):
    """Every pixel of the frame converted to 8 bits: the conversion
    :meth:`Renderer.image` restricts to the written pixels."""
    return (np.clip(renderer._frame, 0.0, 1.0) * 255.0 + 0.5).astype(
        np.uint8)


def _shade(renderer, coverage, colors):
    """The draw a coverage stands for: shaded with ``colors``, and its
    triangles counted as drawn."""
    renderer.shade(coverage, colors)
    renderer.triangles_drawn += len(colors)


_SOUPS = st.lists(
    st.tuples(
        arrays(dtype="<f8",
               shape=st.tuples(st.integers(1, 25), st.just(3), st.just(3)),
               elements=st.floats(-4.0, 4.0)),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1, max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(draws=_SOUPS)
def test_cover_then_shade_matches_reference_after_every_draw(draws):
    """Random draw sequences: a renderer covering then shading each
    soup, and one replaying those coverages with another colormap,
    equal the reference loop drawn with each colormap, draw by draw."""
    first, second = Colormap("rainbow"), Colormap("heat", vmin=-2.0,
                                                     vmax=3.0)
    covering, replaying = Renderer(_camera()), Renderer(_camera())
    oracle_first = ReferenceRenderer(_camera())
    oracle_second = ReferenceRenderer(_camera())
    for vertices, seed in draws:
        values = np.random.default_rng(seed).uniform(
            -2.0, 3.0, size=(len(vertices), 3))
        soup = TriangleSoup(vertices, values)
        coverage = covering.cover(soup.vertices)
        _shade(covering, coverage, covering.colors(soup, first))
        _shade(replaying, coverage, replaying.colors(soup, second))
        oracle_first.draw(soup, first)
        oracle_second.draw(soup, second)
        _same_buffers(covering, oracle_first)
        _same_buffers(replaying, oracle_second)


def _soups():
    """Two overlapping soups, the second partly hidden by the first,
    and a third entirely behind the camera."""
    rng = np.random.default_rng(11)
    centers = rng.uniform(-1.5, 1.5, size=(300, 1, 3))
    near = centers + rng.uniform(-0.4, 0.4, size=(300, 3, 3))
    far = near + np.array([0.2, 1.0, 0.1])
    behind = near + np.array([0.0, -20.0, 0.0])
    return [TriangleSoup(v, rng.uniform(0.0, 1.0, size=(300, 3)))
            for v in (near, far, behind)]


def test_a_stored_coverage_shades_new_colors_on_a_fresh_renderer():
    soups = _soups()
    recorder = Renderer(_camera())
    coverages = []
    for soup in soups:
        coverages.append(recorder.cover(soup.vertices))
        _shade(recorder, coverages[-1],
               recorder.colors(soup, Colormap("gray")))
    assert coverages[2].pixels.size == 0       # culled whole
    assert coverages[2].culled == 300
    replayed, drawn = Renderer(_camera()), Renderer(_camera())
    for soup, coverage in zip(soups, coverages):
        recolored = TriangleSoup(soup.vertices, 1.0 - soup.values)
        _shade(replayed, coverage,
               replayed.colors(recolored, Colormap("rainbow"), vmax=0.8))
        drawn.draw(recolored, Colormap("rainbow"), vmax=0.8)
        assert np.array_equal(replayed._frame, drawn._frame)
        assert np.array_equal(replayed._zbuffer, drawn._zbuffer)
    for counter in ("triangles_drawn", "triangles_culled",
                    "fragments_evaluated"):
        assert getattr(replayed, counter) == getattr(drawn, counter) > 0


def test_coverage_is_charged_and_frozen_by_the_derived_cache():
    memory = MemoryManager(8 << 20)
    cache = DerivedCache(memory)
    memory.bind(release_records=lambda name: 0, derived=cache)
    coverage = Renderer(_camera()).cover(_soups()[0].vertices)
    stored = cache.put(("cover", "k"), coverage)
    assert stored is coverage
    assert not coverage.terms.flags.writeable
    assert cache.resident_bytes == coverage.cache_nbytes() > 0


# ----------------------------------------------------------------------
# The pipeline's cover products
# ----------------------------------------------------------------------

_MESH = structured_tet_block(4, 4, 4)


class MeshSteps(SnapshotData):
    """One block of ``_MESH``, displaced by ``shift`` (a deforming
    mesh when it changes), with fields whose ``y`` term is scaled by
    ``scale`` (a new time-step when it changes)."""

    def __init__(self, cache, shift=0.0, scale=1.0):
        self._cache = cache
        self._coords = _MESH.nodes + np.array([0.0, 0.0, shift])
        x, y, z = _MESH.nodes.T
        self._fields = {"temperature": x + scale * y * z,
                        "velocity": np.stack([x, scale * y, z], axis=1)}

    def derived_cache(self):
        return self._cache

    def snapshot_token(self, name):
        return content_token({"coords": self._coords,
                              "conn": _MESH.tets}.get(name,
                                                      self._fields.get(name)))

    def block_ids(self):
        return ["block_0000"]

    def coords(self, block_id):
        return self._coords

    def connectivity(self, block_id):
        return _MESH.tets

    def field(self, block_id, name):
        return self._fields[name]


_FRAME_OPS = GraphicsOps([
    GraphicsOp("boundary", "temperature", colormap="heat"),
    GraphicsOp("slice", "velocity", component="magnitude",
               origin=(0.5, 0.5, 0.5), normal=(0.0, 1.0, 0.0)),
    GraphicsOp("isosurface", "temperature", isovalue=0.6),
])


def _entries(cache, kind):
    return [name for name, _nbytes in cache.report()
            if name.startswith(f"derived::{kind}|")]


def _cover_entries(cache):
    return _entries(cache, "cover")


def _pipeline(ops=_FRAME_OPS, colorbar=False):
    return Pipeline(ops, camera=Camera.fit_bounds(
        (0, 0, 0), (1, 1, 1), width=96, height=72), render=True,
        colorbar=colorbar)


@pytest.fixture
def cache():
    memory = MemoryManager(64 << 20)
    cache = DerivedCache(memory)
    memory.bind(release_records=lambda name: 0, derived=cache)
    return cache


def _uncached_image(pipeline, **step):
    return pipeline.process(MeshSteps(None, **step)).image


def test_new_step_over_unchanged_mesh_replays_cover(cache):
    pipeline = _pipeline()
    first = pipeline.process(MeshSteps(cache)).image
    # Boundary and slice are one stored submission; the isosurface
    # ends the prefix.
    assert len(_cover_entries(cache)) == 1
    hits = cache.stats.derived_hits
    second = pipeline.process(MeshSteps(cache, scale=1.5)).image
    assert len(_cover_entries(cache)) == 1
    assert cache.stats.derived_hits > hits
    assert np.array_equal(first, _uncached_image(pipeline))
    assert np.array_equal(second, _uncached_image(pipeline, scale=1.5))
    assert not np.array_equal(first, second)


def test_deforming_mesh_misses_cover(cache):
    pipeline = _pipeline()
    pipeline.process(MeshSteps(cache))
    before = set(_cover_entries(cache))
    cuts = set(_entries(cache, "cut"))
    moved = pipeline.process(MeshSteps(cache, shift=0.05)).image
    after = set(_cover_entries(cache))
    assert len(after - before) == 1
    # New coords token: the slice is cut again, not carried.
    assert len(set(_entries(cache, "cut")) - cuts) == 1
    assert np.array_equal(moved, _uncached_image(pipeline, shift=0.05))


class RecordingRenderer(Renderer):
    """A renderer that remembers every instance, for its counters."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RecordingRenderer.made.append(self)


_COUNTERS = ("triangles_drawn", "triangles_culled", "fragments_evaluated")

#: Either bound of an op may be autoscaled (None): it is then the whole
#: soup's, whichever of its triangles are seen.
_VMIN = st.sampled_from([None, 0.3])
_VMAX = st.sampled_from([None, 1.2])

_FRAME_OP = st.one_of(
    st.builds(GraphicsOp, st.just("boundary"),
              st.sampled_from(["temperature", "velocity"]),
              colormap=st.sampled_from(["heat", "gray"]),
              vmin=_VMIN, vmax=_VMAX),
    st.builds(GraphicsOp, st.just("slice"),
              st.sampled_from(["temperature", "velocity"]),
              origin=st.tuples(*[st.floats(0.1, 0.9)] * 3),
              normal=st.sampled_from([(0.0, 1.0, 0.0), (1.0, 2.0, -0.5),
                                      (0.0, 0.0, 1.0)]),
              colormap=st.sampled_from(["coolwarm", "rainbow"]),
              vmin=_VMIN, vmax=_VMAX),
    st.builds(GraphicsOp, st.just("isosurface"),
              st.sampled_from(["temperature", "velocity"]),
              isovalue=st.floats(0.2, 1.2),
              colormap=st.sampled_from(["heat", "rainbow"]),
              vmin=_VMIN, vmax=_VMAX),
)


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_FRAME_OP, min_size=1, max_size=6),
       scales=st.lists(st.sampled_from([1.0, 0.5, 2.0]), min_size=1,
                       max_size=3, unique=True),
       colorbar=st.booleans())
def test_two_submissions_equal_the_per_op_draw_loop(ops, scales, colorbar):
    """Random op lists in random orders, drawn as ``finish`` draws them
    (the geometry prefix as one memoized submission, the rest as
    another, each colored for its winning triangles only) over a
    sequence of time-steps, with or without a colorbar: every frame,
    z-buffer and counter equals a per-op :meth:`Renderer.draw` loop's,
    whose colors are the whole soups'."""
    memory = MemoryManager(64 << 20)
    cache = DerivedCache(memory)
    memory.bind(release_records=lambda name: 0, derived=cache)
    gops = GraphicsOps(ops)
    pipeline = _pipeline(gops, colorbar)
    for scale in scales:
        RecordingRenderer.made.clear()
        with mock.patch.object(pipeline_module, "Renderer",
                               RecordingRenderer):
            image = pipeline.process(MeshSteps(cache, scale=scale)).image
        (drawn,) = RecordingRenderer.made
        loop = Renderer(pipeline.camera)
        plain = MeshSteps(None, scale=scale)
        for op in gops:
            loop.draw(pipeline.extract(plain, op), Colormap(op.colormap),
                      vmin=op.vmin, vmax=op.vmax)
        if colorbar:
            loop.draw_colorbar(Colormap(gops.ops[0].colormap))
        assert np.array_equal(image, _dense_image(loop))
        assert np.array_equal(drawn._zbuffer, loop._zbuffer)
        assert np.array_equal(drawn._frame, loop._frame)
        for counter in _COUNTERS:
            assert getattr(drawn, counter) == getattr(loop, counter)
    # One stored coverage at most: the prefix's, when it draws anything.
    assert len(_cover_entries(cache)) <= 1
    if geometry_prefix(gops.ops) == 0:
        assert _cover_entries(cache) == []


def test_draw_ops_asks_nothing_for_an_empty_submission():
    renderer = Renderer(_camera())
    asked = []
    draw_ops(renderer, _FRAME_OPS.ops[:2],
             [TriangleSoup.empty(), TriangleSoup.empty()],
             memo=lambda compute: asked.append(compute))
    assert asked == [] and renderer.triangles_drawn == 0


def _diffuse(normals):
    """The light factor :meth:`Renderer.colors` scales colors by."""
    return 0.25 + 0.75 * np.abs(normals @ LIGHT_DIR)


def _lone_winner_soup():
    """A two-triangle soup of which only the first is drawn (the second
    is behind the camera), chosen so that its light factor computed
    alone — from ``(1, 3) @ (3,)``, a dot product — differs in the last
    ulp from its row of the two-row matrix-vector product the per-op
    draw computes. None when this BLAS rounds the two alike for every
    candidate."""
    rng = np.random.default_rng(20241)
    behind = np.array([[[0.0, -20.0, 0.0], [1.0, -20.0, 0.0],
                        [0.0, -20.0, 1.0]]])
    for _ in range(500):
        front = rng.uniform(-1.5, 1.5, size=(1, 3, 3))
        vertices = np.concatenate([front, behind])
        normals = triangle_normals(vertices)
        if _diffuse(normals[:1])[0] != _diffuse(normals)[0]:
            return TriangleSoup(vertices, rng.uniform(0.0, 1.0, (2, 3)))
    return None


def test_a_lone_winner_is_lit_as_its_row_of_the_whole_soup():
    soup = _lone_winner_soup()
    if soup is None:
        pytest.skip("this BLAS lights a lone row as the batched product")
    op = GraphicsOp("boundary", "temperature", colormap="rainbow")
    rows, _winners = Renderer(_camera()).cover(soup.vertices).winners(2)
    assert rows.tolist() == [0]
    deferred, loop = Renderer(_camera()), Renderer(_camera())
    draw_ops(deferred, [op], [soup])
    loop.draw(soup, Colormap(op.colormap))
    _same_buffers(deferred, loop)


def test_winners_renumber_the_coverage_to_the_colored_rows():
    soups = _soups()
    coverage = Renderer(_camera()).cover([soup.vertices for soup in soups])
    rows, winners = coverage.winners(900)
    assert rows.size and np.all(np.diff(rows) > 0)
    assert np.array_equal(rows[winners.triangles], coverage.triangles)
    assert winners.pixels is coverage.pixels
    assert winners.terms is coverage.terms
    assert (winners.culled, winners.fragments) == (coverage.culled,
                                                   coverage.fragments)


class TestImageConvertsWrittenPixels:
    """:meth:`Renderer.image` converts only the pixels with a finite
    depth or under a colorbar; every frame must read as the dense
    conversion of the whole float frame."""

    def test_empty_frame(self):
        renderer = Renderer(_camera())
        assert np.array_equal(renderer.image(), _dense_image(renderer))

    def test_colorbar_frame(self):
        renderer = Renderer(_camera())
        for soup in _soups():
            renderer.draw(soup, Colormap("heat"))
        renderer.draw_colorbar(Colormap("coolwarm"))
        assert np.array_equal(renderer.image(), _dense_image(renderer))
        bare = Renderer(_camera())
        bare.draw_colorbar(Colormap("gray"), width=5, margin=2)
        assert np.array_equal(bare.image(), _dense_image(bare))

    def test_reference_renderer(self):
        """The oracle writes its buffers without :meth:`Renderer.shade`:
        the written set comes from its z-buffer all the same."""
        oracle = ReferenceRenderer(_camera())
        for soup in _soups():
            oracle.draw(soup, Colormap("rainbow"))
        assert np.isfinite(oracle._zbuffer).any()
        assert np.array_equal(oracle.image(), _dense_image(oracle))


def test_complex_op_list_stores_no_cover(small_dataset):
    """Isosurfaces come first in ``complex``: no draw of its frame has
    a geometry-only prefix, so nothing is looked up or stored."""
    gops = gops_module.test_gops("complex")
    with GBO(mem_mb=64, background_io=False) as gbo:
        solid_schema().ensure(gbo)
        gbo.add_unit(snapshot_unit_name(0), make_snapshot_read_fn(
            small_dataset, fields=gops.fields_used()))
        gbo.wait_unit(snapshot_unit_name(0))
        data = GodivaSnapshotData(gbo, small_dataset.snapshots[0].tsid,
                                  small_dataset.block_ids)
        result = Pipeline(gops, render=True).process(data)
        assert result.triangles > 0 and len(gbo.derived) > 0
        assert _cover_entries(gbo.derived) == []


def test_apollo_medium_trace_frames_match_without_cache(small_dataset):
    trace = interactive_trace(4, 10, "backforth")
    frames = []
    for derived in (True, False):
        with ApolloSession(small_dataset.directory, test="medium",
                           mem_mb=64, render=True,
                           derived_cache=derived) as session:
            frames.append([session.view(step) for step in trace])
            if derived:
                assert _cover_entries(session.gbo.derived)
    for cached, plain in zip(*frames):
        assert np.array_equal(cached, plain)
