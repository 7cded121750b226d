"""Property-based tests for the visualization kernels (hypothesis)."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference_raster import ReferenceRenderer

import repro.viz.render as render_module
from repro.gen.tetmesh import structured_tet_block
from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.geometry import element_to_node
from repro.viz.isosurface import TriangleSoup, marching_tets
from repro.viz.render import Renderer
from repro.viz.slice_plane import slice_mesh

_MESH = structured_tet_block(3, 3, 3)

node_values = arrays(
    dtype="<f8",
    shape=_MESH.n_nodes,
    elements=st.floats(-10.0, 10.0),
)


@settings(max_examples=40, deadline=None)
@given(values=node_values, iso=st.floats(-9.0, 9.0))
def test_marching_tets_vertices_inside_domain(values, iso):
    soup = marching_tets(_MESH.nodes, _MESH.tets, values, iso)
    if soup.n_triangles:
        flat = soup.vertices.reshape(-1, 3)
        assert flat.min() >= -1e-9
        assert flat.max() <= 1 + 1e-9


@settings(max_examples=40, deadline=None)
@given(values=node_values, iso=st.floats(-9.0, 9.0))
def test_marching_tets_triangle_count_bounded(values, iso):
    """Each tet emits at most 2 triangles."""
    soup = marching_tets(_MESH.nodes, _MESH.tets, values, iso)
    assert soup.n_triangles <= 2 * _MESH.n_tets


@settings(max_examples=40, deadline=None)
@given(values=node_values, iso=st.floats(-9.0, 9.0))
def test_marching_tets_values_equal_isovalue(values, iso):
    soup = marching_tets(_MESH.nodes, _MESH.tets, values, iso)
    if soup.n_triangles:
        assert np.allclose(soup.values, iso, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    values=node_values,
    offset=st.floats(0.05, 0.95),
    axis=st.integers(0, 2),
)
def test_slice_plane_vertices_on_plane(values, offset, axis):
    origin = [0.5, 0.5, 0.5]
    origin[axis] = offset
    normal = [0.0, 0.0, 0.0]
    normal[axis] = 1.0
    soup = slice_mesh(_MESH.nodes, _MESH.tets, values, origin, normal)
    coords = soup.vertices.reshape(-1, 3)[:, axis]
    assert np.allclose(coords, offset, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    elem_values=arrays(
        dtype="<f8", shape=_MESH.n_tets,
        elements=st.floats(-5.0, 5.0),
    )
)
def test_element_to_node_within_bounds(elem_values):
    """Averaging never exceeds the element extrema."""
    node = element_to_node(_MESH.n_nodes, _MESH.tets, elem_values)
    assert node.min() >= elem_values.min() - 1e-12
    assert node.max() <= elem_values.max() + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    values=arrays(dtype="<f8", shape=16,
                  elements=st.floats(-100.0, 100.0)),
)
def test_colormap_output_in_unit_cube(values):
    for name in Colormap.names():
        rgb = Colormap(name).map(values)
        assert rgb.min() >= 0.0
        assert rgb.max() <= 1.0
        assert rgb.shape == (16, 3)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-100.0, 100.0),
    b=st.floats(-100.0, 100.0),
)
def test_gray_colormap_monotone(a, b):
    """Larger values never map darker under 'gray'."""
    low, high = min(a, b), max(a, b)
    rgb = Colormap("gray", vmin=-100.0, vmax=100.0).map(
        np.array([low, high])
    )
    assert (rgb[1] >= rgb[0] - 1e-12).all()


@settings(max_examples=40, deadline=None)
@given(
    vertices=arrays(dtype="<f8", shape=st.tuples(st.integers(1, 40),
                                                 st.just(3), st.just(3)),
                    elements=st.floats(-4.0, 4.0)),
    order_seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 2 * render_module.FRAGMENT_BATCH),
)
def test_rasterizer_matches_reference_loop(vertices, order_seed, batch):
    """Any soup, in any submission order, cut into fragment batches of
    any size, composites to exactly the per-triangle reference loop's
    frame (ragged multi-tile frame)."""
    rng = np.random.default_rng(order_seed)
    order = rng.permutation(len(vertices))
    soup = TriangleSoup(vertices[order],
                        rng.uniform(0.0, 1.0, size=(len(vertices), 3)))
    frames = []
    for cls in (ReferenceRenderer, Renderer):
        renderer = cls(Camera(position=(0.0, -5.0, 0.0),
                              look_at=(0.0, 0.0, 0.0), up=(0, 0, 1),
                              width=100, height=70))
        with mock.patch.object(render_module, "FRAGMENT_BATCH", batch):
            renderer.draw(soup, Colormap("rainbow"))
        frames.append(renderer)
    oracle, inline = frames
    assert np.array_equal(inline._zbuffer, oracle._zbuffer)
    assert np.array_equal(inline._frame, oracle._frame)
    assert inline.triangles_culled == oracle.triangles_culled
