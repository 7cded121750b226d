"""Cutting planes through tet meshes."""

import numpy as np
import pytest

from repro.gen.tetmesh import structured_tet_block
from repro.viz.slice_plane import plane_signed_distance, slice_mesh
from viz_oracles import triangle_areas


def test_signed_distance_simple_plane():
    nodes = np.array([[0, 0, 0], [0, 0, 2], [0, 0, -3]], dtype=float)
    d = plane_signed_distance(nodes, origin=(0, 0, 1),
                              normal=(0, 0, 1))
    assert np.allclose(d, [-1, 1, -4])


def test_signed_distance_normalizes_normal():
    nodes = np.array([[0, 0, 2]], dtype=float)
    d = plane_signed_distance(nodes, (0, 0, 0), (0, 0, 10))
    assert d[0] == pytest.approx(2.0)


def test_zero_normal_rejected():
    with pytest.raises(ValueError):
        plane_signed_distance(np.zeros((1, 3)), (0, 0, 0), (0, 0, 0))


def test_slice_through_cube_has_unit_area():
    mesh = structured_tet_block(4, 4, 4)
    field = np.zeros(mesh.n_nodes)
    soup = slice_mesh(mesh.nodes, mesh.tets, field,
                      origin=(0.5, 0.5, 0.5), normal=(0, 0, 1))
    assert triangle_areas(soup.vertices).sum() == pytest.approx(1.0)


def test_diagonal_slice_area():
    """A 45-degree plane through the cube center cuts a sqrt(2) x 1
    rectangle."""
    mesh = structured_tet_block(6, 6, 6)
    field = np.zeros(mesh.n_nodes)
    soup = slice_mesh(mesh.nodes, mesh.tets, field,
                      origin=(0.5, 0.5, 0.5), normal=(1, 0, 1))
    area = triangle_areas(soup.vertices).sum()
    assert area == pytest.approx(np.sqrt(2), rel=1e-6)


def test_slice_outside_domain_empty():
    mesh = structured_tet_block(2, 2, 2)
    field = np.zeros(mesh.n_nodes)
    soup = slice_mesh(mesh.nodes, mesh.tets, field,
                      origin=(0, 0, 5.0), normal=(0, 0, 1))
    assert soup.n_triangles == 0


def test_slice_carries_the_field():
    """The painted values are the field's values on the cut plane."""
    mesh = structured_tet_block(4, 4, 4)
    field = mesh.nodes[:, 0] * 10.0   # linear in x
    soup = slice_mesh(mesh.nodes, mesh.tets, field,
                      origin=(0.5, 0.5, 0.5), normal=(0, 0, 1))
    # On z = 0.5 the x coordinate of each vertex determines the value.
    flat_x = soup.vertices.reshape(-1, 3)[:, 0]
    assert np.allclose(soup.values.ravel(), flat_x * 10.0)


def test_slice_plane_lies_at_origin_offset():
    mesh = structured_tet_block(3, 3, 3)
    field = np.zeros(mesh.n_nodes)
    soup = slice_mesh(mesh.nodes, mesh.tets, field,
                      origin=(0.5, 0.5, 0.25), normal=(0, 0, 1))
    z = soup.vertices.reshape(-1, 3)[:, 2]
    assert np.allclose(z, 0.25)
