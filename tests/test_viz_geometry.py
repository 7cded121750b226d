"""Boundary faces, normals, element-to-node averaging."""

import numpy as np
import pytest

from repro.gen.tetmesh import structured_tet_block
from repro.viz.geometry import (
    boundary_faces,
    element_to_node,
    node_tet_counts,
    triangle_normals,
)
from viz_oracles import triangle_areas


class TestBoundaryFaces:
    def test_single_tet_has_four_boundary_faces(self):
        tets = np.array([[0, 1, 2, 3]])
        assert len(boundary_faces(tets)) == 4

    def test_cube_boundary_face_count(self):
        """An (n,n,n) Kuhn-split cube exposes 4 triangles per cube face
        pair... exactly: each of the 6 cube faces is split into 2n^2
        triangles -> 12 n^2 total."""
        for n in (1, 2, 3):
            mesh = structured_tet_block(n, n, n)
            faces = boundary_faces(mesh.tets)
            assert len(faces) == 12 * n * n

    def test_boundary_faces_lie_on_surface(self):
        mesh = structured_tet_block(2, 2, 2)
        faces = boundary_faces(mesh.tets)
        vertices = mesh.nodes[faces]
        # Every boundary triangle has all three corners on the cube skin.
        on_skin = np.any(
            np.isclose(vertices, 0.0) | np.isclose(vertices, 1.0),
            axis=2,
        )
        assert on_skin.all()

    def test_two_adjacent_tets_share_one_face(self):
        # Two tets glued on face (1,2,3).
        tets = np.array([[0, 1, 2, 3], [4, 1, 2, 3]])
        faces = boundary_faces(tets)
        assert len(faces) == 6
        shared = {1, 2, 3}
        for face in faces:
            assert set(face.tolist()) != shared


class TestTriangleMath:
    def test_normal_of_xy_triangle(self):
        tri = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)
        normal = triangle_normals(tri)[0]
        assert np.allclose(normal, [0, 0, 1])

    def test_normals_unit_length(self):
        rng = np.random.default_rng(3)
        tris = rng.normal(size=(50, 3, 3))
        lengths = np.linalg.norm(triangle_normals(tris), axis=1)
        assert np.allclose(lengths, 1.0)

    def test_degenerate_triangle_zero_normal_safe(self):
        tri = np.zeros((1, 3, 3))
        normal = triangle_normals(tri)[0]
        assert np.allclose(normal, 0.0)   # no NaN

    def test_areas(self):
        tri = np.array([[[0, 0, 0], [2, 0, 0], [0, 2, 0]]], dtype=float)
        assert triangle_areas(tri)[0] == pytest.approx(2.0)


class TestElementToNode:
    def test_constant_field_preserved(self):
        mesh = structured_tet_block(2, 2, 2)
        elem = np.full(mesh.n_tets, 7.5)
        node = element_to_node(mesh.n_nodes, mesh.tets, elem)
        assert np.allclose(node, 7.5)

    def test_average_of_adjacent_elements(self):
        tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        elem = np.array([1.0, 3.0])
        node = element_to_node(5, tets, elem)
        assert node[0] == 1.0            # only tet 0
        assert node[4] == 3.0            # only tet 1
        assert node[1] == pytest.approx(2.0)  # both

    def test_untouched_nodes_zero(self):
        tets = np.array([[0, 1, 2, 3]])
        node = element_to_node(6, tets, np.array([2.0]))
        assert node[4] == 0.0 and node[5] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            element_to_node(4, np.array([[0, 1, 2, 3]]),
                            np.array([1.0, 2.0]))


class TestGoldenKernels:
    """Exact expected outputs on tiny known meshes — the reference the
    derived cache's memoized results are required to reproduce."""

    TWO_TETS = np.array([[0, 1, 2, 3], [4, 1, 2, 3]])

    def test_boundary_faces_golden_single_tet(self):
        """One tet: exactly its four faces, original winding kept."""
        faces = boundary_faces(np.array([[0, 1, 2, 3]]))
        expected = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]
        assert faces.tolist() == expected

    def test_boundary_faces_golden_two_tets(self):
        """Two tets glued on (1,2,3): the shared face vanishes, the six
        outer faces remain — as an exact vertex-set enumeration."""
        faces = boundary_faces(self.TWO_TETS)
        got = {tuple(sorted(face)) for face in faces.tolist()}
        assert got == {
            (0, 1, 2), (0, 1, 3), (0, 2, 3),
            (1, 2, 4), (1, 3, 4), (2, 3, 4),
        }

    def test_node_tet_counts_golden(self):
        counts = node_tet_counts(6, self.TWO_TETS)
        assert counts.tolist() == [1.0, 2.0, 2.0, 2.0, 1.0, 0.0]
        assert counts.dtype == np.float64

    def test_element_to_node_golden(self):
        node = element_to_node(5, self.TWO_TETS, np.array([2.0, 6.0]))
        assert node.tolist() == [2.0, 4.0, 4.0, 4.0, 6.0]

    def test_element_to_node_accepts_frozen_counts(self):
        """Precomputed counts may be a shared read-only cached array;
        the kernel must not mutate it and must match the uncached
        result exactly."""
        counts = node_tet_counts(5, self.TWO_TETS)
        counts.flags.writeable = False
        elem = np.array([2.0, 6.0])
        with_counts = element_to_node(5, self.TWO_TETS, elem,
                                      counts=counts)
        without = element_to_node(5, self.TWO_TETS, elem)
        assert np.array_equal(with_counts, without)
        assert counts.tolist() == [1.0, 2.0, 2.0, 2.0, 1.0]
