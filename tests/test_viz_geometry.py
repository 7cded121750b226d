"""Boundary faces, normals, element-to-node averaging."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_geometry import reference_boundary_faces
from repro.gen.tetmesh import structured_tet_block
from repro.viz.geometry import (
    boundary_faces,
    element_to_node,
    node_tet_counts,
    triangle_normals,
)
from repro.viz.pipeline import merge_blocks
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


def _assert_matches_reference(tets):
    faces = boundary_faces(tets)
    expected = reference_boundary_faces(tets)
    assert faces.dtype == expected.dtype
    assert faces.shape == expected.shape
    assert faces.tobytes() == expected.tobytes()


class TestBoundaryFacesMatchReference:
    """The one-row-sort skin equals the ``np.unique(axis=0)`` oracle
    byte for byte: same faces, same order, same winding, same dtype."""

    @settings(max_examples=80, deadline=None)
    @given(
        dtype=st.sampled_from([np.int32, np.int64]),
        n_nodes=st.integers(4, 12),
        n_tets=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_tets(self, dtype, n_nodes, n_tets, seed):
        """Few nodes for many tets: faces repeat, some three or more
        times, and tets may repeat a node or each other."""
        rng = np.random.default_rng(seed)
        tets = rng.integers(0, n_nodes, size=(n_tets, 4)).astype(dtype)
        _assert_matches_reference(tets)

    @settings(max_examples=40, deadline=None)
    @given(
        dtype=st.sampled_from([np.int32, np.int64]),
        picks=st.lists(st.integers(0, 47), min_size=1, max_size=60),
        base=st.sampled_from([0, 2**31 - 64]),
    )
    def test_repeated_and_shared_faces(self, dtype, picks, base):
        """Tets drawn, with repeats, from a Kuhn-split cube: shared
        interior faces, duplicated tets, and node ids near the int32
        ceiling."""
        mesh = structured_tet_block(2, 2, 1)
        tets = (mesh.tets[np.array(picks) % mesh.n_tets] + base)
        _assert_matches_reference(tets.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_empty_mesh(self, dtype):
        tets = np.zeros((0, 4), dtype=dtype)
        assert boundary_faces(tets).shape == (0, 3)
        _assert_matches_reference(tets)

    def test_single_tet(self):
        _assert_matches_reference(np.array([[5, 1, 9, 3]]))

    def test_merged_multi_block_mesh(self):
        blocks = [structured_tet_block(2, 3, 1), structured_tet_block(1, 1, 1),
                  structured_tet_block(3, 1, 2)]
        _nodes, tets, _tet_block = merge_blocks(
            [mesh.nodes for mesh in blocks],
            [mesh.tets.astype(np.int32) for mesh in blocks],
        )
        _assert_matches_reference(tets)


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
