"""Marching tetrahedra: case coverage, interpolation, surface sanity."""

import numpy as np
import pytest

from repro.gen.tetmesh import structured_tet_block
from repro.viz.isosurface import (
    TriangleSoup,
    marching_tets,
    marching_tets_pieces,
    merge_tet_pieces,
)
from viz_oracles import triangle_areas

# One reference tet.
TET_NODES = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
])
TET = np.array([[0, 1, 2, 3]])


class TestSingleTetCases:
    def test_all_below_and_all_above_empty(self):
        for values in ([0, 0, 0, 0], [2, 2, 2, 2]):
            soup = marching_tets(
                TET_NODES, TET, np.array(values, dtype=float), 1.0
            )
            assert soup.n_triangles == 0

    @pytest.mark.parametrize("inside_mask", range(1, 15))
    def test_every_mixed_case_produces_triangles(self, inside_mask):
        """All 14 mixed sign cases yield 1 (single vertex separated) or
        2 (2-2 split) triangles."""
        values = np.array([
            2.0 if inside_mask & (1 << v) else 0.0 for v in range(4)
        ])
        soup = marching_tets(TET_NODES, TET, values, 1.0)
        n_inside = bin(inside_mask).count("1")
        expected = 2 if n_inside == 2 else 1
        assert soup.n_triangles == expected

    @pytest.mark.parametrize("inside_mask", range(1, 15))
    def test_triangle_vertices_on_isolevel(self, inside_mask):
        """Every output vertex interpolates to exactly the isovalue."""
        values = np.array([
            3.0 if inside_mask & (1 << v) else -1.0 for v in range(4)
        ])
        iso = 1.0
        soup = marching_tets(TET_NODES, TET, values, iso)
        # Value varies linearly inside the tet: reconstruct from
        # barycentric coordinates of each output vertex.
        for triangle in soup.vertices:
            for point in triangle:
                bary = np.linalg.lstsq(
                    np.vstack([TET_NODES.T, np.ones(4)]),
                    np.append(point, 1.0),
                    rcond=None,
                )[0]
                assert np.dot(bary, values) == pytest.approx(iso)

    def test_values_equal_isovalue_for_plain_isosurface(self):
        values = np.array([0.0, 2.0, 0.0, 0.0])
        soup = marching_tets(TET_NODES, TET, values, 1.0)
        assert np.allclose(soup.values, 1.0)

    def test_carry_values_interpolated(self):
        level = np.array([0.0, 2.0, 0.0, 0.0])
        carry = np.array([10.0, 30.0, 10.0, 10.0])
        soup = marching_tets(
            TET_NODES, TET, level, 1.0, carry_values=carry
        )
        # Midpoint cuts (t = 0.5) carry the midpoint carry value.
        assert np.allclose(soup.values, 20.0)

    def test_complementary_masks_same_geometry(self):
        a = marching_tets(
            TET_NODES, TET, np.array([2.0, 0, 0, 0]), 1.0
        )
        b = marching_tets(
            TET_NODES, TET, np.array([0.0, 2, 2, 2]), 1.0
        )
        assert a.n_triangles == b.n_triangles == 1
        va = {tuple(np.round(p, 12)) for p in a.vertices.reshape(-1, 3)}
        vb = {tuple(np.round(p, 12)) for p in b.vertices.reshape(-1, 3)}
        assert va == vb


class TestValidation:
    def test_level_length_mismatch(self):
        with pytest.raises(ValueError):
            marching_tets(TET_NODES, TET, np.zeros(3), 0.5)

    def test_carry_length_mismatch(self):
        with pytest.raises(ValueError):
            marching_tets(TET_NODES, TET, np.zeros(4), 0.5,
                          carry_values=np.zeros(3))

    def test_pieces_entry_point_validates_too(self):
        # One kernel, one check: the sub-range entry point rejects the
        # same level mismatch as the whole-block one, and the merged
        # cut the same carry mismatch.
        with pytest.raises(ValueError, match="level values"):
            marching_tets_pieces(TET_NODES, TET, np.zeros(3), 0.5, 0, 1)
        cut = merge_tet_pieces(
            [marching_tets_pieces(TET_NODES, TET, np.zeros(4), 0.5, 0, 1)],
            n_nodes=len(TET_NODES))
        with pytest.raises(ValueError, match="carry values"):
            cut.carry(np.zeros(3))


class TestOneKernel:
    @pytest.mark.parametrize("n_ranges", [1, 2, 5])
    def test_whole_block_equals_merged_ranges(self, n_ranges):
        mesh = structured_tet_block(5, 4, 3)
        levels = np.sin(mesh.nodes @ np.array([3.0, 5.0, 7.0]))
        carry = np.cos(mesh.nodes @ np.array([2.0, 1.0, 4.0]))
        whole = marching_tets(mesh.nodes, mesh.tets, levels, 0.1,
                              carry_values=carry)
        assert whole.n_triangles > 0
        bounds = np.linspace(0, mesh.n_tets, n_ranges + 1).astype(int)
        merged = merge_tet_pieces([
            marching_tets_pieces(mesh.nodes, mesh.tets, levels, 0.1,
                                 lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ], n_nodes=mesh.n_nodes).carry(carry)
        assert merged.vertices.tobytes() == whole.vertices.tobytes()
        assert merged.values.tobytes() == whole.values.tobytes()


class TestTriangleSoup:
    def test_empty(self):
        soup = TriangleSoup.empty()
        assert soup.n_triangles == 0

    def test_concatenate(self):
        a = TriangleSoup(np.zeros((2, 3, 3)), np.zeros((2, 3)))
        b = TriangleSoup(np.ones((3, 3, 3)), np.ones((3, 3)))
        merged = TriangleSoup.concatenate([a, TriangleSoup.empty(), b])
        assert merged.n_triangles == 5

    def test_concatenate_empty_list(self):
        assert TriangleSoup.concatenate([]).n_triangles == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TriangleSoup(np.zeros((2, 3, 3)), np.zeros((3, 3)))


class TestMeshLevelSurfaces:
    def test_plane_surface_area(self):
        """The z = 0.5 level set of f(x) = z over the unit cube is the
        unit square: total triangle area must be ~1."""
        mesh = structured_tet_block(4, 4, 4)
        soup = marching_tets(
            mesh.nodes, mesh.tets, mesh.nodes[:, 2], 0.5
        )
        assert soup.n_triangles > 0
        area = triangle_areas(soup.vertices).sum()
        assert area == pytest.approx(1.0, rel=1e-9)

    def test_sphere_surface_area_approx(self):
        """The r = 0.35 level set of radial distance from the cube
        center approximates a sphere: area within ~10 % of 4 pi r^2."""
        mesh = structured_tet_block(10, 10, 10)
        radius = np.linalg.norm(mesh.nodes - 0.5, axis=1)
        soup = marching_tets(mesh.nodes, mesh.tets, radius, 0.35)
        area = triangle_areas(soup.vertices).sum()
        exact = 4 * np.pi * 0.35 ** 2
        assert abs(area - exact) / exact < 0.1

    def test_surface_scales_with_isovalue(self):
        mesh = structured_tet_block(8, 8, 8)
        radius = np.linalg.norm(mesh.nodes - 0.5, axis=1)
        small = marching_tets(mesh.nodes, mesh.tets, radius, 0.2)
        large = marching_tets(mesh.nodes, mesh.tets, radius, 0.4)
        assert triangle_areas(large.vertices).sum() > \
            triangle_areas(small.vertices).sum()

    def test_vertices_inside_domain(self):
        mesh = structured_tet_block(4, 4, 4)
        values = np.sin(mesh.nodes @ np.array([3.0, 5.0, 7.0]))
        soup = marching_tets(mesh.nodes, mesh.tets, values, 0.1)
        flat = soup.vertices.reshape(-1, 3)
        assert flat.min() >= -1e-12
        assert flat.max() <= 1 + 1e-12
