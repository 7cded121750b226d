"""Extraction is a cut and a carry: identity with the pinned kernel.

:func:`~repro.viz.isosurface.tet_cut` (and its range form,
:func:`~repro.viz.isosurface.marching_tets_pieces` merged by
:func:`~repro.viz.isosurface.merge_tet_pieces`) outputs where a level
set cuts the mesh; :meth:`~repro.viz.isosurface.TetCut.carry` paints a
field onto it. Every entry point must reproduce
``tests/reference_kernel.py`` — the per-case kernel that interpolated
positions and carried values in one pass — byte for byte: on merged
multi-block meshes, split into any ranges, with no triangle at all,
and with level values that tie the isovalue.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kernel import reference_marching_tets, reference_slice_mesh

from repro.gen.tetmesh import structured_tet_block
from repro.viz.isosurface import (
    TetCut,
    marching_tets,
    marching_tets_pieces,
    merge_tet_pieces,
    tet_cut,
)
from repro.viz.pipeline import merge_blocks
from repro.viz.slice_plane import plane_cut, slice_mesh


def _same(soup, expected):
    assert soup.n_triangles == expected.n_triangles
    assert soup.vertices.tobytes() == expected.vertices.tobytes()
    assert soup.values.tobytes() == expected.values.tobytes()


def _merged(shapes, shift=0.37):
    """Several structured blocks side by side, merged into one mesh."""
    blocks = [structured_tet_block(*shape) for shape in shapes]
    coords = [block.nodes + np.array([index * shift, 0.0, 0.0])
              for index, block in enumerate(blocks)]
    return merge_blocks(coords, [block.tets for block in blocks])


_SHAPES = st.lists(st.tuples(*[st.integers(1, 3)] * 3),
                   min_size=1, max_size=4)
#: Level values on a coarse grid: many nodes tie the isovalue exactly,
#: and many edges join two equal values.
_TIED = st.sampled_from([-1.0, 0.0, 0.5, 0.5, 1.0])


@settings(max_examples=60, deadline=None)
@given(shapes=_SHAPES, seed=st.integers(0, 2**32 - 1),
       tied=st.booleans(), n_ranges=st.integers(1, 5),
       data=st.data())
def test_cut_and_carry_match_pinned_kernel(shapes, seed, tied, n_ranges,
                                           data):
    nodes, tets, tet_block = _merged(shapes)
    rng = np.random.default_rng(seed)
    if tied:
        levels = np.array(data.draw(st.lists(
            _TIED, min_size=len(nodes), max_size=len(nodes))))
        isovalue = 0.5
    else:
        levels = rng.normal(size=len(nodes))
        isovalue = float(rng.normal(scale=0.5))
    carry = rng.normal(size=len(nodes))
    expected = reference_marching_tets(nodes, tets, levels, isovalue,
                                       carry_values=carry,
                                       tet_block=tet_block)
    _same(marching_tets(nodes, tets, levels, isovalue,
                        carry_values=carry, tet_block=tet_block), expected)
    bounds = np.linspace(0, len(tets), n_ranges + 1).astype(int)
    cut = merge_tet_pieces([
        marching_tets_pieces(nodes, tets, levels, isovalue, int(lo),
                             int(hi), tet_block=tet_block)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ], n_nodes=len(nodes))
    _same(cut.carry(carry), expected)
    # Without a carry the level values themselves are carried.
    _same(marching_tets(nodes, tets, levels, isovalue,
                        tet_block=tet_block),
          reference_marching_tets(nodes, tets, levels, isovalue,
                                  tet_block=tet_block))


@settings(max_examples=40, deadline=None)
@given(shapes=_SHAPES, seed=st.integers(0, 2**32 - 1),
       origin=st.tuples(*[st.floats(0.0, 1.5)] * 3),
       normal=st.sampled_from([(0.0, 0.0, 1.0), (1.0, 2.0, -0.5),
                               (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]))
def test_plane_cut_carries_any_field_like_slice_mesh(shapes, seed, origin,
                                                     normal):
    """One plane cut serves every time-step's field: each carry equals
    the pinned kernel's slice of that field."""
    nodes, tets, tet_block = _merged(shapes)
    cut = plane_cut(nodes, tets, origin, normal, tet_block=tet_block)
    rng = np.random.default_rng(seed)
    for _step in range(3):
        field = rng.normal(size=len(nodes))
        expected = reference_slice_mesh(nodes, tets, field, origin,
                                        normal, tet_block=tet_block)
        _same(cut.carry(field), expected)
        _same(slice_mesh(nodes, tets, field, origin, normal,
                         tet_block=tet_block), expected)


def test_edge_ends_are_int32_node_indices():
    nodes, tets, tet_block = _merged([(2, 2, 2), (3, 1, 2)])
    levels = np.sin(nodes @ np.array([3.0, 5.0, 7.0]))
    cut = tet_cut(nodes, tets, levels, 0.1, tet_block=tet_block)
    assert cut.n_triangles > 0
    assert cut.ends.dtype == np.int32
    assert cut.ends.shape == (2, cut.n_triangles, 3)
    assert cut.weights.shape == (cut.n_triangles, 3)
    assert 0 <= cut.ends.min() and cut.ends.max() < len(nodes)
    assert ((0.0 <= cut.weights) & (cut.weights <= 1.0)).all()
    assert cut.cache_nbytes() == (cut.vertices.nbytes + cut.ends.nbytes
                                  + cut.weights.nbytes)


def test_empty_cut_carries_an_empty_soup():
    mesh = structured_tet_block(2, 2, 2)
    levels = np.zeros(mesh.n_nodes)
    cut = tet_cut(mesh.nodes, mesh.tets, levels, 1.0)
    assert cut.n_triangles == 0
    soup = cut.carry(np.ones(mesh.n_nodes))
    assert soup.vertices.shape == (0, 3, 3)
    assert soup.values.shape == (0, 3)
    _same(soup, reference_marching_tets(mesh.nodes, mesh.tets, levels,
                                        1.0))
    assert merge_tet_pieces([], 3).carry(np.ones(3)).n_triangles == 0


def test_carry_checks_the_node_count():
    mesh = structured_tet_block(2, 2, 2)
    cut = tet_cut(mesh.nodes, mesh.tets, mesh.nodes[:, 0], 0.5)
    with pytest.raises(ValueError, match="carry values"):
        cut.carry(np.zeros(mesh.n_nodes + 1))


def test_frozen_cut_still_carries():
    mesh = structured_tet_block(3, 2, 2)
    levels = mesh.nodes @ np.array([1.0, 0.5, 0.25])
    cut = tet_cut(mesh.nodes, mesh.tets, levels, 0.8)
    assert isinstance(cut.cache_freeze(), TetCut)
    assert not cut.ends.flags.writeable
    _same(cut.carry(levels),
          reference_marching_tets(mesh.nodes, mesh.tets, levels, 0.8))
