"""Marching tetrahedra: isosurface extraction over tet meshes.

The core geometric kernel of the visualization substrate. Given node
scalar values and an isovalue, each tetrahedron is classified by which of
its four vertices lie inside (value >= isovalue); the 16 sign cases yield
0, 1, or 2 triangles whose vertices are linear interpolations along the
cut edges. The implementation is vectorized per case over all tets.

The kernel outputs a *cut* (:class:`TetCut`): each output corner's
position, the two end nodes of the edge it lies on and its weight
``t`` along that edge. A per-node array is then *carried* onto the cut
with the same weights (:meth:`TetCut.carry`) — the isovalue field
itself for a plain isosurface, the field of interest for a cutting
plane. A cut depends on the mesh and the level values only, so a
plane over an unchanged mesh is cut once and carries every
time-step's field.

There is one kernel, :func:`_case_pieces`, over a contiguous *range*
of tets. :func:`tet_cut` runs it over the whole mesh as a single
range; :func:`marching_tets_pieces` exposes a sub-range so one
large mesh can be split across compute workers instead of straggling
as a single task. Every (sign case, case triangle) pair has a fixed
global *piece rank* (its position in ``_CASES`` iteration order);
each range returns its per-rank arrays and :func:`merge_tet_pieces`
reassembles them rank-major, range-ascending, so the merged cut is
byte-identical no matter how the tets were split. (All per-tet
arithmetic is elementwise or row-indexed, so subsetting rows never
changes a row's floats.)

The mesh may be several blocks *merged* — node arrays concatenated,
connectivity offset into the merged node range, and a ``tet_block``
array naming each tet's block (non-decreasing). The kernel then
carries each output triangle's block index through its pieces and the
merge finishes with one stable sort on it, which turns rank-major
order into block-major / rank-major / tet-ascending: exactly the
bytes of extracting every block on its own and concatenating the
soups in block order, from one kernel pass instead of one per block.
(Edge ends are merged-mesh node indices, so one carry serves every
block.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

# Tet edges as (vertex a, vertex b) pairs, indexed 0..5.
_EDGES = np.array(
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.int64
)

# Bit weights turning the (m, 4) inside-flags into sign-case masks with
# one matmul (vertex i inside -> bit i).
_MASK_WEIGHTS = np.array([1, 2, 4, 8], dtype=np.int8)

# mask (bit i set = vertex i inside) -> list of triangles, each a triple
# of edge indices into _EDGES. Complementary masks reuse the same cut
# edges with reversed winding.
_CASES: Dict[int, List[Tuple[int, int, int]]] = {
    0b0001: [(0, 1, 2)],
    0b0010: [(0, 4, 3)],
    0b0100: [(1, 3, 5)],
    0b1000: [(2, 5, 4)],
    0b0011: [(1, 2, 4), (1, 4, 3)],
    0b0101: [(0, 3, 5), (0, 5, 2)],
    0b0110: [(0, 1, 5), (0, 5, 4)],
    0b1001: [(0, 4, 5), (0, 5, 1)],
    0b1010: [(0, 5, 3), (0, 2, 5)],
    0b1100: [(1, 4, 2), (1, 3, 4)],
    0b0111: [(2, 4, 5)],
    0b1011: [(1, 5, 3)],
    0b1101: [(0, 3, 4)],
    0b1110: [(0, 2, 1)],
}

#: One kernel output piece: ``(rank, vertices, ends, weights, blocks)``.
#: The rank is the piece's position in the global emission order — one
#: per (sign case, case triangle) pair, in ``_CASES`` iteration order —
#: which is what lets the merge interleave several ranges' results.
Piece = Tuple[int, np.ndarray, np.ndarray, np.ndarray,
              Optional[np.ndarray]]


@dataclass
class TriangleSoup:
    """Extraction output: triangle vertices and per-vertex scalars.

    ``vertices``: (n, 3, 3) float64 — triangle corner positions.
    ``values``:   (n, 3) float64 — the carried scalar at each corner
    (the isovalue itself for plain isosurfaces).
    """

    vertices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(
            self.vertices, dtype=np.float64
        ).reshape(-1, 3, 3)
        self.values = np.ascontiguousarray(
            self.values, dtype=np.float64
        ).reshape(-1, 3)
        if len(self.vertices) != len(self.values):
            raise ValueError("vertices/values length mismatch")

    @property
    def n_triangles(self) -> int:
        """Number of triangles in the soup."""
        return len(self.vertices)

    @classmethod
    def empty(cls) -> "TriangleSoup":
        """A soup with no triangles."""
        return cls(np.empty((0, 3, 3)), np.empty((0, 3)))

    @classmethod
    def concatenate(cls, soups: List["TriangleSoup"]) -> "TriangleSoup":
        """One soup holding every triangle of ``soups``, in order; a
        single non-empty soup is returned as is."""
        soups = [s for s in soups if s.n_triangles]
        if not soups:
            return cls.empty()
        if len(soups) == 1:
            return soups[0]
        total = sum(s.n_triangles for s in soups)
        vertices = np.empty((total, 3, 3))
        values = np.empty((total, 3))
        offset = 0
        for soup in soups:
            end = offset + soup.n_triangles
            vertices[offset:end] = soup.vertices
            values[offset:end] = soup.values
            offset = end
        return cls(vertices, values)

    def cache_nbytes(self) -> int:
        """Budget-accounting size for the derived-data cache."""
        return int(self.vertices.nbytes + self.values.nbytes)

    def cache_freeze(self) -> "TriangleSoup":
        """Make the arrays read-only so the soup can be shared."""
        self.vertices.flags.writeable = False
        self.values.flags.writeable = False
        return self


class TetCut:
    """Where a level set cuts a tet mesh, without any field on it.

    ``vertices``: (n, 3, 3) float64 — the output triangles' corners.
    ``ends``: (2, n, 3) int32 — each corner's cut-edge end nodes.
    ``weights``: (n, 3) float64 — each corner's edge weight ``t``.

    The product of the kernel (:func:`tet_cut`, or
    :func:`merge_tet_pieces` over ranges). A cut depends on the mesh and
    the level values only; :meth:`carry` paints any per-node field onto
    it, so a cutting plane over an unchanged mesh is cut once and
    carries each time-step's field
    (docs/adr/022-a-cut-is-a-derived-product.md).
    """

    __slots__ = ("vertices", "ends", "weights", "n_nodes")

    def __init__(self, vertices: np.ndarray, ends: np.ndarray,
                 weights: np.ndarray, n_nodes: int):
        self.vertices = vertices
        self.ends = ends
        self.weights = weights
        #: Node count of the mesh: :meth:`carry` checks its field's.
        self.n_nodes = n_nodes

    @property
    def n_triangles(self) -> int:
        """Number of triangles the cut yields."""
        return len(self.vertices)

    @classmethod
    def empty(cls, n_nodes: int) -> "TetCut":
        """A cut with no triangles."""
        return cls(np.empty((0, 3, 3)), np.empty((2, 0, 3), np.int32),
                   np.empty((0, 3)), n_nodes)

    def carry(self, values: np.ndarray) -> TriangleSoup:
        """The soup of this cut with per-node ``values`` interpolated
        onto its corners: ``ca + t * (cb - ca)`` over each corner's edge
        ends, the kernel's own expression on the same operands."""
        values = np.asarray(values, dtype=np.float64)
        if len(values) != self.n_nodes:
            raise ValueError(
                f"{len(values)} carry values for {self.n_nodes} nodes"
            )
        ca = values.take(self.ends[0])
        cb = values.take(self.ends[1])
        return TriangleSoup(self.vertices, ca + self.weights * (cb - ca))

    def cache_nbytes(self) -> int:
        """Budget-accounting size for the derived-data cache."""
        return int(self.vertices.nbytes + self.ends.nbytes
                   + self.weights.nbytes)

    def cache_freeze(self) -> "TetCut":
        """Make the arrays read-only so the cut can be shared."""
        for array in (self.vertices, self.ends, self.weights):
            array.flags.writeable = False
        return self


def marching_tets(
    nodes: np.ndarray,
    tets: np.ndarray,
    level_values: np.ndarray,
    isovalue: float,
    carry_values: Optional[np.ndarray] = None,
    tet_block: Optional[np.ndarray] = None,
) -> TriangleSoup:
    """Extract the ``level_values == isovalue`` surface.

    ``level_values`` is per-node; ``carry_values`` (per-node, optional)
    is interpolated onto the triangle corners — when omitted the carried
    value is ``level_values`` itself (so every output value equals the
    isovalue, which is what a plain isosurface colors by).
    ``tet_block`` (per-tet, non-decreasing, optional) marks a merged
    multi-block mesh: the soup comes out block-major, as if each block
    had been extracted separately.

    The whole mesh's cut, carrying the field.
    """
    cut = tet_cut(nodes, tets, level_values, isovalue, tet_block)
    return cut.carry(level_values if carry_values is None
                     else carry_values)


def tet_cut(
    nodes: np.ndarray,
    tets: np.ndarray,
    level_values: np.ndarray,
    isovalue: float,
    tet_block: Optional[np.ndarray] = None,
) -> TetCut:
    """The ``level_values == isovalue`` cut of the whole mesh: the
    kernel over one range, merged."""
    return merge_tet_pieces(
        [_case_pieces(nodes, tets, level_values, isovalue, tet_block)],
        n_nodes=len(nodes),
    )


def _case_pieces(
    nodes: np.ndarray,
    tets: np.ndarray,
    level_values: np.ndarray,
    isovalue: float,
    tet_block: Optional[np.ndarray] = None,
) -> List[Piece]:
    """The extraction kernel: rank-keyed raw piece arrays.

    One ``(rank, vertices (k, 3, 3), ends (2, k, 3), weights (k, 3),
    blocks)`` tuple per non-empty (sign case, case triangle) pair, in
    rank order with tets ascending within a piece. ``tets`` is the
    range to extract (any row subset of the mesh's connectivity) and
    ``tet_block`` the matching rows of the tet->block index; ``blocks``
    is its selection for the piece's triangles (None without an index).
    The level values are validated here, once, for every entry point.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    tets = np.asarray(tets)
    level_values = np.asarray(level_values, dtype=np.float64)
    if len(level_values) != len(nodes):
        raise ValueError(
            f"{len(level_values)} level values for {len(nodes)} nodes"
        )
    # take, not fancy indexing, for every row gather below: the same
    # values, several times faster.
    tet_values = level_values.take(tets)                  # (m, 4)
    inside = tet_values >= isovalue
    masks = inside.astype(np.int8) @ _MASK_WEIGHTS        # (m,)

    pieces: List[Piece] = []
    rank = 0
    for mask, triangles in _CASES.items():
        selected = np.nonzero(masks == mask)[0]
        if not len(selected):
            rank += len(triangles)
            continue
        sel_tets = tets.take(selected, axis=0)             # (k, 4)
        sel_vals = tet_values.take(selected, axis=0)       # (k, 4)
        # Interpolate every cut edge used by this case once.
        edge_ids = sorted({e for tri in triangles for e in tri})
        edge_pos = {}
        edge_ends = {}
        edge_t = {}
        for edge in edge_ids:
            a, b = _EDGES[edge]
            fa = sel_vals[:, a]
            fb = sel_vals[:, b]
            denom = fb - fa
            # Signs differ on a cut edge, so denom != 0; guard anyway for
            # the fa == fb == isovalue corner case.
            safe = np.where(np.abs(denom) < 1e-300, 1.0, denom)
            t = np.clip((isovalue - fa) / safe, 0.0, 1.0)
            pa = nodes.take(sel_tets[:, a], axis=0)
            pb = nodes.take(sel_tets[:, b], axis=0)
            edge_pos[edge] = pa + t[:, None] * (pb - pa)
            edge_ends[edge] = sel_tets[:, (a, b)].T.astype(np.int32)
            edge_t[edge] = t
        blocks = (None if tet_block is None
                  else tet_block.take(selected))
        for tri in triangles:
            verts = np.stack([edge_pos[e] for e in tri], axis=1)
            ends = np.stack([edge_ends[e] for e in tri], axis=2)
            weights = np.stack([edge_t[e] for e in tri], axis=1)
            pieces.append((rank, verts, ends, weights, blocks))
            rank += 1
    return pieces


def marching_tets_pieces(
    nodes: np.ndarray,
    tets: np.ndarray,
    level_values: np.ndarray,
    isovalue: float,
    lo: int,
    hi: int,
    tet_block: Optional[np.ndarray] = None,
) -> List[Piece]:
    """Cut the contiguous tet range ``tets[lo:hi]`` only.

    The sub-range compute task: a module-level function of plain
    arrays (REP107 — and re-importable by
    :class:`~repro.core.compute_proc.ProcessComputePool` workers, with
    the mesh arrays arriving as zero-copy tokens). Returns rank-keyed
    raw piece arrays; feed every range's result, in ascending range
    order, to :func:`merge_tet_pieces` to obtain the byte-identical
    whole-mesh cut.
    """
    return _case_pieces(
        nodes, tets[lo:hi], level_values, isovalue,
        None if tet_block is None else tet_block[lo:hi],
    )


def merge_tet_pieces(chunks: List[List[Piece]], n_nodes: int) -> TetCut:
    """Reassemble sub-range piece lists into the whole-mesh cut.

    ``chunks`` must be ordered by ascending tet range. Pieces are laid
    out rank-major, chunk-ascending: for a fixed rank the chunks hold
    disjoint ascending tet subsets, so their concatenation is the
    ascending selection a single whole-mesh range produces — the
    merged cut does not depend on how the mesh was split. Pieces that
    carry block indices (a merged multi-block mesh) are then stably
    sorted by block: within a rank the blocks already ascend, so the
    sort yields block-major / rank-major / tet-ascending order — the
    concatenation of the per-block cuts. ``n_nodes`` is the mesh's
    node count, for :meth:`TetCut.carry` to check.
    """
    # Chunk-major in, stable sort on rank: rank-major, chunk-ascending.
    pieces = sorted(
        (piece for chunk in chunks for piece in chunk),
        key=lambda piece: piece[0],
    )
    if not pieces:
        return TetCut.empty(n_nodes)
    vertices = np.concatenate([piece[1] for piece in pieces])
    ends = np.concatenate([piece[2] for piece in pieces], axis=1)
    weights = np.concatenate([piece[3] for piece in pieces])
    if pieces[0][4] is not None:
        order = np.argsort(
            np.concatenate([piece[4] for piece in pieces]), kind="stable"
        )
        vertices = vertices.take(order, axis=0)
        ends = ends.take(order, axis=1)
        weights = weights.take(order, axis=0)
    return TetCut(vertices, ends, weights, n_nodes)
