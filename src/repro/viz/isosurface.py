"""Marching tetrahedra: isosurface extraction over tet meshes.

The core geometric kernel of the visualization substrate. Given node
scalar values and an isovalue, each tetrahedron is classified by which of
its four vertices lie inside (value >= isovalue); the 16 sign cases yield
0, 1, or 2 triangles whose vertices are linear interpolations along the
cut edges. The implementation is vectorized per case over all tets.

A second per-node array can be *carried*: its values are interpolated onto
the output triangle vertices with the same edge weights — used by the
cutting-plane stage to paint a field onto the slice.

There is one kernel, :func:`_case_pieces`, over a contiguous *range*
of tets. :func:`marching_tets` runs it over the whole mesh as a
single range; :func:`marching_tets_pieces` exposes a sub-range so one
large mesh can be split across compute workers instead of straggling
as a single task. Every (sign case, case triangle) pair has a fixed
global *piece rank* (its position in ``_CASES`` iteration order);
each range returns its per-rank arrays and :func:`merge_tet_pieces`
reassembles them rank-major, range-ascending, so the merged soup is
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

#: One kernel output piece: ``(rank, vertices, values, blocks)``. The
#: rank is the piece's position in the global emission order — one per
#: (sign case, case triangle) pair, in ``_CASES`` iteration order —
#: which is what lets the merge interleave several ranges' results.
Piece = Tuple[int, np.ndarray, np.ndarray, Optional[np.ndarray]]


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

    The whole mesh as one range: the kernel's pieces, merged.
    """
    return merge_tet_pieces([
        _case_pieces(nodes, tets, level_values, carry_values, isovalue,
                     tet_block)
    ])


def _case_pieces(
    nodes: np.ndarray,
    tets: np.ndarray,
    level_values: np.ndarray,
    carry_values: Optional[np.ndarray],
    isovalue: float,
    tet_block: Optional[np.ndarray] = None,
) -> List[Piece]:
    """The extraction kernel: rank-keyed raw piece arrays.

    One ``(rank, vertices (k, 3, 3), values (k, 3), blocks)`` tuple per
    non-empty (sign case, case triangle) pair, in rank order with tets
    ascending within a piece. ``tets`` is the range to extract (any
    row subset of the mesh's connectivity) and ``tet_block`` the
    matching rows of the tet->block index; ``blocks`` is its selection
    for the piece's triangles (None without an index). The per-node
    arrays are validated here, once, for both entry points.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    tets = np.asarray(tets)
    level_values = np.asarray(level_values, dtype=np.float64)
    if len(level_values) != len(nodes):
        raise ValueError(
            f"{len(level_values)} level values for {len(nodes)} nodes"
        )
    if carry_values is None:
        carry_values = level_values
    else:
        carry_values = np.asarray(carry_values, dtype=np.float64)
        if len(carry_values) != len(nodes):
            raise ValueError(
                f"{len(carry_values)} carry values for {len(nodes)} nodes"
            )
    tet_values = level_values[tets]                       # (m, 4)
    inside = tet_values >= isovalue
    masks = inside.astype(np.int8) @ _MASK_WEIGHTS        # (m,)

    pieces: List[Piece] = []
    rank = 0
    for mask, triangles in _CASES.items():
        selected = np.nonzero(masks == mask)[0]
        if not len(selected):
            rank += len(triangles)
            continue
        sel_tets = tets[selected]                          # (k, 4)
        sel_vals = tet_values[selected]                    # (k, 4)
        # Interpolate every cut edge used by this case once.
        edge_ids = sorted({e for tri in triangles for e in tri})
        edge_pos = {}
        edge_carry = {}
        for edge in edge_ids:
            a, b = _EDGES[edge]
            fa = sel_vals[:, a]
            fb = sel_vals[:, b]
            denom = fb - fa
            # Signs differ on a cut edge, so denom != 0; guard anyway for
            # the fa == fb == isovalue corner case.
            safe = np.where(np.abs(denom) < 1e-300, 1.0, denom)
            t = np.clip((isovalue - fa) / safe, 0.0, 1.0)
            pa = nodes[sel_tets[:, a]]
            pb = nodes[sel_tets[:, b]]
            edge_pos[edge] = pa + t[:, None] * (pb - pa)
            ca = carry_values[sel_tets[:, a]]
            cb = carry_values[sel_tets[:, b]]
            edge_carry[edge] = ca + t * (cb - ca)
        blocks = None if tet_block is None else tet_block[selected]
        for tri in triangles:
            verts = np.stack([edge_pos[e] for e in tri], axis=1)
            vals = np.stack([edge_carry[e] for e in tri], axis=1)
            pieces.append((rank, verts, vals, blocks))
            rank += 1
    return pieces


def marching_tets_pieces(
    nodes: np.ndarray,
    tets: np.ndarray,
    level_values: np.ndarray,
    isovalue: float,
    lo: int,
    hi: int,
    carry_values: Optional[np.ndarray] = None,
    tet_block: Optional[np.ndarray] = None,
) -> List[Piece]:
    """Extract over the contiguous tet range ``tets[lo:hi]`` only.

    The sub-range compute task: a module-level function of plain
    arrays (REP107 — and re-importable by
    :class:`~repro.core.compute_proc.ProcessComputePool` workers, with
    the mesh arrays arriving as zero-copy tokens). Returns rank-keyed
    raw piece arrays; feed every range's result, in ascending range
    order, to :func:`merge_tet_pieces` to obtain the byte-identical
    whole-mesh soup.
    """
    return _case_pieces(
        nodes, tets[lo:hi], level_values, carry_values, isovalue,
        None if tet_block is None else tet_block[lo:hi],
    )


def merge_tet_pieces(chunks: List[List[Piece]]) -> TriangleSoup:
    """Reassemble sub-range piece lists into the whole-mesh soup.

    ``chunks`` must be ordered by ascending tet range. Pieces are laid
    out rank-major, chunk-ascending: for a fixed rank the chunks hold
    disjoint ascending tet subsets, so their concatenation is the
    ascending selection a single whole-mesh range produces — the
    merged soup does not depend on how the mesh was split. Pieces that
    carry block indices (a merged multi-block mesh) are then stably
    sorted by block: within a rank the blocks already ascend, so the
    sort yields block-major / rank-major / tet-ascending order — the
    concatenation of the per-block soups.
    """
    # Chunk-major in, stable sort on rank: rank-major, chunk-ascending.
    pieces = sorted(
        (piece for chunk in chunks for piece in chunk),
        key=lambda piece: piece[0],
    )
    if not pieces:
        return TriangleSoup.empty()
    vertices = np.concatenate([piece[1] for piece in pieces])
    values = np.concatenate([piece[2] for piece in pieces])
    if pieces[0][3] is not None:
        order = np.argsort(
            np.concatenate([piece[3] for piece in pieces]), kind="stable"
        )
        vertices = vertices[order]
        values = values[order]
    return TriangleSoup(vertices, values)
