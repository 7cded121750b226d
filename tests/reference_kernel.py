"""Extraction's kernel, kept as a test oracle.

The marching-tets kernel as it stood when extraction became a cut and
a carry (docs/adr/022-a-cut-is-a-derived-product.md): the per-case
loop that interpolates each cut edge's position *and* carried value in
one pass, moved here verbatim with its tables, its rank-major merge and
the cutting plane built on it. It is slow and obviously right. Every
entry point of the real kernel (``marching_tets``, ``slice_mesh``,
``marching_tets_pieces`` + ``merge_tet_pieces``, the pipeline's memoized
cut) must reproduce its ``vertices`` and ``values`` byte for byte.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.viz.isosurface import TriangleSoup

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

Piece = Tuple[int, np.ndarray, np.ndarray, Optional[np.ndarray]]


def reference_marching_tets(nodes, tets, level_values, isovalue,
                            carry_values=None, tet_block=None):
    """The whole mesh as one range: the kernel's pieces, merged."""
    return _merge_pieces([
        _case_pieces(nodes, tets, level_values, carry_values, isovalue,
                     tet_block)
    ])


def reference_slice_mesh(nodes, tets, field_values, origin, normal,
                         tet_block=None):
    """The plane cut: the isosurface of the signed distance at 0."""
    nodes = np.asarray(nodes, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    distances = (nodes - origin) @ (normal / np.linalg.norm(normal))
    return reference_marching_tets(
        nodes, tets, distances, 0.0, carry_values=field_values,
        tet_block=tet_block,
    )


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


def _merge_pieces(chunks: List[List[Piece]]) -> TriangleSoup:
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
