"""Unstructured tetrahedral meshes built from structured hex grids.

Rocketeer "can handle many different types of grids … non-uniform,
structured, unstructured, and multiblock" (section 4.1), and the GENx
solid-propellant datasets use "the unstructured tetrahedral mesh" with
connectivity arrays. We build conformal tet meshes by splitting each cell
of a structured hexahedral grid into six tetrahedra (the Kuhn/Freudenthal
decomposition, which is conformal across cell faces because every cell
uses the same main diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

# The 6-tet Kuhn decomposition of the unit hex with local corner numbering
#   idx = (i) + (j)*(nx+1-ish) ... corners ordered (dz, dy, dx) bit-wise:
#   corner c = (ci, cj, ck) -> bit 0 = i, bit 1 = j, bit 2 = k.
# All six tets share the main diagonal 0 -> 7.
# Each tet is {0, e_i, e_i + e_j, 7} for one permutation (i, j, k) of the
# axes; odd permutations have their middle vertices swapped so all six
# tets share the same (positive) orientation.
_KUHN_TETS = np.array(
    [
        [0, 1, 3, 7],   # (x, y, z) even
        [0, 5, 1, 7],   # (x, z, y) odd, flipped
        [0, 3, 2, 7],   # (y, x, z) odd, flipped
        [0, 2, 6, 7],   # (y, z, x) even
        [0, 4, 5, 7],   # (z, x, y) even
        [0, 6, 4, 7],   # (z, y, x) odd, flipped
    ],
    dtype=np.int64,
)


@dataclass
class TetMesh:
    """An unstructured tetrahedral mesh.

    ``nodes``: float64 array of shape (n_nodes, 3).
    ``tets``:  int32 array of shape (n_tets, 4), zero-based node indices.
    """

    nodes: np.ndarray
    tets: np.ndarray

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.tets = np.ascontiguousarray(self.tets, dtype=np.int32)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise ValueError("nodes must have shape (n, 3)")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise ValueError("tets must have shape (m, 4)")
        if len(self.tets) and (
            self.tets.min() < 0 or self.tets.max() >= len(self.nodes)
        ):
            raise ValueError("tet connectivity references missing nodes")

    @property
    def n_nodes(self) -> int:
        """Number of mesh nodes."""
        return len(self.nodes)

    @property
    def n_tets(self) -> int:
        """Number of tetrahedra."""
        return len(self.tets)

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-axis minimum and maximum node coordinates."""
        return self.nodes.min(axis=0), self.nodes.max(axis=0)

    def tet_volumes(self) -> np.ndarray:
        """Signed volume of every tetrahedron (positive when the node
        ordering is consistent)."""
        a = self.nodes[self.tets[:, 0]]
        b = self.nodes[self.tets[:, 1]] - a
        c = self.nodes[self.tets[:, 2]] - a
        d = self.nodes[self.tets[:, 3]] - a
        return np.einsum("ij,ij->i", np.cross(b, c), d) / 6.0

    def total_volume(self) -> float:
        """Sum of the absolute tetrahedron volumes."""
        return float(np.abs(self.tet_volumes()).sum())

    def tet_centroids(self) -> np.ndarray:
        """Mean of each tetrahedron's four nodes, one row per tet."""
        return self.nodes[self.tets].mean(axis=1)

    def validate(self) -> None:
        """Structural sanity: no degenerate (zero-volume) or duplicated
        node references within a tet."""
        tets = self.tets
        for col_a in range(4):
            for col_b in range(col_a + 1, 4):
                if np.any(tets[:, col_a] == tets[:, col_b]):
                    raise ValueError("tet with repeated node index")
        if len(tets) and np.any(np.abs(self.tet_volumes()) < 1e-300):
            raise ValueError("degenerate (zero-volume) tetrahedron")


def structured_grid_nodes(
    nx: int, ny: int, nz: int,
    mapping: Callable[[np.ndarray], np.ndarray] = None,
) -> np.ndarray:
    """Nodes of an (nx, ny, nz)-cell structured grid.

    Returns (n_nodes, 3) parametric coordinates in [0,1]^3 ordered
    i-fastest (x), then j (y), then k (z); ``mapping`` optionally
    transforms parametric to physical coordinates (e.g. the annulus map
    in :mod:`repro.gen.titan`).
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("grid must have at least one cell per axis")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    zs = np.linspace(0.0, 1.0, nz + 1)
    kk, jj, ii = np.meshgrid(zs, ys, xs, indexing="ij")
    params = np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()])
    if mapping is not None:
        params = np.asarray(mapping(params), dtype=np.float64)
        if params.shape != (len(ii.ravel()), 3):
            raise ValueError("mapping must return an (n, 3) array")
    return params


def structured_tet_connectivity(nx: int, ny: int, nz: int) -> np.ndarray:
    """Kuhn 6-tet connectivity for an (nx, ny, nz)-cell grid, matching
    the node ordering of :func:`structured_grid_nodes`."""
    if min(nx, ny, nz) < 1:
        raise ValueError("grid must have at least one cell per axis")
    # Node linear index: n(i, j, k) = i + j*(nx+1) + k*(nx+1)*(ny+1)
    stride_j = nx + 1
    stride_k = (nx + 1) * (ny + 1)
    ci, cj, ck = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    base = (ci + cj * stride_j + ck * stride_k).ravel()
    # The 8 hex corners relative to the base node, bit c: (i+bit0,
    # j+bit1, k+bit2).
    corner_offsets = np.array(
        [
            (bit0 + bit1 * stride_j + bit2 * stride_k)
            for bit2 in (0, 1)
            for bit1 in (0, 1)
            for bit0 in (0, 1)
        ],
        dtype=np.int64,
    )
    # corner index in _KUHN_TETS uses bit0=i, bit1=j, bit2=k ordering:
    # offsets above are enumerated k-major, so reorder to bit-wise.
    # bit pattern for enumeration order (bit2,bit1,bit0): index
    # = bit2*4 + bit1*2 + bit0 -> matches corner id definition directly.
    corners = base[:, None] + corner_offsets[None, :]
    tets = corners[:, _KUHN_TETS.ravel()].reshape(-1, 4)
    return tets.astype(np.int32)


def structured_tet_block(
    nx: int, ny: int, nz: int,
    mapping: Callable[[np.ndarray], np.ndarray] = None,
) -> TetMesh:
    """Build a conformal tet mesh over a structured (nx, ny, nz) grid."""
    nodes = structured_grid_nodes(nx, ny, nz, mapping)
    tets = structured_tet_connectivity(nx, ny, nz)
    return TetMesh(nodes, tets)
