"""Mesh-side geometry helpers shared by the pipeline stages.

Boundary-surface extraction (the outer skin of a tet mesh), per-triangle
normals, and element-to-node field averaging (needed to isosurface
element-based quantities such as the stress components, which live at tet
centroids while marching tetrahedra needs node values).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# The four faces of a tet (local vertex indices), wound outward for a
# positively-oriented tet.
_TET_FACES = np.array(
    [
        [0, 2, 1],
        [0, 1, 3],
        [0, 3, 2],
        [1, 2, 3],
    ],
    dtype=np.int64,
)


def boundary_faces(tets: np.ndarray) -> np.ndarray:
    """Extract the boundary triangles of a tet mesh.

    A face is boundary iff it appears in exactly one tet. Returns an
    (n_faces, 3) int array of node indices with original winding.
    """
    tets = np.asarray(tets)
    faces = tets[:, _TET_FACES.ravel()].reshape(-1, 3)
    sorted_faces = np.sort(faces, axis=1)
    _unique, inverse, counts = np.unique(
        sorted_faces, axis=0, return_inverse=True, return_counts=True
    )
    boundary_mask = counts[inverse] == 1
    return faces[boundary_mask]


def triangle_normals(vertices: np.ndarray) -> np.ndarray:
    """Unit normals for (n, 3, 3) triangle vertex arrays."""
    vertices = np.asarray(vertices, dtype=np.float64)
    edge1 = vertices[:, 1] - vertices[:, 0]
    edge2 = vertices[:, 2] - vertices[:, 0]
    normals = np.cross(edge1, edge2)
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    lengths[lengths == 0] = 1.0
    return normals / lengths


def node_tet_counts(n_nodes: int, tets: np.ndarray) -> np.ndarray:
    """Per-node incidence degree: how many tets touch each node.

    A pure function of connectivity — the per-block mesh adjacency the
    derived-data cache memoizes separately, since the same counts divide
    every element-to-node scatter regardless of which field is averaged.
    Returns float64 so it can be used directly as a divisor.
    """
    tets = np.asarray(tets)
    return np.bincount(
        tets.ravel(), minlength=n_nodes
    ).astype(np.float64)


def element_to_node(n_nodes: int, tets: np.ndarray,
                    elem_values: np.ndarray,
                    counts: Optional[np.ndarray] = None) -> np.ndarray:
    """Average element-based values onto nodes.

    Each node receives the mean of the values of all tets containing it —
    the standard cell-to-point conversion visualization toolkits apply
    before contouring cell data. ``counts`` may supply precomputed
    :func:`node_tet_counts` (possibly a shared read-only cached array —
    this function never mutates it).
    """
    tets = np.asarray(tets)
    elem_values = np.asarray(elem_values, dtype=np.float64)
    if len(elem_values) != len(tets):
        raise ValueError(
            f"{len(elem_values)} element values for {len(tets)} tets"
        )
    sums = np.bincount(
        tets.ravel(),
        weights=np.repeat(elem_values, 4),
        minlength=n_nodes,
    )
    if counts is None:
        counts = node_tet_counts(n_nodes, tets)
    return sums / np.maximum(counts, 1.0)
