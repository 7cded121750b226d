"""Cutting planes through tetrahedral meshes.

The evaluation's "complex" test uses "requested surfaces, slices, and
cutting planes" (section 4.2). A plane cut is the isosurface of the signed
distance to the plane, with the field of interest carried onto the cut —
which is exactly what :func:`repro.viz.isosurface.marching_tets` supports.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.viz.isosurface import TriangleSoup, marching_tets


def plane_signed_distance(nodes: np.ndarray, origin: Sequence[float],
                          normal: Sequence[float]) -> np.ndarray:
    """Signed distance from each node to the plane (origin, normal)."""
    nodes = np.asarray(nodes, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    norm = np.linalg.norm(normal)
    if norm == 0:
        raise ValueError("plane normal must be non-zero")
    return (nodes - origin) @ (normal / norm)


def slice_mesh(
    nodes: np.ndarray,
    tets: np.ndarray,
    field_values: np.ndarray,
    origin: Sequence[float],
    normal: Sequence[float],
    tet_block: Optional[np.ndarray] = None,
) -> TriangleSoup:
    """Cut the mesh with a plane, painting ``field_values`` on the cut.

    ``field_values`` is per-node (convert element data first with
    :func:`repro.viz.geometry.element_to_node`). ``tet_block`` marks a
    merged multi-block mesh, as for
    :func:`~repro.viz.isosurface.marching_tets`.
    """
    distances = plane_signed_distance(nodes, origin, normal)
    return marching_tets(
        nodes, tets, distances, 0.0, carry_values=field_values,
        tet_block=tet_block,
    )
