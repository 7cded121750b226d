"""Cutting planes through tetrahedral meshes.

The evaluation's "complex" test uses "requested surfaces, slices, and
cutting planes" (section 4.2). A plane cut is the isosurface of the signed
distance to the plane, with the field of interest carried onto the cut:
:func:`plane_cut` is the :class:`~repro.viz.isosurface.TetCut` (mesh and
plane only) and :func:`slice_mesh` carries a field onto it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.viz.isosurface import TetCut, TriangleSoup, tet_cut


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


def plane_cut(
    nodes: np.ndarray,
    tets: np.ndarray,
    origin: Sequence[float],
    normal: Sequence[float],
    tet_block: Optional[np.ndarray] = None,
) -> TetCut:
    """Where the plane (origin, normal) cuts the mesh; no field yet.

    A function of the mesh and the plane alone — what the pipeline
    memoizes across time-steps. ``tet_block`` marks a merged
    multi-block mesh, as for :func:`~repro.viz.isosurface.tet_cut`.
    """
    distances = plane_signed_distance(nodes, origin, normal)
    return tet_cut(nodes, tets, distances, 0.0, tet_block=tet_block)


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
    return plane_cut(nodes, tets, origin, normal,
                     tet_block=tet_block).carry(field_values)
