"""Extraction's spec, kept as a test oracle.

:func:`reference_extract` is the per-(op, block) loop
:class:`~repro.viz.pipeline.Pipeline` ran before extraction was batched
to one kernel pass per op over the snapshot's merged mesh — moved here
verbatim (minus the derived-cache plumbing, which never changed a
byte). It is slow and obviously right: every block is scalarized,
scattered, skinned, contoured or cut on its own arrays, and the
per-block soups are concatenated in ``block_ids()`` order. Every
schedule of the real pipeline (no cache, derived cache, thread pool,
process pool, any split into tet ranges) must reproduce its
``vertices`` and ``values`` byte for byte. It contours and cuts with
``tests/reference_kernel.py``, not with ``src``, so a change to the
kernel cannot move the oracle with it.
"""

from reference_kernel import reference_marching_tets, reference_slice_mesh

from repro.viz.geometry import (
    boundary_faces,
    element_to_node,
    node_tet_counts,
)
from repro.viz.isosurface import TriangleSoup
from repro.viz.pipeline import is_element_field, scalarize


def reference_extract(data, op) -> TriangleSoup:
    """Run one op over every block; returns the merged soup."""
    data.begin_op(op)
    return TriangleSoup.concatenate([
        _derive(data, block_id, op)
        for block_id in data.block_ids()
    ])


def _derive(data, block_id, op) -> TriangleSoup:
    """One op over one block -> triangle soup with color scalars."""
    nodes = data.coords(block_id)
    tets = data.connectivity(block_id)
    raw = data.field(block_id, op.field)

    scalars = scalarize(raw, op.component)
    if is_element_field(op.field):
        counts = node_tet_counts(len(nodes), tets)
        node_scalars = element_to_node(
            len(nodes), tets, scalars, counts=counts
        )
    else:
        node_scalars = scalars

    if op.kind == "boundary":
        faces = boundary_faces(tets)
        if not len(faces):
            return TriangleSoup.empty()
        return TriangleSoup(nodes[faces], node_scalars[faces])
    if op.kind == "isosurface":
        return reference_marching_tets(nodes, tets, node_scalars,
                                       op.isovalue)
    if op.kind == "slice":
        return reference_slice_mesh(
            nodes, tets, node_scalars, op.origin, op.normal
        )
    raise AssertionError(f"unreachable op kind {op.kind!r}")
