"""Mesh blocks: the unit a partitioned mesh is stored and read in.

The GENx mesh is "partitioned into 120 blocks (with a small amount of
duplication of the boundary data)" (section 4.2). A
:class:`MeshBlock` is one such block: a local
:class:`~repro.gen.tetmesh.TetMesh` plus the maps back to global node and
element indices. :mod:`repro.gen.titan` builds the blocks directly, each
carrying its own copy of the interface nodes it shares with its
neighbours, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.gen.tetmesh import TetMesh


@dataclass
class MeshBlock:
    """One partition block.

    ``block_id``: the textual ID used as a GODIVA key (``block_0007``).
    ``mesh``: local mesh with locally-renumbered connectivity.
    ``global_node_ids``: map local node index -> global node index.
    ``global_tet_ids``: map local tet index -> global tet index.
    """

    block_id: str
    mesh: TetMesh
    global_node_ids: np.ndarray
    global_tet_ids: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_tets(self) -> int:
        return self.mesh.n_tets


def block_id_string(index: int) -> str:
    """The canonical 10-character block ID, e.g. ``block_0007``."""
    return f"block_{index:04d}"
