"""Titan IV solid-propellant geometry: the evaluation mesh generator.

The paper's snapshots "store intermediate states of the solid propellant
in a NASA Titan IV rocket body … partitioned into 120 blocks" (section
4.2). A solid rocket motor's propellant is an annular grain, commonly with
a star-shaped central bore. We model exactly that: an annulus of length
``length`` between a star-perturbed inner bore and the casing radius,
decomposed into ``n_axial x n_circum`` blocks, each meshed independently
as a structured patch split into tetrahedra — which naturally duplicates
the shared interface nodes between neighbouring blocks, like the paper's
dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.gen.partition import MeshBlock, block_id_string
from repro.gen.tetmesh import structured_tet_block


@dataclass(frozen=True)
class TitanConfig:
    """Mesh-generation parameters.

    The full-scale defaults (``scale=1.0``) give 120 blocks with ~5.7 k
    tets each — matching the paper's 120 blocks / 679 008 elements within
    a few percent. Benchmarks and tests use smaller scales.
    """

    n_axial: int = 20
    n_circum: int = 6
    cells_r: int = 3
    cells_theta: int = 7
    cells_z: int = 45
    r_bore: float = 0.5
    r_outer: float = 1.5
    length: float = 10.0
    star_points: int = 6
    star_depth: float = 0.15

    @classmethod
    def scaled(cls, scale: float) -> "TitanConfig":
        """A proportionally smaller (or larger) mesh; block count fixed at
        the paper's 120 until ``scale`` drops below what supports it, then
        block counts shrink too."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        base = cls()
        n_axial = max(1, round(base.n_axial * min(1.0, scale * 2)))
        n_circum = max(1, round(base.n_circum * min(1.0, scale * 2)))
        # cells_theta >= 2: a single angular cell spanning a wide sector
        # collapses to a planar (zero-volume) patch once mapped.
        return cls(
            n_axial=n_axial,
            n_circum=n_circum,
            cells_r=max(1, round(base.cells_r * scale)),
            cells_theta=max(2, round(base.cells_theta * scale)),
            cells_z=max(2, round(base.cells_z * scale)),
        )

    @property
    def n_blocks(self) -> int:
        return self.n_axial * self.n_circum

    @property
    def tets_per_block(self) -> int:
        return 6 * self.cells_r * self.cells_theta * self.cells_z

    @property
    def nodes_per_block(self) -> int:
        return (
            (self.cells_r + 1)
            * (self.cells_theta + 1)
            * (self.cells_z + 1)
        )

    def inner_radius(self, theta: np.ndarray) -> np.ndarray:
        """Star-perforated bore radius as a function of angle."""
        return self.r_bore * (
            1.0 + self.star_depth * np.cos(self.star_points * theta)
        )


def _block_mapping(config: TitanConfig, axial: int, circum: int):
    """Parametric-to-physical map for block (axial, circum).

    Parametric u -> theta within the block's angular sector, v -> radius
    between the (theta-dependent) bore and the casing, w -> axial span.
    """
    dtheta = 2.0 * math.pi / config.n_circum
    theta0 = circum * dtheta
    dz = config.length / config.n_axial
    z0 = axial * dz

    def mapping(params: np.ndarray) -> np.ndarray:
        u, v, w = params[:, 0], params[:, 1], params[:, 2]
        theta = theta0 + u * dtheta
        r_in = config.inner_radius(theta)
        r = r_in + v * (config.r_outer - r_in)
        out = np.empty_like(params)
        out[:, 0] = r * np.cos(theta)
        out[:, 1] = r * np.sin(theta)
        out[:, 2] = z0 + w * dz
        return out

    return mapping


def titan_block(config: TitanConfig, index: int) -> MeshBlock:
    """Generate block ``index`` (0 .. n_blocks-1) of the grain mesh."""
    if not 0 <= index < config.n_blocks:
        raise ValueError(
            f"block index {index} out of range 0..{config.n_blocks - 1}"
        )
    axial, circum = divmod(index, config.n_circum)
    mesh = structured_tet_block(
        config.cells_theta, config.cells_r, config.cells_z,
        mapping=_block_mapping(config, axial, circum),
    )
    # Per-block generation has no global numbering; synthesize stable
    # global IDs from the block index so duplication analysis still works.
    offset_n = index * mesh.n_nodes
    offset_t = index * mesh.n_tets
    return MeshBlock(
        block_id=block_id_string(index),
        mesh=mesh,
        global_node_ids=np.arange(
            offset_n, offset_n + mesh.n_nodes, dtype=np.int64
        ),
        global_tet_ids=np.arange(
            offset_t, offset_t + mesh.n_tets, dtype=np.int64
        ),
    )


def titan_blocks(config: TitanConfig) -> Iterator[MeshBlock]:
    """Generate every block of the configured grain mesh, in ID order."""
    for index in range(config.n_blocks):
        yield titan_block(config, index)
