"""Synthetic scientific-dataset generator (the paper's GENx substitute).

The evaluation datasets are snapshots of the solid propellant in a NASA
Titan IV rocket body produced by CSAR's GENx simulation: an unstructured
tetrahedral mesh partitioned into 120 blocks (with boundary duplication),
node- and element-based quantities (average stress, six stress-tensor
components, displacement/velocity/acceleration vectors, restart extras),
eight HDF4 files per time-step snapshot, 32 snapshots processed
(section 4.2).

This package synthesizes structurally identical data at configurable
scale: per-block structured-to-tet meshes over an annular propellant
grain with a star-shaped bore, analytic time-dependent fields, and a
snapshot writer that emits the same 8-SDF-files-per-step layout.
"""

from repro.gen.partition import MeshBlock
from repro.gen.quantities import (
    ELEMENT_FIELDS,
    NODE_FIELDS,
    element_fields,
    node_fields,
)
from repro.gen.snapshot import (
    DatasetManifest,
    SnapshotSpec,
    generate_dataset,
    load_manifest,
    timestep_id,
)
from repro.gen.structured_fluid import make_fluid_block_record, fluid_block_arrays
from repro.gen.tetmesh import TetMesh, structured_tet_block
from repro.gen.titan import TitanConfig, titan_blocks

__all__ = [
    "TetMesh",
    "structured_tet_block",
    "MeshBlock",
    "NODE_FIELDS",
    "ELEMENT_FIELDS",
    "node_fields",
    "element_fields",
    "TitanConfig",
    "titan_blocks",
    "SnapshotSpec",
    "DatasetManifest",
    "generate_dataset",
    "load_manifest",
    "timestep_id",
    "make_fluid_block_record",
    "fluid_block_arrays",
]
