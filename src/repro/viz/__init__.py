"""Visualization substrate: the Rocketeer/Voyager replacement.

The paper evaluates GODIVA inside Rocketeer, CSAR's VTK-based
visualization suite, via its batch tool Voyager (section 4.1). This
package implements the pipeline pieces Voyager needs, from scratch:

* :mod:`repro.viz.camera` — look-at camera + "camera position file";
* :mod:`repro.viz.colormap` — scalar-to-RGB colormaps;
* :mod:`repro.viz.geometry` — boundary faces, normals, elem->node
  averaging;
* :mod:`repro.viz.isosurface` — marching tetrahedra;
* :mod:`repro.viz.slice_plane` — cutting planes through tet meshes;
* :mod:`repro.viz.render` — a z-buffered software rasterizer;
* :mod:`repro.viz.image` — PPM image files;
* :mod:`repro.viz.gops` — "graphics operations file" (the paper's term)
  describing what to draw, with the three evaluation op-sets
  simple/medium/complex;
* :mod:`repro.viz.pipeline` — executes a gops list over snapshot data;
* :mod:`repro.viz.voyager` — the batch tool in its three builds
  O / G / TG;
* :mod:`repro.viz.apollo` — the interactive-mode session model.
"""

from repro.viz.apollo import ApolloSession, interactive_trace
from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.gops import GraphicsOp, GraphicsOps, test_gops
from repro.viz.houston import HoustonCluster, HoustonConfig
from repro.viz.image import write_ppm
from repro.viz.isosurface import TetCut, TriangleSoup, marching_tets
from repro.viz.pipeline import Pipeline, SnapshotData
from repro.viz.render import Renderer
from repro.viz.slice_plane import plane_cut, slice_mesh

__all__ = [
    "Camera",
    "Colormap",
    "GraphicsOp",
    "GraphicsOps",
    "test_gops",
    "write_ppm",
    "TriangleSoup",
    "TetCut",
    "marching_tets",
    "plane_cut",
    "slice_mesh",
    "Renderer",
    "Pipeline",
    "SnapshotData",
    "Voyager",
    "VoyagerConfig",
    "VoyagerResult",
    "ApolloSession",
    "interactive_trace",
    "HoustonCluster",
    "HoustonConfig",
]

#: Names served from :mod:`repro.viz.voyager` on first use, so importing
#: the package does not load the batch tool's module and
#: ``python -m repro.viz.voyager`` runs it fresh.
_VOYAGER_NAMES = ("Voyager", "VoyagerConfig", "VoyagerResult")


def __getattr__(name: str) -> object:
    if name in _VOYAGER_NAMES:
        from repro.viz import voyager

        return getattr(voyager, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
