"""The boundary-skin spec, kept as a test oracle.

:func:`reference_boundary_faces` is the original ``np.unique(axis=0)``
spelling of :func:`repro.viz.geometry.boundary_faces`, moved here when
the one-row-sort version replaced it in ``src/``. It is slow and
obviously right: a face is boundary iff its sorted node ids occur
exactly once. The real function must reproduce its output byte for
byte — same rows, same order, same winding, same dtype.
"""

import numpy as np

from repro.viz.geometry import _TET_FACES


def reference_boundary_faces(tets: np.ndarray) -> np.ndarray:
    tets = np.asarray(tets)
    faces = tets[:, _TET_FACES.ravel()].reshape(-1, 3)
    sorted_faces = np.sort(faces, axis=1)
    _unique, inverse, counts = np.unique(
        sorted_faces, axis=0, return_inverse=True, return_counts=True
    )
    boundary_mask = counts[inverse.reshape(-1)] == 1
    return faces[boundary_mask]
