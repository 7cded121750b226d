"""Test-side readers and measures for rendered output.

The library writes frames (:func:`repro.viz.image.write_ppm`) but never
reads them back, and never needs a triangle's area; the tests do both,
to compare frames byte for byte and to check extracted surfaces against
analytic areas.
"""

import os

import numpy as np

from repro.errors import StorageFormatError


def _read_token(f) -> bytes:
    """Read one whitespace-delimited header token, skipping comments."""
    token = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise StorageFormatError("unexpected EOF in PNM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM (P6) back into an (h, w, 3) uint8 array."""
    with open(os.fspath(path), "rb") as f:
        if _read_token(f) != b"P6":
            raise StorageFormatError("not a binary PPM (P6) file")
        width = int(_read_token(f))
        height = int(_read_token(f))
        maxval = int(_read_token(f))
        if maxval != 255:
            raise StorageFormatError(f"unsupported maxval {maxval}")
        data = f.read(width * height * 3)
        if len(data) != width * height * 3:
            raise StorageFormatError("truncated PPM payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)


def triangle_areas(vertices: np.ndarray) -> np.ndarray:
    """Areas for (n, 3, 3) triangle vertex arrays."""
    vertices = np.asarray(vertices, dtype=np.float64)
    edge1 = vertices[:, 1] - vertices[:, 0]
    edge2 = vertices[:, 2] - vertices[:, 0]
    return 0.5 * np.linalg.norm(np.cross(edge1, edge2), axis=1)
