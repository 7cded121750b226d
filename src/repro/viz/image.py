"""PPM image files — the output side of the batch pipeline.

Voyager "grinds through a collection of files and makes a series of
images" (section 4.1). Binary PPM (P6) is written from scratch so the
pipeline has a real, portable image output with zero dependencies.
"""

from __future__ import annotations

import os

import numpy as np


def write_ppm(path: str, image: np.ndarray) -> int:
    """Write an (h, w, 3) uint8 array as binary PPM; returns bytes written."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("PPM image must have shape (h, w, 3)")
    if image.dtype != np.uint8:
        raise ValueError("PPM image must be uint8")
    height, width, _ = image.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    payload = image.tobytes()
    with open(os.fspath(path), "wb") as f:
        f.write(header)
        f.write(payload)
    return len(header) + len(payload)
