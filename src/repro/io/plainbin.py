"""Plain binary single-array files.

The paper contrasts scientific data libraries (HDF, netCDF, FITS), which
"have at visualization time a higher input cost than do plain binary
files" (section 1). This trivially sequential one-array format is the
plain-binary comparison point: a 48-byte header then the raw data, read in
a single sequential pass with no directory seeks.
"""

from __future__ import annotations

import os
import struct
from typing import Optional, Tuple

import numpy as np

from repro.errors import StorageFormatError
from repro.io.disk import NULL_DISK, CostedFile, DiskProfile, IoStats

_MAGIC = b"PBIN"
_HEADER = struct.Struct("<4s8sI4Q")  # magic, dtype, rank, dims -> 48 bytes
_MAX_RANK = 4


def write_plain_array(path: str, array: np.ndarray) -> int:
    """Write one array; returns total bytes written."""
    array = np.asarray(array)
    if array.ndim > _MAX_RANK:
        raise StorageFormatError(f"rank {array.ndim} exceeds {_MAX_RANK}")
    dtype = array.dtype.newbyteorder("<")
    dtype_b = dtype.str.encode("ascii")
    if len(dtype_b) > 8:
        raise StorageFormatError(f"dtype too complex: {dtype}")
    dims = list(array.shape) + [0] * (_MAX_RANK - array.ndim)
    data = np.ascontiguousarray(array, dtype=dtype).tobytes()
    with open(os.fspath(path), "wb") as f:
        f.write(_HEADER.pack(_MAGIC, dtype_b.ljust(8, b"\x00"),
                             array.ndim, *dims))
        f.write(data)
    return _HEADER.size + len(data)


def read_plain_array(path: str, stats: Optional[IoStats] = None,
                     profile: DiskProfile = NULL_DISK) -> np.ndarray:
    """Read the array back in one sequential pass."""
    with CostedFile(path, stats=stats, profile=profile) as f:
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise StorageFormatError("file too small for PBIN header")
        magic, dtype_b, rank, d0, d1, d2, d3 = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise StorageFormatError(f"bad magic {magic!r}")
        shape: Tuple[int, ...] = tuple(
            int(d) for d in (d0, d1, d2, d3)[:rank]
        )
        dtype = np.dtype(dtype_b.rstrip(b"\x00").decode("ascii"))
        nbytes = dtype.itemsize
        for dim in shape:
            nbytes *= dim
        data = f.read(nbytes)
        if len(data) != nbytes:
            raise StorageFormatError("truncated PBIN data")
        return np.frombuffer(data, dtype=dtype).reshape(shape)
