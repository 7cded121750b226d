"""CDF — a netCDF-classic-like scientific format (header first).

GODIVA "places no restrictions regarding dataset properties or file
format … developers can switch to another input file format just by
supplying a different read function" (section 5). To exercise that claim
end-to-end the repository ships a *second* scientific format alongside
SDF: where SDF mimics HDF4's directory-at-the-tail layout, CDF mimics
netCDF classic — the complete header (every variable's metadata) sits at
the front of the file, followed by the data section in declaration
order. A reader therefore performs one sequential metadata read and
then forward-only data reads, giving CDF slightly better access locality
than SDF on the same contents.

The reader intentionally exposes the same surface as
:class:`repro.io.sdf.SdfReader` (``dataset_names``, ``info``, ``read``,
``read_into``, ``attributes``, ``file_attributes``), so the GODIVA read
callbacks are format-generic.
"""

from __future__ import annotations

import os
import struct
from typing import Dict, List, Optional

import numpy as np

from repro.errors import StorageFormatError
from repro.io.disk import NULL_DISK, CostedFile, DiskProfile, IoStats
from repro.io.sdf import (
    AttrValue, DatasetInfo, WritableBuffer, _check_shape, _dataset_dtype,
    _dataset_info, _decode_attrs, _encode_attrs, writable_target,
)

_MAGIC = b"CDF1"
_HEADER = struct.Struct("<4sIIQ")        # magic, version, n_vars, hdr len
_VAR_FIXED = struct.Struct("<64s8sI4QQQI")  # name, dtype, rank, dims,
#                                          data offset, nbytes, attr len
_MAX_RANK = 4
_MAX_NAME = 64
_VERSION = 1


class CdfWriter:
    """CDF writer with the same convenience surface as ``SdfWriter``.

    netCDF's define/data mode split is handled internally: datasets are
    buffered as added and the whole file (header first, then data) is
    laid out at :meth:`close`.
    """

    def __init__(self, path: str):
        self._path = os.fspath(path)
        self._datasets: List[tuple] = []
        self._names: set = set()
        self._file_attrs: Dict[str, AttrValue] = {}
        self._closed = False

    def set_attribute(self, name: str, value: AttrValue) -> None:
        """Set a file-level attribute (written at :meth:`close`)."""
        self._file_attrs[name] = value

    def add_dataset(self, name: str, array: np.ndarray,
                    attrs: Optional[Dict[str, AttrValue]] = None
                    ) -> None:
        """Buffer one dataset (little-endian, at most ``_MAX_RANK``
        dimensions) and its attributes; laid out at :meth:`close`.
        :class:`StorageFormatError` for a closed writer, a name too long
        or already used, or a rank or dtype the format cannot hold."""
        if self._closed:
            raise StorageFormatError("writer is closed")
        name_b = name.encode("utf-8")
        if len(name_b) > _MAX_NAME:
            raise StorageFormatError(
                f"dataset name exceeds {_MAX_NAME} bytes: {name!r}"
            )
        if name in self._names:
            raise StorageFormatError(f"duplicate dataset name: {name!r}")
        array = np.asarray(array)
        if array.ndim > _MAX_RANK:
            raise StorageFormatError(
                f"dataset rank {array.ndim} exceeds {_MAX_RANK}"
            )
        dtype = array.dtype.newbyteorder("<")
        dtype_b = dtype.str.encode("ascii")
        if len(dtype_b) > 8:
            raise StorageFormatError(f"dtype too complex: {dtype}")
        data = np.ascontiguousarray(array, dtype=dtype).tobytes()
        self._datasets.append(
            (name_b, dtype_b, array.shape, data,
             _encode_attrs(attrs or {}))
        )
        self._names.add(name)

    def close(self) -> None:
        """Lay out and write the whole file — header, then every
        dataset's data — once; idempotent."""
        if self._closed:
            return
        self._closed = True
        # Pass 1: header size (fixed part + variable attr blobs).
        fattr_blob = _encode_attrs(self._file_attrs)
        header_len = _HEADER.size + 4 + len(fattr_blob)
        for _name, _dtype, _shape, _data, attr_blob in self._datasets:
            header_len += _VAR_FIXED.size + len(attr_blob)
        # Pass 2: assign data offsets after the header.
        offset = header_len
        entries = []
        for name_b, dtype_b, shape, data, attr_blob in self._datasets:
            dims = list(shape) + [0] * (_MAX_RANK - len(shape))
            entries.append(
                _VAR_FIXED.pack(
                    name_b.ljust(_MAX_NAME, b"\x00"),
                    dtype_b.ljust(8, b"\x00"),
                    len(shape),
                    *dims,
                    offset,
                    len(data),
                    len(attr_blob),
                ) + attr_blob
            )
            offset += len(data)
        with open(self._path, "wb") as f:
            f.write(_HEADER.pack(
                _MAGIC, _VERSION, len(self._datasets), header_len
            ))
            f.write(struct.pack("<I", len(fattr_blob)))
            f.write(fattr_blob)
            for entry in entries:
                f.write(entry)
            for _name, _dtype, _shape, data, _attrs in self._datasets:
                f.write(data)

    def __enter__(self) -> "CdfWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CdfReader:
    """Header-first reader; drop-in surface match for ``SdfReader``."""

    def __init__(self, path: str, stats: Optional[IoStats] = None,
                 profile: DiskProfile = NULL_DISK):
        self._file = CostedFile(path, stats=stats, profile=profile)
        self._infos: Dict[str, DatasetInfo] = {}
        self._attrs: Dict[str, Dict[str, AttrValue]] = {}
        self._order: List[str] = []
        self._fattrs: Dict[str, AttrValue] = {}
        try:
            self._parse_header()
        except Exception:
            self._file.close()
            raise

    def _bad(self, message: str) -> StorageFormatError:
        return StorageFormatError(f"{self._file.path}: {message}")

    def _parse_header(self) -> None:
        fixed = self._file.read(_HEADER.size)
        if len(fixed) != _HEADER.size:
            raise StorageFormatError("file too small for CDF header")
        magic, version, n_vars, header_len = _HEADER.unpack(fixed)
        if magic != _MAGIC:
            raise StorageFormatError(
                f"bad magic {magic!r}; not a CDF file"
            )
        if version != _VERSION:
            raise StorageFormatError(f"unsupported CDF version {version}")
        # The one fstat of an open, made before the header read is
        # sized: a header length past the end is refused, not allocated.
        size = self._file.size()
        if not _HEADER.size + 4 <= header_len <= size:
            raise self._bad(
                f"truncated CDF header: {header_len} bytes claimed, "
                f"{size}-byte file")
        # One sequential read covers the whole header — the locality
        # advantage of the header-first layout.
        rest = self._file.read(header_len - _HEADER.size)
        if len(rest) != header_len - _HEADER.size:
            raise StorageFormatError("truncated CDF header")
        (fattr_len,) = struct.unpack_from("<I", rest, 0)
        cursor = 4
        self._fattrs = _decode_attrs(rest[cursor:cursor + fattr_len],
                                     self._file.path)
        cursor += fattr_len
        dtypes: Dict[bytes, np.dtype] = {}
        for _ in range(n_vars):
            if cursor + _VAR_FIXED.size > len(rest):
                raise StorageFormatError("truncated CDF variable entry")
            (
                name_b, dtype_b, rank, d0, d1, d2, d3,
                data_offset, data_nbytes, attr_len,
            ) = _VAR_FIXED.unpack_from(rest, cursor)
            cursor += _VAR_FIXED.size
            if cursor + attr_len > len(rest):
                raise self._bad("an attribute block runs past the header")
            attrs = _decode_attrs(rest[cursor:cursor + attr_len],
                                  self._file.path)
            cursor += attr_len
            try:
                name = name_b.rstrip(b"\x00").decode("utf-8")
                dtype = dtypes.get(dtype_b)
                if dtype is None:
                    dtype = dtypes[dtype_b] = _dataset_dtype(dtype_b)
                shape = (d0, d1, d2, d3)[:rank]
                _check_shape(name, rank, shape, dtype, data_nbytes)
            except UnicodeDecodeError as exc:
                raise self._bad(f"a dataset name is not UTF-8 ({exc})"
                                ) from None
            except StorageFormatError as exc:
                raise self._bad(str(exc)) from None
            if data_offset + data_nbytes > size:
                raise self._bad(
                    f"dataset {name!r} ends at byte "
                    f"{data_offset + data_nbytes}, past the end of the "
                    f"{size}-byte file")
            self._infos[name] = _dataset_info((
                name, dtype, shape, data_offset, data_nbytes, 0, attr_len))
            self._attrs[name] = attrs
            self._order.append(name)

    @property
    def dataset_names(self) -> List[str]:
        """Dataset names in file order."""
        return list(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._infos

    def info(self, name: str) -> DatasetInfo:
        """Header metadata of dataset ``name`` (no data touched)."""
        try:
            return self._infos[name]
        except KeyError:
            raise StorageFormatError(
                f"no dataset {name!r} in {self._file.path}"
            ) from None

    def attributes(self, name: str) -> Dict[str, AttrValue]:
        """Per-dataset attributes, from the header read at open."""
        self.info(name)
        # Attributes came with the header read: no extra I/O (unlike
        # SDF, whose per-dataset attribute blocks need a seek each).
        return dict(self._attrs[name])

    def file_attributes(self) -> Dict[str, AttrValue]:
        """The file-level attributes, from the header read at open."""
        return dict(self._fattrs)

    def read(self, name: str) -> np.ndarray:
        """Read one dataset's data (one seek + transfer)."""
        info = self.info(name)
        data = self._file.read_at(info.data_offset, info.data_nbytes)
        if len(data) != info.data_nbytes:
            raise StorageFormatError(f"truncated data for {name!r}")
        return np.frombuffer(data, dtype=info.dtype).reshape(info.shape)

    def read_into(self, name: str, out: WritableBuffer) -> None:
        """``SdfReader.read_into``'s contract and charging: one seek +
        ``readinto`` into a writable C-contiguous ``out`` of exactly
        ``data_nbytes`` bytes (else ``ValueError``, before any read)."""
        try:
            info = self._infos[name]
        except KeyError:
            info = self.info(name)      # raises the missing-dataset error
        nbytes = info.data_nbytes
        if self._file.readinto_at(
                info.data_offset,
                writable_target(out, nbytes, name)) != nbytes:
            raise StorageFormatError(f"truncated data for {name!r}")

    def close(self) -> None:
        """Close the file; idempotent."""
        self._file.close()

    def __enter__(self) -> "CdfReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
