"""SDF — a from-scratch, HDF4-like scientific data format.

The paper's datasets are HDF4 files; HDF is unavailable offline, so SDF
reproduces the *structural properties that matter to the experiments*:

* named n-dimensional array datasets with per-dataset attributes;
* a central directory of fixed-size descriptor entries (like HDF4's DD
  blocks) written at the *end* of the file, so a reader must first seek to
  the directory, then seek per dataset — giving scientific-format files a
  genuinely higher input cost than a single sequential plain-binary read
  (the overhead the paper observes in section 4.1);
* full portability: explicit little-endian layout, no pickling.

Layout::

    header   (32 B):  magic 'SDF1' | version u32 | n_datasets u32 |
                      dir_offset u64 | n_file_attrs u32 | fattr_offset u64
    body:             per dataset: [attribute block][data block]
    file-attr block
    directory:        n_datasets fixed 144-byte entries
"""

from __future__ import annotations

import os
import struct
from functools import lru_cache, partial
from math import prod
from operator import add
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import StorageFormatError
from repro.io.disk import NULL_DISK, CostedFile, DiskProfile, IoStats

_MAGIC = b"SDF1"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQIQ")          # 32 bytes
_ENTRY = struct.Struct("<64s8sI4QQQIQQ")     # 64+8+4+32+8+8+4+8+8 = 144 B
_MAX_RANK = 4
_MAX_NAME = 64
#: The same 144 bytes as ``_ENTRY``, as columns, so the reader parses the
#: whole directory with one ``np.frombuffer``.
_ENTRY_DTYPE = np.dtype([
    ("name", "S64"), ("dtype", "S8"), ("rank", "<u4"),
    ("dims", "<u8", (_MAX_RANK,)), ("data_offset", "<u8"),
    ("data_nbytes", "<u8"), ("n_attrs", "<u4"), ("attr_offset", "<u8"),
    ("attr_nbytes", "<u8"),
])
assert _ENTRY_DTYPE.itemsize == _ENTRY.size == 144

AttrValue = Union[bytes, str, int, float]
#: What ``read_into`` can fill: anything exporting a writable buffer.
WritableBuffer = Union[np.ndarray, bytearray, memoryview]

# Attribute type codes.
_ATTR_BYTES = 0
_ATTR_STR = 1
_ATTR_INT = 2
_ATTR_FLOAT = 3


def _encode_attrs(attrs: Dict[str, AttrValue]) -> bytes:
    parts: List[bytes] = [struct.pack("<I", len(attrs))]
    for name, value in attrs.items():
        name_b = name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise StorageFormatError(f"attribute name too long: {name!r}")
        if isinstance(value, bytes):
            code, payload = _ATTR_BYTES, value
        elif isinstance(value, str):
            code, payload = _ATTR_STR, value.encode("utf-8")
        elif isinstance(value, bool):
            raise StorageFormatError("bool attributes are not supported")
        elif isinstance(value, (int, np.integer)):
            code, payload = _ATTR_INT, struct.pack("<q", int(value))
        elif isinstance(value, (float, np.floating)):
            code, payload = _ATTR_FLOAT, struct.pack("<d", float(value))
        else:
            raise StorageFormatError(
                f"unsupported attribute type for {name!r}: {type(value)}"
            )
        parts.append(struct.pack("<HB I", len(name_b), code, len(payload)))
        parts.append(name_b)
        parts.append(payload)
    return b"".join(parts)


def _decode_attrs(blob: bytes, path: str) -> Dict[str, AttrValue]:
    """An attribute block's name -> value map. Any block that does not
    decode — truncated, a name or string that is not UTF-8, a number
    that is not 8 bytes, an unknown type code — raises
    :class:`StorageFormatError` naming ``path``."""
    def bad(message: str) -> StorageFormatError:
        return StorageFormatError(f"{path}: {message}")

    def text(raw: bytes) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise bad(f"an attribute name or string is not UTF-8 ({exc})"
                      ) from None

    if len(blob) < 4:
        raise bad("truncated attribute block")
    (count,) = struct.unpack_from("<I", blob, 0)
    offset = 4
    attrs: Dict[str, AttrValue] = {}
    head = struct.Struct("<HB I")
    for _ in range(count):
        if offset + head.size > len(blob):
            raise bad("truncated attribute entry")
        name_len, code, payload_len = head.unpack_from(blob, offset)
        offset += head.size
        name_b = blob[offset:offset + name_len]
        offset += name_len
        payload = blob[offset:offset + payload_len]
        if len(name_b) != name_len or len(payload) != payload_len:
            raise bad("truncated attribute payload")
        offset += payload_len
        if code in (_ATTR_INT, _ATTR_FLOAT) and payload_len != 8:
            raise bad(f"a number attribute holds {payload_len} bytes, "
                      f"not 8")
        name = text(name_b)
        if code == _ATTR_BYTES:
            attrs[name] = payload
        elif code == _ATTR_STR:
            attrs[name] = text(payload)
        elif code == _ATTR_INT:
            attrs[name] = struct.unpack("<q", payload)[0]
        elif code == _ATTR_FLOAT:
            attrs[name] = struct.unpack("<d", payload)[0]
        else:
            raise bad(f"unknown attribute type code {code}")
    return attrs


class DatasetInfo(NamedTuple):
    """Directory metadata for one dataset (no data touched).

    An immutable named tuple: a reader builds one per directory entry
    at open, so the type is the cheapest immutable record Python has.
    """

    name: str
    dtype: np.dtype
    shape: Tuple[int, ...]
    data_offset: int
    data_nbytes: int
    attr_offset: int
    attr_nbytes: int

    @property
    def size(self) -> int:
        """Element count: the product of :attr:`shape`."""
        n = 1
        for dim in self.shape:
            n *= dim
        return n


#: ``DatasetInfo`` from one row tuple, without a Python-level frame.
_dataset_info = partial(tuple.__new__, DatasetInfo)

#: How many distinct directories the parse memo keeps. A snapshot
#: series repeats one directory per file index (the e2e datasets have 8),
#: so a small constant covers it; each entry is ~80 KB at 210 datasets.
DIRECTORY_MEMO_SIZE = 16


def _dataset_dtype(code: bytes) -> np.dtype:
    """The dtype a directory entry's code names (trailing NULs dropped);
    :class:`StorageFormatError` for a code that names none, or one that
    would hold Python objects."""
    try:
        dtype = np.dtype(code.rstrip(b"\x00").decode("ascii"))
    except (UnicodeDecodeError, TypeError, ValueError):
        dtype = None
    if dtype is None or dtype.hasobject:
        raise StorageFormatError(f"unknown dtype code {code!r}")
    return dtype


def _check_shape(name: str, rank: int, shape: Tuple[int, ...],
                dtype: np.dtype, nbytes: int) -> None:
    """Refuse an entry whose rank or shape does not describe exactly its
    ``nbytes`` of ``dtype`` items."""
    if rank > _MAX_RANK or prod(shape) * dtype.itemsize != nbytes:
        raise StorageFormatError(
            f"dataset {name!r}: rank {rank} shape {shape} of {dtype} "
            f"does not describe its {nbytes} bytes")


@lru_cache(maxsize=DIRECTORY_MEMO_SIZE)
def _parse_directory(blob: bytes) -> Tuple[Mapping[str, DatasetInfo],
                                           Tuple[str, ...], int]:
    """The datasets a directory of ``_ENTRY``-sized rows describes, as a
    read-only name -> :class:`DatasetInfo` map, the names in file
    order, and the end of the furthest attribute block.

    A pure function of the directory's bytes, memoized on them: files
    that share a layout (every step of a snapshot series) share one
    parse. The key is the bytes themselves, so a file rewritten with
    another layout misses, and nothing needs invalidating. A name that
    does not decode, an unknown dtype code or a shape that does not
    describe its bytes raises :class:`StorageFormatError` (and an
    exception is never memoized).
    """
    # One structured view over the whole directory; every column leaves
    # numpy through tolist(), so DatasetInfo holds Python ints and bytes
    # (S-typed columns drop trailing NULs), and the rows are built
    # column-wise with no Python frame per entry.
    entries = np.frombuffer(blob, dtype=_ENTRY_DTYPE)
    try:
        names = list(map(bytes.decode, entries["name"].tolist()))
    except UnicodeDecodeError as exc:
        raise StorageFormatError(
            f"a dataset name is not UTF-8 ({exc})") from None
    codes = entries["dtype"].tolist()
    dtypes = {code: _dataset_dtype(code) for code in set(codes)}
    ranks = entries["rank"].tolist()
    shapes = list(map(tuple, map(list.__getitem__, entries["dims"].tolist(),
                                 map(slice, ranks))))
    data_nbytes = entries["data_nbytes"].tolist()
    attr_offsets = entries["attr_offset"].tolist()
    attr_nbytes = entries["attr_nbytes"].tolist()
    for name, rank, shape, code, nbytes in zip(names, ranks, shapes, codes,
                                               data_nbytes):
        _check_shape(name, rank, shape, dtypes[code], nbytes)
    infos = dict(zip(names, map(_dataset_info, zip(
        names, map(dtypes.__getitem__, codes), shapes,
        entries["data_offset"].tolist(), data_nbytes, attr_offsets,
        attr_nbytes))))
    return (MappingProxyType(infos), tuple(names),
            max(map(add, attr_offsets, attr_nbytes), default=0))


def writable_target(out: WritableBuffer, nbytes: int,
                    name: str) -> memoryview:
    """``out`` as the buffer a ``read_into`` of ``nbytes`` may fill.

    Shared by both readers so their ``read_into`` contract is one rule:
    writable, C-contiguous, exactly ``nbytes`` long.
    """
    view = memoryview(out)
    if view.readonly or not view.c_contiguous or view.nbytes != nbytes:
        raise ValueError(
            f"read_into target for dataset {name!r} must be a writable "
            f"C-contiguous buffer of {nbytes} bytes (got {view.nbytes}, "
            f"readonly={view.readonly}, contiguous={view.c_contiguous})"
        )
    return view


class SdfWriter:
    """Streaming SDF writer: datasets are written as added; the directory
    and header are finalized on close."""

    def __init__(self, path: str):
        self._path = os.fspath(path)
        self._file = open(self._path, "wb")
        self._file.write(b"\x00" * _HEADER.size)  # header placeholder
        self._entries: List[bytes] = []
        self._names: set = set()
        self._file_attrs: Dict[str, AttrValue] = {}
        self._closed = False

    def set_attribute(self, name: str, value: AttrValue) -> None:
        """Set a file-level attribute (overwrites on duplicate)."""
        self._file_attrs[name] = value

    def add_dataset(self, name: str, array: np.ndarray,
                    attrs: Optional[Dict[str, AttrValue]] = None) -> None:
        """Append a named array with optional per-dataset attributes."""
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
        # Normalize to little-endian contiguous layout for portability.
        dtype = array.dtype.newbyteorder("<")
        data = np.ascontiguousarray(array, dtype=dtype).tobytes()
        dtype_b = dtype.str.encode("ascii")
        if len(dtype_b) > 8:
            raise StorageFormatError(f"dtype too complex: {dtype}")

        attr_blob = _encode_attrs(attrs or {})
        attr_offset = self._file.tell()
        self._file.write(attr_blob)
        data_offset = self._file.tell()
        self._file.write(data)

        dims = list(array.shape) + [0] * (_MAX_RANK - array.ndim)
        self._entries.append(
            _ENTRY.pack(
                name_b.ljust(_MAX_NAME, b"\x00"),
                dtype_b.ljust(8, b"\x00"),
                array.ndim,
                *dims,
                data_offset,
                len(data),
                len(attrs or {}),
                attr_offset,
                len(attr_blob),
            )
        )
        self._names.add(name)

    def close(self) -> None:
        """Write the file attributes, the directory and the header, then
        close the file; idempotent."""
        if self._closed:
            return
        fattr_blob = _encode_attrs(self._file_attrs)
        fattr_offset = self._file.tell()
        self._file.write(fattr_blob)
        dir_offset = self._file.tell()
        for entry in self._entries:
            self._file.write(entry)
        self._file.seek(0)
        self._file.write(
            _HEADER.pack(
                _MAGIC,
                _VERSION,
                len(self._entries),
                dir_offset,
                len(self._file_attrs),
                fattr_offset,
            )
        )
        self._file.close()
        self._closed = True

    def __enter__(self) -> "SdfWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SdfReader:
    """SDF reader with cost-model integration.

    Opening parses the header and directory (one seek to the tail — the
    metadata-first access pattern of directory-based scientific formats).
    :meth:`read` then seeks to each dataset's attribute block and data
    block. Pass ``stats``/``profile`` to meter the traffic.
    """

    def __init__(self, path: str, stats: Optional[IoStats] = None,
                 profile: DiskProfile = NULL_DISK):
        self._file = CostedFile(path, stats=stats, profile=profile)
        try:
            self._read_directory()
        except Exception:
            self._file.close()
            raise

    def _read_directory(self) -> None:
        """Read and check the header, then read the directory and take
        its parse (from the memo when another file had the same bytes).
        Both reads are made, and charged, on every open."""
        header = self._file.read_at(0, _HEADER.size)
        if len(header) != _HEADER.size:
            raise StorageFormatError("file too small for SDF header")
        magic, version, n_datasets, dir_offset, n_fattrs, fattr_offset = (
            _HEADER.unpack(header)
        )
        if magic != _MAGIC:
            raise StorageFormatError(
                f"bad magic {magic!r}; not an SDF file"
            )
        if version != _VERSION:
            raise StorageFormatError(f"unsupported SDF version {version}")
        dir_nbytes = n_datasets * _ENTRY.size
        size = self._file.size()
        if dir_offset + dir_nbytes > size:
            raise StorageFormatError("truncated SDF directory")
        if not _HEADER.size <= fattr_offset <= dir_offset:
            raise StorageFormatError(
                f"{self._file.path}: the file-attribute block at byte "
                f"{fattr_offset} does not lie between the header and the "
                f"directory at byte {dir_offset}")
        self._fattr_offset = fattr_offset
        self._dir_offset = dir_offset
        #: The size at open: a data block is checked against it when
        #: read (:meth:`_data_extent`), with no ``fstat`` per read.
        self._size = size
        blob = self._file.read_at(dir_offset, dir_nbytes)
        if len(blob) != dir_nbytes:
            raise StorageFormatError("truncated SDF directory")
        path = self._file.path
        try:
            #: name -> DatasetInfo, read-only: one parse may serve many
            #: files.
            self._infos, self._order, extent = _parse_directory(blob)
        except StorageFormatError as exc:
            raise StorageFormatError(f"{path}: {exc}") from None
        if extent > size:
            # A data block past the end is refused when it is read
            # (_data_extent): the others stay readable.
            raise StorageFormatError(
                f"{path}: an attribute block ends at byte {extent}, past "
                f"the end of the {size}-byte file")

    # ------------------------------------------------------------------
    @property
    def dataset_names(self) -> List[str]:
        """Dataset names in file order."""
        return list(self._order)

    def info(self, name: str) -> DatasetInfo:
        """Directory metadata of dataset ``name`` (no data touched)."""
        try:
            return self._infos[name]
        except KeyError:
            raise StorageFormatError(
                f"no dataset {name!r} in {self._file.path}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._infos

    def file_attributes(self) -> Dict[str, AttrValue]:
        """The file-level attributes (one seek + read)."""
        # The file-attr block runs from its offset up to the directory.
        return _decode_attrs(self._file.read_at(
            self._fattr_offset, self._dir_offset - self._fattr_offset),
            self._file.path)

    def attributes(self, name: str) -> Dict[str, AttrValue]:
        """Per-dataset attributes (one seek + read)."""
        info = self.info(name)
        return _decode_attrs(
            self._file.read_at(info.attr_offset, info.attr_nbytes),
            self._file.path)

    def _data_extent(self, info: DatasetInfo) -> int:
        """``info``'s data length, once its block is known to end inside
        the file as it was at open; a block past that end is refused
        before any seek, read or allocation."""
        nbytes = info.data_nbytes
        if info.data_offset + nbytes > self._size:
            raise StorageFormatError(
                f"{self._file.path}: truncated data for dataset "
                f"{info.name!r}: its block ends at byte "
                f"{info.data_offset + nbytes}, past the end of the "
                f"{self._size}-byte file")
        return nbytes

    def read(self, name: str) -> np.ndarray:
        """Read one dataset's data (one seek + transfer)."""
        info = self.info(name)
        data = self._file.read_at(info.data_offset,
                                  self._data_extent(info))
        if len(data) != info.data_nbytes:
            raise StorageFormatError(
                f"truncated data for dataset {name!r}"
            )
        return np.frombuffer(data, dtype=info.dtype).reshape(info.shape)

    def read_into(self, name: str, out: WritableBuffer) -> None:
        """Read one dataset's bytes straight into ``out`` (e.g. a GODIVA
        field buffer view): one seek + one ``readinto``, so the only copy
        is the kernel's, into the target.

        ``out`` must expose a writable C-contiguous buffer of exactly
        ``info(name).data_nbytes`` bytes; anything else is a ``ValueError``
        raised before the read, so nothing is charged. The bytes land
        uninterpreted — ``out``'s dtype and shape are the caller's.
        ``IoStats`` is charged exactly as :meth:`read` charges it.
        """
        try:
            info = self._infos[name]
        except KeyError:
            info = self.info(name)      # raises the missing-dataset error
        nbytes = self._data_extent(info)
        if self._file.readinto_at(
                info.data_offset,
                writable_target(out, nbytes, name)) != nbytes:
            raise StorageFormatError(
                f"truncated data for dataset {name!r}"
            )

    def close(self) -> None:
        """Close the file; idempotent."""
        self._file.close()

    def __enter__(self) -> "SdfReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
