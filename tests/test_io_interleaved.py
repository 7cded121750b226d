"""Every reader call, interleaved on one open reader, against a model.

``attributes``, ``file_attributes``, ``read`` and ``read_into`` share a
file handle, so each call's charge depends on where the call before it
left the head. The model below lists the ``(offset, nbytes)`` reads
each call makes in the file's layout and applies the disk model's rule
(:meth:`~repro.io.disk.DiskProfile.read_cost_s`) to them in order; the
reader must land the written bytes and charge :class:`IoStats`
exactly that, ``per_file_bytes`` included.
"""

import numpy as np
import pytest

from repro.io import cdf, sdf
from repro.io.disk import ENGLE_DISK, NULL_DISK, IoStats

DATASETS = {
    "coords": (np.arange(30, dtype="<f8").reshape(10, 3), {"kind": "node"}),
    "conn": (np.arange(8, dtype="<i4").reshape(2, 4), {}),
    "speed": (np.linspace(0.0, 1.0, 500, dtype="<f4"), {"unit": "m/s"}),
}
FILE_ATTRS = {"step": 3, "block_ids": "a,b"}
#: (call, dataset) in the order a read callback might mix them.
CALLS = [
    ("attributes", "coords"), ("read_into", "conn"),
    ("file_attributes", None), ("read", "speed"),
    ("read_into", "coords"), ("attributes", "speed"),
    ("read", "conn"), ("file_attributes", None),
    ("read_into", "speed"), ("attributes", "conn"), ("read", "coords"),
]
FORMATS = {"sdf": (sdf.SdfWriter, sdf.SdfReader),
           "cdf": (cdf.CdfWriter, cdf.CdfReader)}


def write(path, fmt):
    writer_cls, _ = FORMATS[fmt]
    with writer_cls(path) as writer:
        for name, value in FILE_ATTRS.items():
            writer.set_attribute(name, value)
        for name, (array, attrs) in DATASETS.items():
            writer.add_dataset(name, array, attrs=attrs)


def model_reads(path, fmt, infos):
    """The ``(offset, nbytes)`` of every read the open and ``CALLS``
    make, from the file's own header."""
    with open(path, "rb") as f:
        blob = f.read()
    if fmt == "sdf":
        (_magic, _version, n, dir_offset, _n_attrs,
         fattr_offset) = sdf._HEADER.unpack_from(blob)
        reads = [(0, sdf._HEADER.size), (dir_offset, n * sdf._ENTRY.size)]
    else:
        header_len = cdf._HEADER.unpack_from(blob)[3]
        reads = [(0, cdf._HEADER.size),
                 (cdf._HEADER.size, header_len - cdf._HEADER.size)]
    for call, name in CALLS:
        if call in ("read", "read_into"):
            reads.append((infos[name].data_offset, infos[name].data_nbytes))
        elif fmt == "sdf" and call == "attributes":
            reads.append((infos[name].attr_offset, infos[name].attr_nbytes))
        elif fmt == "sdf":
            reads.append((fattr_offset, dir_offset - fattr_offset))
        # CDF's attributes came with the header: no read.
    return reads


def model_stats(path, reads, profile):
    snapshot = {"bytes_read": 0, "read_calls": 0, "seeks": 0,
                "settles": 0, "opens": 1, "virtual_seconds": 0.0}
    snapshot["virtual_seconds"] += profile.open_s
    last_end = None
    for offset, nbytes in reads:
        gap = None if last_end is None else offset - last_end
        if gap != 0:
            if gap is not None and 0 < gap <= profile.forward_window_bytes:
                snapshot["settles"] += 1
            else:
                snapshot["seeks"] += 1
        snapshot["bytes_read"] += nbytes
        snapshot["read_calls"] += 1
        snapshot["virtual_seconds"] += profile.read_cost_s(nbytes, gap)
        last_end = offset + nbytes
    return snapshot, {path: sum(nbytes for _, nbytes in reads)}


@pytest.mark.parametrize("profile", [NULL_DISK, ENGLE_DISK],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_interleaved_calls_land_bytes_and_charge_the_model(
        tmp_path, fmt, profile):
    path = str(tmp_path / f"interleaved.{fmt}")
    write(path, fmt)
    stats = IoStats()
    with FORMATS[fmt][1](path, stats=stats, profile=profile) as reader:
        infos = {name: reader.info(name) for name in DATASETS}
        for call, name in CALLS:
            if call == "file_attributes":
                assert reader.file_attributes() == FILE_ATTRS
                continue
            array, attrs = DATASETS[name]
            if call == "attributes":
                assert reader.attributes(name) == attrs
            elif call == "read":
                got = reader.read(name)
                assert got.dtype == array.dtype
                assert np.array_equal(got, array)
            else:
                out = np.zeros_like(array)
                reader.read_into(name, out)
                assert out.tobytes() == array.tobytes()
    snapshot, per_file = model_stats(
        path, model_reads(path, fmt, infos), profile)
    assert stats.snapshot() == snapshot
    assert stats.per_file_bytes == per_file
