"""Plain-binary format and its sequential access advantage."""

import numpy as np
import pytest

from repro.errors import StorageFormatError
from repro.io.disk import ENGLE_DISK, IoStats
from repro.io.plainbin import read_plain_array, write_plain_array
from repro.io.sdf import SdfReader, SdfWriter


def test_roundtrip_1d(tmp_path):
    path = str(tmp_path / "a.pbin")
    data = np.linspace(0, 1, 100)
    nbytes = write_plain_array(path, data)
    assert nbytes == 48 + 800
    assert np.array_equal(read_plain_array(path), data)


def test_roundtrip_shapes_and_dtypes(tmp_path):
    for i, (shape, dtype) in enumerate([
        ((), "<f8"),
        ((5,), "<i4"),
        ((3, 4), "<f4"),
        ((2, 3, 4), "<i8"),
        ((2, 2, 2, 2), "u1"),
    ]):
        path = str(tmp_path / f"arr{i}.pbin")
        data = np.zeros(shape, dtype=dtype)
        write_plain_array(path, data)
        back = read_plain_array(path)
        assert back.shape == data.shape
        assert back.dtype == data.dtype


def test_rank5_rejected(tmp_path):
    with pytest.raises(StorageFormatError):
        write_plain_array(str(tmp_path / "x.pbin"),
                          np.zeros((1, 1, 1, 1, 1)))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.pbin"
    path.write_bytes(b"XXXX" + b"\x00" * 60)
    with pytest.raises(StorageFormatError, match="magic"):
        read_plain_array(str(path))


def test_too_small_for_header(tmp_path):
    path = tmp_path / "short.pbin"
    path.write_bytes(b"PBIN" + b"\x00" * 20)
    with pytest.raises(StorageFormatError, match="too small"):
        read_plain_array(str(path))


def test_truncated_data(tmp_path):
    path = str(tmp_path / "a.pbin")
    write_plain_array(path, np.zeros(100))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-10])
    with pytest.raises(StorageFormatError, match="truncated"):
        read_plain_array(path)


def test_plain_binary_cheaper_than_sdf_for_same_array(tmp_path):
    """The paper's observation (section 1): scientific-format files have
    a higher input cost than plain binary files — here because of the
    directory seeks the SDF layout requires."""
    data = np.random.default_rng(0).random(50_000)

    pbin = str(tmp_path / "x.pbin")
    write_plain_array(pbin, data)
    pbin_stats = IoStats()
    read_plain_array(pbin, stats=pbin_stats, profile=ENGLE_DISK)

    sdf = str(tmp_path / "x.sdf")
    with SdfWriter(sdf) as writer:
        writer.add_dataset("x", data)
    sdf_stats = IoStats()
    with SdfReader(sdf, stats=sdf_stats, profile=ENGLE_DISK) as reader:
        reader.read("x")

    assert sdf_stats.snapshot()["virtual_seconds"] > \
        pbin_stats.snapshot()["virtual_seconds"]
    assert sdf_stats.snapshot()["read_calls"] > \
        pbin_stats.snapshot()["read_calls"]
