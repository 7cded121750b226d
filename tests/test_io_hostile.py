"""Hostile files: every malformed byte string is a StorageFormatError.

A file of three datasets (with file and dataset attributes) is written
once per format; each example overwrites one to four of its bytes and
sometimes also truncates it, then opens it and calls everything a
reader offers — ``file_attributes``, and per dataset ``info``,
``attributes``, ``read`` and ``read_into``. Whatever the damage, the
only exception a caller may see is :class:`StorageFormatError`: no
read asks for more than the file holds, so no ``MemoryError``,
``OverflowError``, ``OSError`` or ``ValueError`` escapes.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StorageFormatError
from repro.io.cdf import CdfReader, CdfWriter
from repro.io.sdf import SdfReader, SdfWriter

FORMATS = {"sdf": (SdfWriter, SdfReader), "cdf": (CdfWriter, CdfReader)}


def _pristine(fmt: str) -> bytes:
    """The undamaged file's bytes."""
    writer_cls, _reader_cls = FORMATS[fmt]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, f"base.{fmt}")
        with writer_cls(path) as writer:
            writer.set_attribute("title", "hostile")
            writer.set_attribute("step", 7)
            writer.add_dataset("coords", np.arange(30.0).reshape(10, 3),
                               attrs={"units": "m"})
            writer.add_dataset("conn", np.arange(16, dtype="<i4"))
            writer.add_dataset("temperature", np.linspace(0, 1, 10,
                                                          dtype="<f4"),
                               attrs={"scale": 1.5})
        with open(path, "rb") as f:
            return f.read()


PRISTINE = {fmt: _pristine(fmt) for fmt in FORMATS}


def _exercise(reader_cls, path: str) -> None:
    """Every call a reader offers, on every dataset it lists."""
    with reader_cls(path) as reader:
        reader.file_attributes()
        for name in reader.dataset_names:
            info = reader.info(name)
            reader.attributes(name)
            reader.read(name)
            size = os.path.getsize(path)
            reader.read_into(name, bytearray(min(info.data_nbytes, size)))


@pytest.fixture(scope="module")
def scratch_dir():
    with tempfile.TemporaryDirectory() as directory:
        yield directory


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_raises_only_storage_format_errors(fmt, scratch_dir,
                                                        data):
    blob = bytearray(PRISTINE[fmt])
    writes = data.draw(st.lists(
        st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
        min_size=1, max_size=4))
    for position, value in writes:
        blob[position] = value
    if data.draw(st.integers(0, 4)) == 0:          # 20 %: also truncated
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    path = os.path.join(scratch_dir, f"mutant.{fmt}")
    with open(path, "wb") as f:
        f.write(blob)
    try:
        _exercise(FORMATS[fmt][1], path)
    except StorageFormatError:
        pass


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_pristine_file_reads_cleanly(fmt, scratch_dir):
    path = os.path.join(scratch_dir, f"pristine.{fmt}")
    with open(path, "wb") as f:
        f.write(PRISTINE[fmt])
    _exercise(FORMATS[fmt][1], path)


def test_cdf_header_length_past_the_end_is_refused_before_reading(
        scratch_dir):
    """A header length field of 2^62 was a 4 EiB allocation attempt."""
    blob = bytearray(PRISTINE["cdf"])
    blob[12:20] = (1 << 62).to_bytes(8, "little")
    path = os.path.join(scratch_dir, "long-header.cdf")
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(StorageFormatError, match="truncated CDF header"):
        CdfReader(path)


def test_sdf_data_block_past_the_end_is_refused_before_reading(
        scratch_dir):
    """A data offset of 2^62 in the directory: the open succeeds (the
    other blocks stay readable) and that block's read is refused with
    no seek."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "base.sdf")
        with open(path, "wb") as f:
            f.write(PRISTINE["sdf"])
        with SdfReader(path) as reader:
            offset = reader.info("conn").data_offset
    blob = bytearray(PRISTINE["sdf"])
    entry = blob.index(offset.to_bytes(8, "little"))
    blob[entry:entry + 8] = (1 << 62).to_bytes(8, "little")
    path = os.path.join(scratch_dir, "far-block.sdf")
    with open(path, "wb") as f:
        f.write(blob)
    with SdfReader(path) as reader:
        assert reader.read("coords").shape == (10, 3)
        with pytest.raises(StorageFormatError, match="truncated data"):
            reader.read("conn")
        with pytest.raises(StorageFormatError, match="truncated data"):
            reader.read_into("conn", bytearray(64))
