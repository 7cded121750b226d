"""SDF format: round-trips, metadata, error handling."""

import struct

import numpy as np
import pytest
from read_into_contract import ReadIntoContract

from repro.errors import StorageFormatError
from repro.io.disk import ENGLE_DISK, NULL_DISK, IoStats
from repro.core.types import DataType
from repro.io.sdf import (
    _ENTRY,
    _HEADER,
    DatasetInfo,
    SdfReader,
    SdfWriter,
    _parse_directory,
)


@pytest.fixture
def sdf_path(tmp_path):
    return str(tmp_path / "test.sdf")


def write_sample(path):
    with SdfWriter(path) as writer:
        writer.set_attribute("timestep", "0.000025$")
        writer.set_attribute("step", 3)
        writer.set_attribute("time", 7.5e-5)
        writer.set_attribute("raw", b"\x00\x01")
        writer.add_dataset(
            "coords", np.arange(30, dtype="<f8").reshape(10, 3),
            attrs={"kind": "node"},
        )
        writer.add_dataset(
            "conn", np.arange(8, dtype="<i4").reshape(2, 4)
        )
        writer.add_dataset("scalar", np.array([1.5]))


class TestRoundTrip:
    def test_datasets_roundtrip(self, sdf_path):
        write_sample(sdf_path)
        with SdfReader(sdf_path) as reader:
            coords = reader.read("coords")
            assert coords.shape == (10, 3)
            assert coords.dtype == np.dtype("<f8")
            assert coords[3, 1] == 10.0
            conn = reader.read("conn")
            assert conn.dtype == np.dtype("<i4")
            assert conn.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_dataset_names_in_order(self, sdf_path):
        write_sample(sdf_path)
        with SdfReader(sdf_path) as reader:
            assert reader.dataset_names == ["coords", "conn", "scalar"]
            assert "coords" in reader
            assert "ghost" not in reader

    def test_file_attributes_roundtrip(self, sdf_path):
        write_sample(sdf_path)
        with SdfReader(sdf_path) as reader:
            attrs = reader.file_attributes()
        assert attrs["timestep"] == "0.000025$"
        assert attrs["step"] == 3
        assert attrs["time"] == 7.5e-5
        assert attrs["raw"] == b"\x00\x01"

    def test_dataset_attributes(self, sdf_path):
        write_sample(sdf_path)
        with SdfReader(sdf_path) as reader:
            assert reader.attributes("coords") == {"kind": "node"}
            assert reader.attributes("conn") == {}

    def test_info_without_reading_data(self, sdf_path):
        write_sample(sdf_path)
        with SdfReader(sdf_path) as reader:
            info = reader.info("coords")
            assert isinstance(info, DatasetInfo)
            assert info.shape == (10, 3)
            assert info.size == 30
            assert info.data_nbytes == 240

    def test_read_into(self, sdf_path):
        write_sample(sdf_path)
        out = np.zeros(30)
        with SdfReader(sdf_path) as reader:
            reader.read_into("coords", out)
        assert out[4] == 4.0

    def test_empty_file_roundtrip(self, sdf_path):
        with SdfWriter(sdf_path):
            pass
        with SdfReader(sdf_path) as reader:
            assert reader.dataset_names == []
            assert reader.file_attributes() == {}

    def test_scalar_0d_and_high_rank(self, sdf_path):
        with SdfWriter(sdf_path) as writer:
            writer.add_dataset("zero", np.float64(4.0))
            writer.add_dataset(
                "four", np.zeros((2, 3, 4, 5), dtype="<f4")
            )
        with SdfReader(sdf_path) as reader:
            assert reader.read("zero") == 4.0
            assert reader.read("four").shape == (2, 3, 4, 5)

    def test_big_endian_input_normalized(self, sdf_path):
        with SdfWriter(sdf_path) as writer:
            writer.add_dataset("x", np.arange(4, dtype=">f8"))
        with SdfReader(sdf_path) as reader:
            data = reader.read("x")
            assert data.dtype == np.dtype("<f8")
            assert data.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_noncontiguous_input(self, sdf_path):
        base = np.arange(20, dtype="<f8").reshape(4, 5)
        with SdfWriter(sdf_path) as writer:
            writer.add_dataset("strided", base[:, ::2])
        with SdfReader(sdf_path) as reader:
            assert np.array_equal(reader.read("strided"), base[:, ::2])


class TestReadIntoContract(ReadIntoContract):
    writer = SdfWriter
    reader = SdfReader


class TestWriterValidation:
    def test_duplicate_dataset_rejected(self, sdf_path):
        with SdfWriter(sdf_path) as writer:
            writer.add_dataset("x", np.zeros(1))
            with pytest.raises(StorageFormatError, match="duplicate"):
                writer.add_dataset("x", np.zeros(1))

    def test_long_name_rejected(self, sdf_path):
        with SdfWriter(sdf_path) as writer:
            with pytest.raises(StorageFormatError):
                writer.add_dataset("n" * 65, np.zeros(1))

    def test_rank5_rejected(self, sdf_path):
        with SdfWriter(sdf_path) as writer:
            with pytest.raises(StorageFormatError, match="rank"):
                writer.add_dataset("x", np.zeros((1, 1, 1, 1, 1)))

    def test_write_after_close_rejected(self, sdf_path):
        writer = SdfWriter(sdf_path)
        writer.close()
        with pytest.raises(StorageFormatError):
            writer.add_dataset("x", np.zeros(1))
        writer.close()  # idempotent

    def test_bool_attribute_rejected(self, sdf_path):
        writer = SdfWriter(sdf_path)
        writer.set_attribute("flag", True)
        with pytest.raises(StorageFormatError):
            writer.close()


class TestReaderValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sdf"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(StorageFormatError, match="magic"):
            SdfReader(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.sdf"
        path.write_bytes(b"SD")
        with pytest.raises(StorageFormatError, match="too small"):
            SdfReader(str(path))

    def test_truncated_directory(self, sdf_path, tmp_path):
        write_sample(sdf_path)
        blob = open(sdf_path, "rb").read()
        cut = tmp_path / "cut.sdf"
        cut.write_bytes(blob[:-10])
        with pytest.raises(StorageFormatError, match="truncated"):
            SdfReader(str(cut))

    def test_missing_dataset(self, sdf_path):
        write_sample(sdf_path)
        with SdfReader(sdf_path) as reader:
            with pytest.raises(StorageFormatError, match="no dataset"):
                reader.read("ghost")
            with pytest.raises(StorageFormatError):
                reader.info("ghost")


#: An attribute entry's head: name length u16, type code u8, payload
#: length u32; the block starts with a u32 count.
_ATTR_HEAD = 7


def one_attribute_file(path, name, value):
    """An SDF file whose one dataset and the file itself each carry the
    single attribute ``name = value``."""
    with SdfWriter(path) as writer:
        writer.set_attribute(name, value)
        writer.add_dataset("x", np.zeros(2), attrs={name: value})


def patch_at(path, offset, data):
    with open(path, "r+b") as f:
        f.seek(offset)
        f.write(data)


def file_attr_offset(path):
    with open(path, "rb") as f:
        return _HEADER.unpack(f.read(_HEADER.size))[5]


class TestAttributeBlocks:
    """An attribute block that does not decode raises
    :class:`StorageFormatError` naming the file, and the file-attribute
    block must lie between the header and the directory at open."""

    def refused(self, path, match, call):
        with pytest.raises(StorageFormatError, match=match) as info:
            with SdfReader(path) as reader:
                call(reader)
        assert path in str(info.value)

    @pytest.mark.parametrize("dataset", [False, True],
                             ids=["file", "dataset"])
    def test_name_not_utf8(self, sdf_path, dataset):
        one_attribute_file(sdf_path, "step", 3)
        with SdfReader(sdf_path) as reader:
            block = (reader.info("x").attr_offset if dataset
                     else file_attr_offset(sdf_path))
        patch_at(sdf_path, block + 4 + _ATTR_HEAD, b"\xff\xfe\xfd\xfc")
        self.refused(sdf_path, "not UTF-8",
                     lambda r: r.attributes("x") if dataset
                     else r.file_attributes())

    def test_string_not_utf8(self, sdf_path):
        one_attribute_file(sdf_path, "tsid", "0.25$")
        block = file_attr_offset(sdf_path)
        patch_at(sdf_path, block + 4 + _ATTR_HEAD + 4, b"\xff\xfe")
        self.refused(sdf_path, "not UTF-8", SdfReader.file_attributes)

    @pytest.mark.parametrize("value", [3, 7.5], ids=["int", "float"])
    def test_number_not_eight_bytes(self, sdf_path, value):
        one_attribute_file(sdf_path, "step", value)
        block = file_attr_offset(sdf_path)
        patch_at(sdf_path, block + 4 + 3, struct.pack("<I", 4))
        self.refused(sdf_path, "not 8", SdfReader.file_attributes)

    @pytest.mark.parametrize("where", ["inside header", "past directory",
                                       "far away"])
    def test_file_attribute_block_out_of_bounds(self, sdf_path, where):
        write_sample(sdf_path)
        with open(sdf_path, "r+b") as f:
            header = list(_HEADER.unpack(f.read(_HEADER.size)))
            header[5] = {"inside header": 8,
                         "past directory": header[3] + 1,
                         "far away": 2 ** 40}[where]
            f.seek(0)
            f.write(_HEADER.pack(*header))
        with pytest.raises(StorageFormatError,
                           match="file-attribute block") as info:
            SdfReader(sdf_path)
        assert sdf_path in str(info.value)


def reference_directory(path):
    """The directory parse the vectorized one replaced — one
    ``_ENTRY.unpack_from`` per entry — kept as its oracle."""
    with open(path, "rb") as f:
        _magic, _version, n_datasets, dir_offset, _n, _fattr_offset = (
            _HEADER.unpack(f.read(_HEADER.size)))
        f.seek(dir_offset)
        blob = f.read(n_datasets * _ENTRY.size)
    infos = []
    for i in range(n_datasets):
        (name_b, dtype_b, rank, d0, d1, d2, d3, data_offset, data_nbytes,
         _n_attrs, attr_offset, attr_nbytes) = _ENTRY.unpack_from(
            blob, i * _ENTRY.size)
        infos.append(DatasetInfo(
            name=name_b.rstrip(b"\x00").decode("utf-8"),
            dtype=np.dtype(dtype_b.rstrip(b"\x00").decode("ascii")),
            shape=tuple(int(d) for d in (d0, d1, d2, d3)[:rank]),
            data_offset=data_offset, data_nbytes=data_nbytes,
            attr_offset=attr_offset, attr_nbytes=attr_nbytes,
        ))
    return infos


def parsed_directory(path):
    with SdfReader(path) as reader:
        return [reader.info(name) for name in reader.dataset_names]


class TestDirectoryParse:
    def assert_same_directory(self, path):
        parsed, expected = parsed_directory(path), reference_directory(path)
        assert parsed == expected
        for info, want in zip(parsed, expected):
            assert type(info.name) is str
            assert info.dtype == want.dtype
            assert info.dtype.str == want.dtype.str
            for value in (*info.shape, info.data_offset, info.data_nbytes,
                          info.attr_offset, info.attr_nbytes):
                assert type(value) is int
        return parsed

    def test_names_ranks_and_dtypes(self, sdf_path):
        full = "n" * 61 + "\u00e9z"                  # 64 bytes, no NUL
        assert len(full.encode("utf-8")) == 64
        shapes = [(), (5,), (2, 3), (2, 1, 3), (1, 2, 3, 4)]
        with SdfWriter(sdf_path) as writer:
            writer.add_dataset(full, np.zeros(3))
            writer.add_dataset("r\u00e9seau:\u6e29\u5ea6", np.ones(2, "<i4"))
            writer.add_dataset("", np.zeros((0, 3)))
            for rank, shape in enumerate(shapes):
                writer.add_dataset(f"rank{rank}", np.zeros(shape, "<f4"),
                                   attrs={"rank": rank})
            for data_type in DataType:
                writer.add_dataset(
                    f"type:{data_type.name}",
                    np.zeros(4, dtype=data_type.numpy_dtype))
            writer.add_dataset("text", np.array([b"ab", b"cdef"]))
        parsed = self.assert_same_directory(sdf_path)
        names = [info.name for info in parsed]
        assert names[:3] == [full, "r\u00e9seau:\u6e29\u5ea6", ""]
        assert [info.shape for info in parsed[3:8]] == shapes
        assert parsed[-1].dtype == np.dtype("S4")
        with SdfReader(sdf_path) as reader:
            assert reader.dataset_names == names
            assert reader.attributes("rank3") == {"rank": 3}

    def test_e2e_sized_directory(self, sdf_path):
        with SdfWriter(sdf_path) as writer:
            for i in range(210):
                writer.add_dataset(f"field{i % 7}:block_{i // 7:04d}",
                                   np.arange(i % 5, dtype="<f8"))
        assert len(self.assert_same_directory(sdf_path)) == 210

    def test_generated_snapshot(self, small_dataset):
        for path in small_dataset.snapshot_paths(0):
            assert len(self.assert_same_directory(path)) > 0

    def test_one_dtype_object_per_dtype_string(self, sdf_path):
        with SdfWriter(sdf_path) as writer:
            for i in range(4):
                writer.add_dataset(f"d{i}", np.zeros(2))
        parsed = parsed_directory(sdf_path)
        assert all(info.dtype is parsed[0].dtype for info in parsed)


class TestDirectoryOffset:
    """``file_attributes`` uses the header's ``dir_offset``; it used to
    re-derive it as ``file size - n * 144`` with an ``fstat`` per call."""

    def attribute_block(self, path):
        """(file attributes, bytes the call read)."""
        stats = IoStats()
        with SdfReader(path, stats=stats) as reader:
            before = stats.bytes_read
            return reader.file_attributes(), stats.bytes_read - before

    def test_trailing_bytes_after_the_directory(self, sdf_path):
        """The old derivation read the attribute block plus as many
        bytes of the directory as trailed it (the count prefix hid it)."""
        write_sample(sdf_path)
        expected = self.attribute_block(sdf_path)
        with open(sdf_path, "ab") as f:
            f.write(b"\x00" * 100)
        assert self.attribute_block(sdf_path) == expected
        with SdfReader(sdf_path) as reader:
            assert reader.dataset_names == ["coords", "conn", "scalar"]
            assert reader.read("conn").tolist() == [[0, 1, 2, 3],
                                                    [4, 5, 6, 7]]

    def test_file_attributes_needs_no_fstat(self, sdf_path, monkeypatch):
        write_sample(sdf_path)
        with SdfReader(sdf_path) as reader:
            monkeypatch.setattr(
                "repro.io.disk.os.fstat",
                lambda fd: pytest.fail("file_attributes called fstat"))
            assert reader.file_attributes()["step"] == 3

    @pytest.mark.parametrize("field, value", [
        ("n_datasets", 4), ("n_datasets", 2 ** 32 - 1),
        ("dir_offset", 2 ** 40),
    ])
    def test_directory_past_end_of_file(self, sdf_path, field, value):
        write_sample(sdf_path)
        with open(sdf_path, "r+b") as f:
            header = list(_HEADER.unpack(f.read(_HEADER.size)))
            header[{"n_datasets": 2, "dir_offset": 3}[field]] = value
            f.seek(0)
            f.write(_HEADER.pack(*header))
        with pytest.raises(StorageFormatError,
                           match="truncated SDF directory"):
            SdfReader(sdf_path)


class TestCostAccounting:
    def test_metadata_then_data_access_pattern(self, sdf_path):
        """Opening reads header+directory; each read() seeks to data —
        the scientific-format access shape the paper discusses."""
        write_sample(sdf_path)
        stats = IoStats()
        with SdfReader(sdf_path, stats=stats,
                       profile=ENGLE_DISK) as reader:
            after_open = stats.snapshot()
            assert after_open["read_calls"] == 2  # header + directory
            reader.read("coords")
            reader.read("conn")
        snap = stats.snapshot()
        assert snap["read_calls"] == 4
        assert snap["bytes_read"] > 240 + 32
        assert snap["virtual_seconds"] > 0


def write_layout(path, step):
    """One file of a snapshot series: the same datasets (names, shapes,
    dtypes, attributes) at every step; values and file attributes vary."""
    with SdfWriter(path) as writer:
        writer.set_attribute("step", step)
        writer.set_attribute("label", "x" * step)
        for i in range(6):
            writer.add_dataset(f"field{i}", np.full(256, step + i, "<f8"),
                               attrs={"index": i})


def open_and_read(path, profile):
    """Open, read the file attributes and every dataset; the IoStats of
    the whole visit and the values read."""
    stats = IoStats()
    with SdfReader(path, stats=stats, profile=profile) as reader:
        values = [reader.file_attributes()]
        for name in reader.dataset_names:
            values.append(reader.attributes(name))
            values.append(reader.read(name).tolist())
    return stats.snapshot(), dict(stats.per_file_bytes), values


class TestDirectoryMemo:
    """Files sharing a directory's bytes share its parse; every read
    and every count of an open is still made."""

    @pytest.fixture
    def series(self, tmp_path):
        paths = [str(tmp_path / f"step{step}.sdf") for step in range(3)]
        for step, path in enumerate(paths):
            write_layout(path, step)
        return paths

    def test_shared_layout_is_one_parse(self, series):
        _parse_directory.cache_clear()
        readers = [SdfReader(path) for path in series]
        try:
            assert _parse_directory.cache_info().misses == 1
            assert _parse_directory.cache_info().hits == 2
            assert readers[0]._infos is readers[2]._infos
        finally:
            for reader in readers:
                reader.close()

    @pytest.mark.parametrize("profile", [NULL_DISK, ENGLE_DISK],
                             ids=["null", "engle"])
    def test_a_hit_charges_what_a_miss_charges(self, series, profile):
        _parse_directory.cache_clear()
        miss = open_and_read(series[0], profile)
        assert _parse_directory.cache_info().misses == 1
        hit = open_and_read(series[0], profile)
        assert _parse_directory.cache_info().hits == 1
        assert hit == miss
        assert miss[0]["opens"] == 1
        assert miss[0]["read_calls"] == 3 + 2 * 6
        assert miss[1] == {series[0]: miss[0]["bytes_read"]}

    def test_each_file_keeps_its_own_attributes(self, series):
        _parse_directory.cache_clear()
        for step, path in enumerate(series):
            with SdfReader(path) as reader:
                assert reader.file_attributes() == {"step": step,
                                                    "label": "x" * step}
                assert reader.read("field2")[0] == step + 2
        assert _parse_directory.cache_info().hits == 2

    def test_truncated_sibling_still_raises(self, series, tmp_path):
        """A file whose directory bytes equal its sibling's but whose
        last data block runs past the end: the open hits the memo, the
        read of that block is still refused."""
        with open(series[0], "rb") as f:
            data = f.read()
        (magic, version, n, dir_offset, n_fattrs,
         fattr_offset) = _HEADER.unpack_from(data)
        directory = data[dir_offset:dir_offset + n * _ENTRY.size]
        fattrs = data[fattr_offset:dir_offset]
        with SdfReader(series[0]) as reader:
            last = reader.info("field5")
        body = data[_HEADER.size:last.data_offset]
        cut = str(tmp_path / "cut.sdf")
        with open(cut, "wb") as f:
            f.write(_HEADER.pack(
                magic, version, n, last.data_offset + len(fattrs), n_fattrs,
                last.data_offset))
            f.write(body + fattrs + directory)
        _parse_directory.cache_clear()
        SdfReader(series[0]).close()
        with SdfReader(cut) as reader:
            assert _parse_directory.cache_info().hits == 1
            assert reader.read("field4")[0] == 4
            with pytest.raises(StorageFormatError, match="truncated data"):
                reader.read("field5")
            with pytest.raises(StorageFormatError, match="truncated data"):
                reader.read_into("field5", np.empty(256))
        with open(cut, "r+b") as f:
            f.truncate(last.data_offset + len(fattrs) + len(directory) - 1)
        with pytest.raises(StorageFormatError,
                           match="truncated SDF directory"):
            SdfReader(cut)

    def test_shared_map_cannot_be_changed_through_a_reader(self, series):
        _parse_directory.cache_clear()
        with SdfReader(series[0]) as first:
            names = first.dataset_names
            names.append("intruder")
            names.remove("field0")
            info = first.info("field1")
            with pytest.raises(AttributeError):
                info.data_offset = 0
            with pytest.raises(TypeError):
                first._infos["intruder"] = info
            assert info._replace(data_offset=0) != first.info("field1")
        with SdfReader(series[1]) as second:
            assert _parse_directory.cache_info().hits == 1
            assert second.dataset_names == [f"field{i}" for i in range(6)]
            assert "intruder" not in second
            assert second.info("field1") == info
            assert second.read("field1")[0] == 1 + 1


def patch_entry(path, index, **fields):
    """Rewrite directory entry ``index`` of an SDF file in place."""
    names = ("name", "dtype", "rank", "d0", "d1", "d2", "d3", "data_offset",
             "data_nbytes", "n_attrs", "attr_offset", "attr_nbytes")
    with open(path, "r+b") as f:
        _magic, _version, _n, dir_offset, _nf, _fo = _HEADER.unpack(
            f.read(_HEADER.size))
        at = dir_offset + index * _ENTRY.size
        f.seek(at)
        entry = dict(zip(names, _ENTRY.unpack(f.read(_ENTRY.size))))
        entry.update(fields)
        f.seek(at)
        f.write(_ENTRY.pack(*(entry[name] for name in names)))


class TestDirectoryChecks:
    """A directory may not point past its file, and every entry must
    name a decodable name, a known dtype and a shape of its bytes."""

    def refused(self, path, match):
        with pytest.raises(StorageFormatError, match=match) as info:
            SdfReader(path)
        assert path in str(info.value)

    def test_attribute_block_past_end_of_file(self, sdf_path):
        write_sample(sdf_path)
        patch_entry(sdf_path, 2, attr_offset=2 ** 20)
        self.refused(sdf_path, "past the end")

    def test_non_utf8_name(self, sdf_path):
        write_sample(sdf_path)
        patch_entry(sdf_path, 1, name=b"\xff\xfe".ljust(64, b"\x00"))
        self.refused(sdf_path, "not UTF-8")

    @pytest.mark.parametrize("code", [b"zz", b"<f3", b"|O", b"\xff"])
    def test_garbage_dtype(self, sdf_path, code):
        write_sample(sdf_path)
        patch_entry(sdf_path, 0, dtype=code.ljust(8, b"\x00"))
        self.refused(sdf_path, "unknown dtype code")

    @pytest.mark.parametrize("fields", [
        {"rank": 5}, {"d0": 11}, {"data_nbytes": 232},
    ], ids=["rank", "dims", "nbytes"])
    def test_bad_shape(self, sdf_path, fields):
        write_sample(sdf_path)
        patch_entry(sdf_path, 0, **fields)
        self.refused(sdf_path, "does not describe")

    def test_a_refused_parse_is_not_memoized(self, sdf_path, tmp_path):
        write_sample(sdf_path)
        bad = str(tmp_path / "bad.sdf")
        with open(sdf_path, "rb") as f:
            blob = f.read()
        with open(bad, "wb") as f:
            f.write(blob)
        patch_entry(bad, 0, dtype=b"zz".ljust(8, b"\x00"))
        _parse_directory.cache_clear()
        for _ in range(2):
            self.refused(bad, "unknown dtype code")
        info = _parse_directory.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 0)
        SdfReader(sdf_path).close()
        assert _parse_directory.cache_info().currsize == 1
