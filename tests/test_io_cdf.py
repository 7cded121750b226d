"""CDF format: round-trips, header-first locality, format independence."""

import os
import struct

import numpy as np
import pytest
from read_into_contract import ReadIntoContract

from repro.errors import StorageFormatError
from repro.io.cdf import _HEADER, _VAR_FIXED, CdfReader, CdfWriter
from repro.io.disk import ENGLE_DISK, IoStats
from repro.io.sdf import SdfReader, SdfWriter


@pytest.fixture
def cdf_path(tmp_path):
    return str(tmp_path / "test.cdf")


def write_sample(path):
    with CdfWriter(path) as writer:
        writer.set_attribute("timestep", "0.000050$")
        writer.set_attribute("step", 1)
        writer.add_dataset(
            "coords", np.arange(30, dtype="<f8").reshape(10, 3),
            attrs={"kind": "node"},
        )
        writer.add_dataset(
            "conn", np.arange(8, dtype="<i4").reshape(2, 4)
        )


class TestRoundTrip:
    def test_datasets(self, cdf_path):
        write_sample(cdf_path)
        with CdfReader(cdf_path) as reader:
            assert reader.dataset_names == ["coords", "conn"]
            coords = reader.read("coords")
            assert coords.shape == (10, 3)
            assert coords[3, 1] == 10.0
            assert reader.read("conn").dtype == np.dtype("<i4")

    def test_attributes(self, cdf_path):
        write_sample(cdf_path)
        with CdfReader(cdf_path) as reader:
            assert reader.file_attributes()["timestep"] == "0.000050$"
            assert reader.attributes("coords") == {"kind": "node"}
            assert reader.attributes("conn") == {}

    def test_info(self, cdf_path):
        write_sample(cdf_path)
        with CdfReader(cdf_path) as reader:
            info = reader.info("coords")
            assert info.shape == (10, 3)
            assert info.data_nbytes == 240
            assert "coords" in reader
            assert "ghost" not in reader

    def test_read_into(self, cdf_path):
        write_sample(cdf_path)
        out = np.zeros(30)
        with CdfReader(cdf_path) as reader:
            reader.read_into("coords", out)
        assert out[4] == 4.0

    def test_empty_file(self, cdf_path):
        with CdfWriter(cdf_path):
            pass
        with CdfReader(cdf_path) as reader:
            assert reader.dataset_names == []
            assert reader.file_attributes() == {}


class TestReadIntoContract(ReadIntoContract):
    writer = CdfWriter
    reader = CdfReader


class TestValidation:
    def test_duplicate_rejected(self, cdf_path):
        with CdfWriter(cdf_path) as writer:
            writer.add_dataset("x", np.zeros(1))
            with pytest.raises(StorageFormatError, match="duplicate"):
                writer.add_dataset("x", np.zeros(1))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cdf"
        path.write_bytes(b"SDF1" + b"\x00" * 60)
        with pytest.raises(StorageFormatError, match="magic"):
            CdfReader(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "cut.cdf"
        path.write_bytes(b"CD")
        with pytest.raises(StorageFormatError, match="too small"):
            CdfReader(str(path))

    def test_write_after_close(self, cdf_path):
        writer = CdfWriter(cdf_path)
        writer.close()
        with pytest.raises(StorageFormatError):
            writer.add_dataset("x", np.zeros(1))

    def test_missing_dataset(self, cdf_path):
        write_sample(cdf_path)
        with CdfReader(cdf_path) as reader:
            with pytest.raises(StorageFormatError, match="no dataset"):
                reader.read("ghost")


class TestLocality:
    def test_header_first_needs_fewer_positioning_ops(self, tmp_path):
        """Same contents: CDF's single header read + forward data scan
        beats SDF's tail directory + per-dataset attribute seeks."""
        data = {f"d{i}": np.random.default_rng(i).random(5000)
                for i in range(8)}
        sdf, cdf = str(tmp_path / "a.sdf"), str(tmp_path / "a.cdf")
        with SdfWriter(sdf) as writer:
            for name, array in data.items():
                writer.add_dataset(name, array, attrs={"n": 1})
        with CdfWriter(cdf) as writer:
            for name, array in data.items():
                writer.add_dataset(name, array, attrs={"n": 1})

        def traffic(reader_cls, path):
            stats = IoStats()
            with reader_cls(path, stats=stats,
                            profile=ENGLE_DISK) as reader:
                for name in reader.dataset_names:
                    reader.attributes(name)
                    reader.read(name)
            return stats.snapshot()

        sdf_stats = traffic(SdfReader, sdf)
        cdf_stats = traffic(CdfReader, cdf)
        assert cdf_stats["read_calls"] < sdf_stats["read_calls"]
        assert cdf_stats["virtual_seconds"] < \
            sdf_stats["virtual_seconds"]


class TestFormatIndependence:
    def test_voyager_identical_results_across_formats(self, tmp_path):
        """The paper's portability claim, end to end: the same Voyager
        over the same data in two formats produces identical images —
        only the read path differs."""
        from repro.gen.snapshot import SnapshotSpec, generate_dataset
        from repro.gen.titan import TitanConfig
        from viz_oracles import read_ppm
        from repro.viz.voyager import Voyager, VoyagerConfig

        results = {}
        for fmt in ("sdf", "cdf"):
            data_dir = str(tmp_path / fmt)
            generate_dataset(
                SnapshotSpec(config=TitanConfig.scaled(0.12),
                             n_steps=2, files_per_snapshot=2,
                             file_format=fmt),
                data_dir,
            )
            results[fmt] = Voyager(VoyagerConfig(
                data_dir=data_dir, test="simple", mode="TG",
                mem_mb=64, render=True,
                out_dir=str(tmp_path / f"out_{fmt}"),
            )).run()
        assert results["sdf"].triangles == results["cdf"].triangles
        for a, b in zip(results["sdf"].images, results["cdf"].images):
            assert np.array_equal(read_ppm(a), read_ppm(b))

    def test_original_mode_works_on_cdf(self, tmp_path):
        from repro.gen.snapshot import SnapshotSpec, generate_dataset
        from repro.gen.titan import TitanConfig
        from repro.viz.voyager import Voyager, VoyagerConfig

        data_dir = str(tmp_path / "cdf")
        generate_dataset(
            SnapshotSpec(config=TitanConfig.scaled(0.12), n_steps=1,
                         files_per_snapshot=2, file_format="cdf"),
            data_dir,
        )
        result = Voyager(VoyagerConfig(
            data_dir=data_dir, test="medium", mode="O",
            mem_mb=64, render=False,
        )).run()
        assert result.triangles > 0

    def test_unknown_format_rejected(self):
        from repro.io.readers import open_scientific_file

        with pytest.raises(ValueError, match="unknown file format"):
            open_scientific_file("x", "hdf5")


def patch_variable(path, index, **fields):
    """Rewrite the fixed part of variable ``index``'s header entry."""
    names = ("name", "dtype", "rank", "d0", "d1", "d2", "d3",
             "data_offset", "data_nbytes", "attr_len")
    with open(path, "r+b") as f:
        f.seek(_HEADER.size)
        (fattr_len,) = struct.unpack("<I", f.read(4))
        at = _HEADER.size + 4 + fattr_len
        for _ in range(index):
            f.seek(at)
            entry = _VAR_FIXED.unpack(f.read(_VAR_FIXED.size))
            at += _VAR_FIXED.size + entry[-1]
        f.seek(at)
        entry = dict(zip(names, _VAR_FIXED.unpack(f.read(_VAR_FIXED.size))))
        entry.update(fields)
        f.seek(at)
        f.write(_VAR_FIXED.pack(*(entry[name] for name in names)))


class TestHeaderChecks:
    """A header may not point past its file, and every variable must
    name a decodable name, a known dtype and a shape of its bytes."""

    @pytest.fixture
    def sample(self, cdf_path):
        with CdfWriter(cdf_path) as writer:
            writer.add_dataset("coords", np.arange(30.0).reshape(10, 3),
                               attrs={"kind": "node"})
            writer.add_dataset("conn", np.arange(8, dtype="<i4"))
        return cdf_path

    def refused(self, path, match):
        with pytest.raises(StorageFormatError, match=match) as info:
            CdfReader(path)
        assert path in str(info.value)

    def test_data_past_end_of_file(self, sample):
        patch_variable(sample, 1, data_offset=2 ** 20)
        self.refused(sample, "past the end")

    def test_cut_file(self, sample):
        with open(sample, "r+b") as f:
            f.truncate(os.path.getsize(sample) - 4)
        self.refused(sample, "past the end")

    def test_non_utf8_name(self, sample):
        patch_variable(sample, 0, name=b"\xff\xfe".ljust(64, b"\x00"))
        self.refused(sample, "not UTF-8")

    def attributed(self, path, value):
        """A file whose file-attribute block holds ``step = value``."""
        with CdfWriter(path) as writer:
            writer.set_attribute("step", value)
            writer.add_dataset("x", np.zeros(2), attrs={"kind": "node"})
        return _HEADER.size + 4        # the block, past its length

    def test_file_attribute_name_not_utf8(self, cdf_path):
        block = self.attributed(cdf_path, 3)
        with open(cdf_path, "r+b") as f:
            f.seek(block + 4 + 7)
            f.write(b"\xff\xfe\xfd\xfc")
        self.refused(cdf_path, "not UTF-8")

    def test_dataset_attribute_string_not_utf8(self, cdf_path):
        block = self.attributed(cdf_path, 3)
        with open(cdf_path, "rb") as f:
            f.seek(_HEADER.size)
            (fattr_len,) = struct.unpack("<I", f.read(4))
        # The variable's attribute block follows its fixed entry; its
        # "kind" payload follows the count, the head and the name.
        at = block + fattr_len + _VAR_FIXED.size + 4 + 7 + 4
        with open(cdf_path, "r+b") as f:
            f.seek(at)
            f.write(b"\xff\xfe")
        self.refused(cdf_path, "not UTF-8")

    @pytest.mark.parametrize("value", [3, 7.5], ids=["int", "float"])
    def test_number_attribute_not_eight_bytes(self, cdf_path, value):
        block = self.attributed(cdf_path, value)
        with open(cdf_path, "r+b") as f:
            f.seek(block + 4 + 3)
            f.write(struct.pack("<I", 4))
        self.refused(cdf_path, "not 8")

    @pytest.mark.parametrize("code", [b"zz", b"<f3", b"|O", b"\xff"])
    def test_garbage_dtype(self, sample, code):
        patch_variable(sample, 1, dtype=code.ljust(8, b"\x00"))
        self.refused(sample, "unknown dtype code")

    @pytest.mark.parametrize("fields", [
        {"rank": 5}, {"d0": 11}, {"data_nbytes": 232},
    ], ids=["rank", "dims", "nbytes"])
    def test_bad_shape(self, sample, fields):
        patch_variable(sample, 0, **fields)
        self.refused(sample, "does not describe")
