"""``read_into``'s contract, stated once and run against both readers.

``tests/test_io_sdf.py`` and ``tests/test_io_cdf.py`` each subclass
:class:`ReadIntoContract` with their ``writer`` / ``reader`` pair: the
target must be a writable C-contiguous buffer of exactly the dataset's
byte count, a refusal is raised before anything is read (so nothing is
charged), and a ``read_into`` charges :class:`~repro.io.disk.IoStats`
exactly what the ``read`` of the same dataset does.
"""

import numpy as np
import pytest

from repro.errors import StorageFormatError
from repro.io.disk import ENGLE_DISK, NULL_DISK, IoStats

DATASETS = {
    "coords": np.arange(30, dtype="<f8").reshape(10, 3),
    "conn": np.arange(8, dtype="<i4").reshape(2, 4),
    "empty": np.empty(0, dtype="<f8"),
    "empty2d": np.empty((0, 3), dtype="<f4"),
    "scalar": np.float64(4.0),
    "bytes": np.frombuffer(b"block_0007$", dtype="u1"),
    # Longer than a file object's buffer, so its tail is never prefetched.
    "deep": np.arange(48_000, dtype="<f4").reshape(2, 3, 40, 200),
}


class ReadIntoContract:
    writer = None   # SdfWriter / CdfWriter
    reader = None   # SdfReader / CdfReader

    @pytest.fixture
    def path(self, tmp_path):
        path = str(tmp_path / "contract.bin")
        with self.writer(path) as writer:
            writer.set_attribute("step", 3)
            for name, array in DATASETS.items():
                writer.add_dataset(name, array, attrs={"of": name})
        return path

    def refused(self, path, name, out, error=ValueError):
        """``read_into(name, out)`` raises ``error`` and charges nothing."""
        stats = IoStats()
        with self.reader(path, stats=stats, profile=ENGLE_DISK) as reader:
            before = stats.snapshot()
            with pytest.raises(error):
                reader.read_into(name, out)
            assert stats.snapshot() == before

    # -- what lands ----------------------------------------------------
    def test_every_dataset_lands_byte_identical(self, path):
        with self.reader(path) as reader:
            for name, array in DATASETS.items():
                out = bytearray(reader.info(name).data_nbytes)
                reader.read_into(name, out)
                assert bytes(out) == reader.read(name).tobytes()
                assert bytes(out) == np.asarray(array).tobytes()

    def test_field_buffer_view_is_filled_in_place(self, path):
        storage = bytearray(240)
        with self.reader(path) as reader:
            reader.read_into(
                "coords", np.frombuffer(memoryview(storage), dtype="<f8"))
        assert np.frombuffer(storage, dtype="<f8")[4] == 4.0

    def test_shape_of_the_target_is_the_callers(self, path):
        out = np.zeros((3, 10))
        with self.reader(path) as reader:
            reader.read_into("coords", out)
        assert np.array_equal(out.ravel(), np.arange(30.0))

    def test_zero_length_datasets(self, path):
        with self.reader(path) as reader:
            reader.read_into("empty", np.empty(0))
            reader.read_into("empty2d", np.empty((0, 3), dtype="<f4"))
            reader.read_into("empty", bytearray())

    def test_bytes_land_uninterpreted(self, path):
        """The old ``np.copyto`` cast int32 values into a float target;
        a field buffer holds the file's bytes, whatever view is on it."""
        out = np.zeros(8, dtype="<f4")
        with self.reader(path) as reader:
            reader.read_into("conn", out)
        assert out.tobytes() == DATASETS["conn"].tobytes()

    # -- what is refused, before any read ------------------------------
    def test_noncontiguous_target_refused(self, path):
        """The old path read the bytes, charged them, and wrote them to a
        temporary copy of the view."""
        base = np.zeros((30, 2))
        self.refused(path, "coords", base[:, 0])
        assert not base.any()

    @pytest.mark.parametrize("nbytes", [0, 232, 248])
    def test_wrong_size_refused(self, path, nbytes):
        self.refused(path, "coords", bytearray(nbytes))

    def test_same_elements_wrong_itemsize_refused(self, path):
        self.refused(path, "coords", np.zeros(30, dtype="<f4"))

    def test_readonly_target_refused(self, path):
        frozen = np.zeros(30)
        frozen.flags.writeable = False
        self.refused(path, "coords", frozen, (TypeError, ValueError))
        self.refused(path, "coords", bytes(240), (TypeError, ValueError))

    def test_missing_dataset(self, path):
        self.refused(path, "ghost", bytearray(8), StorageFormatError)

    def test_short_read_is_a_format_error(self, path):
        with self.reader(path) as reader:
            info = reader.info("deep")          # the last data block
            with open(path, "r+b") as f:        # cut under the open reader
                f.truncate(info.data_offset + info.data_nbytes - 4)
            with pytest.raises(StorageFormatError, match="truncated"):
                reader.read_into("deep", bytearray(info.data_nbytes))

    # -- what is charged -----------------------------------------------
    @pytest.mark.parametrize("profile", [NULL_DISK, ENGLE_DISK],
                             ids=["null", "engle"])
    def test_charged_exactly_as_read(self, path, profile):
        by_read, by_into = IoStats(), IoStats()
        order = list(DATASETS) + list(reversed(DATASETS))  # seeks both ways
        with self.reader(path, stats=by_read, profile=profile) as reader:
            read = [reader.read(name).tobytes() for name in order]
        with self.reader(path, stats=by_into, profile=profile) as reader:
            into = []
            for name in order:
                out = bytearray(reader.info(name).data_nbytes)
                reader.read_into(name, out)
                into.append(bytes(out))
        assert into == read
        assert by_into.snapshot() == by_read.snapshot()
        assert by_into.per_file_bytes == by_read.per_file_bytes
        assert by_read.read_calls >= len(order)
        if profile is ENGLE_DISK:
            assert by_read.virtual_seconds > 0.0
            assert by_read.seeks + by_read.settles > 0
