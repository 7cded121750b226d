"""PPM image file round-trips and validation."""

import numpy as np
import pytest

from repro.errors import StorageFormatError
from repro.viz.image import write_ppm
from viz_oracles import read_ppm


def test_ppm_roundtrip(tmp_path):
    path = str(tmp_path / "img.ppm")
    image = np.random.default_rng(0).integers(
        0, 256, size=(24, 32, 3), dtype=np.uint8
    )
    nbytes = write_ppm(path, image)
    assert nbytes > 24 * 32 * 3
    assert np.array_equal(read_ppm(path), image)


def test_ppm_rejects_bad_shapes(tmp_path):
    path = str(tmp_path / "img.ppm")
    with pytest.raises(ValueError):
        write_ppm(path, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        write_ppm(path, np.zeros((4, 4, 3), dtype=np.float64))


def test_read_ppm_with_comments(tmp_path):
    path = tmp_path / "c.ppm"
    payload = bytes(2 * 2 * 3)
    path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + payload)
    image = read_ppm(str(path))
    assert image.shape == (2, 2, 3)


def test_read_ppm_rejects_pgm(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(StorageFormatError):
        read_ppm(str(path))


def test_read_ppm_truncated(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(StorageFormatError, match="truncated"):
        read_ppm(str(path))


def test_read_ppm_bad_maxval(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(StorageFormatError, match="maxval"):
        read_ppm(str(path))
