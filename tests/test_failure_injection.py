"""Failure injection: corrupted files, vanished files, flaky reads.

A production data-management library must fail loudly and cleanly —
"errors should never pass silently". These tests damage real datasets and
verify the error surfaces, the cleanup, and the recovery paths.
"""

import os
import shutil
import struct

import pytest

from repro.errors import ReadFunctionError, StorageFormatError
from repro.gen.snapshot import SnapshotSpec, generate_dataset
from repro.gen.titan import TitanConfig
from repro.viz.voyager import Voyager, VoyagerConfig


@pytest.fixture
def fragile_dataset(tmp_path):
    """A private dataset copy this test file may damage at will."""
    directory = str(tmp_path / "fragile")
    return generate_dataset(
        SnapshotSpec(config=TitanConfig.scaled(0.12), n_steps=3,
                     files_per_snapshot=2),
        directory,
    )


def damage(path: str, mode: str) -> None:
    if mode == "truncate":
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
    elif mode == "garbage-header":
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        open(path, "wb").write(bytes(blob))
    elif mode == "delete":
        os.remove(path)
    else:
        raise AssertionError(mode)


class TestVoyagerUnderDamage:
    @pytest.mark.parametrize("mode", ["truncate", "garbage-header",
                                      "delete"])
    def test_godiva_build_raises_read_function_error(
        self, fragile_dataset, mode
    ):
        damage(fragile_dataset.snapshot_paths(1)[0], mode)
        voyager = Voyager(VoyagerConfig(
            data_dir=fragile_dataset.directory, test="simple",
            mode="G", mem_mb=32, render=False,
        ))
        with pytest.raises(ReadFunctionError):
            voyager.run()

    def test_undamaged_snapshots_processed_first(self, fragile_dataset):
        """Damage in snapshot 2 only surfaces when snapshot 2 is
        reached; earlier work completes."""
        damage(fragile_dataset.snapshot_paths(2)[0], "truncate")
        voyager = Voyager(VoyagerConfig(
            data_dir=fragile_dataset.directory, test="simple",
            mode="G", mem_mb=32, render=False,
        ))
        with pytest.raises(ReadFunctionError):
            voyager.run()
        # The pipeline got through snapshots 0 and 1.
        assert voyager.io_stats.snapshot()["bytes_read"] > 0

    def test_original_build_raises_storage_error(self, fragile_dataset):
        damage(fragile_dataset.snapshot_paths(0)[0], "garbage-header")
        voyager = Voyager(VoyagerConfig(
            data_dir=fragile_dataset.directory, test="simple",
            mode="O", mem_mb=32, render=False,
        ))
        with pytest.raises(StorageFormatError):
            voyager.run()

    def test_tg_failure_propagates_to_waiter(self, fragile_dataset):
        """A prefetch failure on the I/O thread surfaces in the main
        thread's wait, not as a silent hang."""
        damage(fragile_dataset.snapshot_paths(1)[1], "truncate")
        voyager = Voyager(VoyagerConfig(
            data_dir=fragile_dataset.directory, test="simple",
            mode="TG", mem_mb=32, render=False,
        ))
        with pytest.raises(ReadFunctionError):
            voyager.run()


def sabotage(path: str, case: str) -> None:
    """Rewrite one field of an SDF file's first directory entry (the
    first block's ``coords``, which every snapshot read needs) so the
    format layer refuses it: the damage the hostile-file tests
    (``tests/test_io_hostile.py``) refuse one reader call at a time."""
    blob = bytearray(open(path, "rb").read())
    _magic, _version, _count, entry = struct.unpack_from("<4sIIQ", blob)
    if case == "non-utf8-name":
        blob[entry] = 0xFF
    elif case == "unknown-dtype":
        blob[entry + 64:entry + 72] = b"zz".ljust(8, b"\x00")
    elif case == "block-past-end":
        blob[entry + 108:entry + 116] = (1 << 62).to_bytes(8, "little")
    else:
        raise AssertionError(case)
    open(path, "wb").write(bytes(blob))


class TestRecoveryPaths:
    @pytest.mark.parametrize("background_io", [False, True],
                             ids=["foreground", "background"])
    @pytest.mark.parametrize("case, refusal", [
        ("non-utf8-name", "not UTF-8"),
        ("unknown-dtype", "unknown dtype code"),
        ("block-past-end", "truncated data"),
    ])
    def test_hostile_file_fails_its_unit_and_nothing_else(
        self, fragile_dataset, case, refusal, background_io
    ):
        """A file the format layer refuses fails its unit with a
        ReadFunctionError caused by the StorageFormatError, releases
        every byte the unit took, and the next unit loads."""
        from repro.core.database import GBO
        from repro.io.readers import (
            make_snapshot_read_fn,
            snapshot_unit_name,
        )

        sabotage(fragile_dataset.snapshot_paths(1)[0], case)
        read_fn = make_snapshot_read_fn(fragile_dataset)
        with GBO(mem_mb=32, background_io=background_io) as gbo:
            gbo.add_unit(snapshot_unit_name(0), read_fn)
            gbo.wait_unit(snapshot_unit_name(0))
            used_before = gbo.mem_used_bytes
            gbo.add_unit(snapshot_unit_name(1), read_fn)
            with pytest.raises(ReadFunctionError) as failure:
                gbo.wait_unit(snapshot_unit_name(1))
            cause = failure.value.__cause__
            assert isinstance(cause, StorageFormatError)
            assert refusal in str(cause)
            assert gbo.mem_used_bytes == used_before
            gbo.add_unit(snapshot_unit_name(2), read_fn)
            gbo.wait_unit(snapshot_unit_name(2))
            assert gbo.is_resident(snapshot_unit_name(2))
            assert gbo.mem_used_bytes > used_before

    def test_gbo_survives_failed_unit_and_continues(
        self, fragile_dataset
    ):
        """After a failed snapshot the same GBO keeps serving others —
        no poisoned state, no leaked memory."""
        from repro.core.database import GBO
        from repro.io.readers import (
            make_snapshot_read_fn,
            snapshot_unit_name,
        )

        damage(fragile_dataset.snapshot_paths(1)[0], "truncate")
        read_fn = make_snapshot_read_fn(fragile_dataset)
        with GBO(mem_mb=32, background_io=False) as gbo:
            gbo.add_unit(snapshot_unit_name(0), read_fn)
            gbo.add_unit(snapshot_unit_name(1), read_fn)
            gbo.add_unit(snapshot_unit_name(2), read_fn)
            gbo.wait_unit(snapshot_unit_name(0))
            with pytest.raises(ReadFunctionError):
                gbo.wait_unit(snapshot_unit_name(1))
            used_after_failure = gbo.mem_used_bytes
            gbo.wait_unit(snapshot_unit_name(2))
            assert gbo.is_resident(snapshot_unit_name(2))
            assert gbo.mem_used_bytes > used_after_failure

    def test_repaired_file_allows_retry(self, tmp_path):
        """Fix the file, re-add the unit, and the data loads."""
        from repro.core.database import GBO
        from repro.io.readers import (
            make_snapshot_read_fn,
            snapshot_unit_name,
        )

        directory = str(tmp_path / "repairable")
        manifest = generate_dataset(
            SnapshotSpec(config=TitanConfig.scaled(0.12), n_steps=1,
                         files_per_snapshot=1),
            directory,
        )
        path = manifest.snapshot_paths(0)[0]
        backup = path + ".bak"
        shutil.copy(path, backup)
        damage(path, "truncate")

        read_fn = make_snapshot_read_fn(manifest)
        with GBO(mem_mb=32, background_io=False) as gbo:
            gbo.add_unit(snapshot_unit_name(0), read_fn)
            with pytest.raises(ReadFunctionError):
                gbo.wait_unit(snapshot_unit_name(0))
            shutil.move(backup, path)       # repair
            gbo.add_unit(snapshot_unit_name(0), read_fn)  # re-add
            gbo.wait_unit(snapshot_unit_name(0))
            assert gbo.record_count("solid") == manifest.n_blocks
