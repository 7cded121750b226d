"""Voyager integration: the three builds over a real dataset."""

import numpy as np
import pytest

from repro.viz.voyager import Voyager, VoyagerConfig


def run(dataset, mode, test="simple", **kwargs):
    config = VoyagerConfig(
        data_dir=dataset.directory,
        test=test,
        mode=mode,
        mem_mb=64.0,
        render=kwargs.pop("render", False),
        **kwargs,
    )
    return Voyager(config).run()


class TestModes:
    def test_invalid_mode_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            VoyagerConfig(data_dir=small_dataset.directory, mode="X")

    @pytest.mark.parametrize("mode", ["O", "G", "TG"])
    def test_runs_all_snapshots(self, small_dataset, mode):
        result = run(small_dataset, mode)
        assert result.n_snapshots == 4
        assert result.triangles > 0
        assert result.bytes_read > 0
        assert result.total_wall_s > 0

    def test_steps_limit(self, small_dataset):
        result = run(small_dataset, "G", steps=2)
        assert result.n_snapshots == 2

    def test_snapshot_indices(self, small_dataset):
        result = run(small_dataset, "G", snapshot_indices=[1, 3])
        assert result.n_snapshots == 2

    def test_bad_snapshot_indices(self, small_dataset):
        with pytest.raises(ValueError, match="out of range"):
            run(small_dataset, "G", snapshot_indices=[99])


class TestEquivalence:
    @pytest.mark.parametrize("test", ["simple", "complex"])
    def test_all_builds_produce_identical_images(
        self, small_dataset, tmp_path, test
    ):
        """O, G and TG must compute exactly the same pictures — GODIVA
        changes data management, never results."""
        images = {}
        for mode in ("O", "G", "TG"):
            out = str(tmp_path / mode)
            result = run(small_dataset, mode, test=test, steps=2,
                         render=True, out_dir=out)
            from repro.viz.image import read_ppm

            images[mode] = [read_ppm(p) for p in result.images]
        for mode in ("G", "TG"):
            for a, b in zip(images["O"], images[mode]):
                assert np.array_equal(a, b)

    def test_same_triangles_all_modes(self, small_dataset):
        counts = {
            mode: run(small_dataset, mode, test="medium").triangles
            for mode in ("O", "G", "TG")
        }
        assert counts["O"] == counts["G"] == counts["TG"]


class TestPaperMetrics:
    @pytest.mark.parametrize("test", ["simple", "medium", "complex"])
    def test_godiva_reduces_io_volume(self, small_dataset, test):
        """N1: G reads strictly less than O in every test (redundant
        coordinate re-reads eliminated)."""
        o = run(small_dataset, "O", test=test)
        g = run(small_dataset, "G", test=test)
        assert g.bytes_read < o.bytes_read
        assert g.read_calls < o.read_calls

    def test_o_build_reads_without_read_into(self, small_dataset,
                                             monkeypatch):
        """The O side of N1 / N2 goes through ``reader.read`` only, so
        its pins cannot move with ``read_into``; G's buffers all arrive
        through it (and are charged as reads: see
        ``tests/read_into_contract.py``)."""
        from repro.io.sdf import SdfReader

        calls = []
        real = SdfReader.read_into

        def counted(self, name, out):
            calls.append(name)
            real(self, name, out)

        monkeypatch.setattr(SdfReader, "read_into", counted)
        o = run(small_dataset, "O", steps=1)
        assert o.bytes_read > 0 and calls == []
        g = run(small_dataset, "G", steps=1)
        assert g.bytes_read > 0 and calls

    def test_medium_has_largest_reduction(self, small_dataset):
        reductions = {}
        for test in ("simple", "medium", "complex"):
            o = run(small_dataset, "O", test=test)
            g = run(small_dataset, "G", test=test)
            reductions[test] = 1 - g.bytes_read / o.bytes_read
        assert reductions["medium"] > reductions["simple"]
        assert reductions["medium"] > reductions["complex"]

    def test_g_and_tg_read_identical_volume(self, small_dataset):
        g = run(small_dataset, "G", test="simple")
        tg = run(small_dataset, "TG", test="simple")
        assert g.bytes_read == tg.bytes_read

    def test_virtual_io_time_reduced(self, small_dataset):
        o = run(small_dataset, "O", test="medium")
        g = run(small_dataset, "G", test="medium")
        assert g.virtual_io_s < o.virtual_io_s

    def test_tg_uses_background_thread(self, small_dataset):
        result = run(small_dataset, "TG")
        assert result.gbo_stats["units_prefetched"] == 4
        assert result.gbo_stats["units_read_foreground"] == 0

    def test_g_reads_in_foreground(self, small_dataset):
        result = run(small_dataset, "G")
        assert result.gbo_stats["units_read_foreground"] == 4
        assert result.gbo_stats["units_prefetched"] == 0


class TestCli:
    def test_main(self, small_dataset, capsys):
        from repro.viz.voyager import main

        code = main([
            "--data", small_dataset.directory,
            "--test", "simple", "--mode", "G",
            "--steps", "1", "--no-render",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "visible I/O wall" in out
        assert "bytes read" in out

    def test_main_with_workers(self, small_dataset, capsys):
        from repro.viz.voyager import main

        code = main([
            "--data", small_dataset.directory,
            "--test", "simple", "--mode", "G",
            "--no-render", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "makespan" in out
