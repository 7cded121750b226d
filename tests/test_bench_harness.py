"""The benchmark harness itself: stats, tables, dataset cache, figure3."""

import os
import subprocess
import sys

import pytest

from repro.bench.figure3 import (
    PAPER_ENGLE,
    derived_metrics_table,
    panel_table,
    run_figure3_panel,
)
from repro.bench.report import Table, format_table, host_info, mean_ci95
from repro.bench.workloads import ensure_dataset
from repro.simulate.machine import ENGLE, TURING
from repro.simulate.workload import IoProfile, TestWorkload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestStats:
    def test_mean_ci95_single_sample(self):
        mean, ci = mean_ci95([5.0])
        assert mean == 5.0
        assert ci == 0.0

    def test_mean_ci95_five_samples(self):
        """n=5 -> t(4) = 2.776; known-answer check."""
        samples = [10.0, 12.0, 11.0, 9.0, 13.0]
        mean, ci = mean_ci95(samples)
        assert mean == pytest.approx(11.0)
        assert ci == pytest.approx(2.776 * (2.5 ** 0.5 / 5 ** 0.5),
                                   rel=1e-3)

    def test_mean_ci95_constant(self):
        mean, ci = mean_ci95([4.0, 4.0, 4.0])
        assert mean == 4.0
        assert ci == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci95([])


class TestHostInfo:
    def test_keys(self):
        """The stamp every archived wall-clock result carries."""
        host = host_info()
        assert set(host) == {"cpu_count", "affinity", "python", "numpy"}
        assert host["cpu_count"] >= 1


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 2.5), (30, 4.0)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("bb")
        assert "2.50" in lines[2]

    def test_table_emit_archives(self, tmp_path, capsys):
        table = Table("My Table!", ("x",))
        table.add(1)
        table.note("a note")
        table.emit(str(tmp_path))
        printed = capsys.readouterr().out
        assert "My Table!" in printed
        archived = os.listdir(tmp_path)
        assert archived == ["my_table.txt"]
        assert "a note" in open(tmp_path / "my_table.txt").read()

    def test_emit_without_directory(self, capsys):
        table = Table("T", ("x",))
        table.add(1)
        table.emit()
        assert "T" in capsys.readouterr().out


class TestEnsureDataset:
    def test_generates_then_reuses(self, tmp_path):
        root = str(tmp_path)
        first = ensure_dataset(root, scale=0.1, n_steps=2,
                               files_per_snapshot=2)
        mtime = os.path.getmtime(
            os.path.join(first.directory, "manifest.json")
        )
        second = ensure_dataset(root, scale=0.1, n_steps=2,
                                files_per_snapshot=2)
        assert second.directory == first.directory
        assert os.path.getmtime(
            os.path.join(second.directory, "manifest.json")
        ) == mtime

    def test_different_params_different_dirs(self, tmp_path):
        a = ensure_dataset(str(tmp_path), scale=0.1, n_steps=2,
                           files_per_snapshot=2)
        b = ensure_dataset(str(tmp_path), scale=0.1, n_steps=3,
                           files_per_snapshot=2)
        assert a.directory != b.directory


class TestFigure3Harness:
    @pytest.fixture(scope="class")
    def workloads(self):
        godiva = IoProfile(20e6, 100, 10, 80, 8)
        original = IoProfile(25e6, 140, 25, 100, 8)
        return {
            test: TestWorkload(
                test=test, n_snapshots=4, original=original,
                godiva=godiva, compute_s=8.0,
            )
            for test in ("simple", "medium", "complex")
        }

    def test_engle_panel_versions(self, workloads):
        panel = run_figure3_panel(ENGLE, workloads, seeds=(0,))
        versions = {v for _t, v in panel.series}
        assert versions == {"O", "G", "TG"}
        assert panel.machine == "engle"

    def test_turing_panel_versions(self, workloads):
        panel = run_figure3_panel(TURING, workloads, seeds=(0,))
        versions = {v for _t, v in panel.series}
        assert versions == {"O", "G", "TG1", "TG2"}

    def test_tables_render(self, workloads, capsys):
        panel = run_figure3_panel(ENGLE, workloads, seeds=(0, 1))
        bars = panel_table(panel, "bars").render()
        assert "computation (s)" in bars
        metrics = derived_metrics_table(
            panel, "metrics", paper=PAPER_ENGLE
        ).render()
        assert "paper io_red" in metrics
        metrics_plain = derived_metrics_table(
            panel, "metrics-bare"
        ).render()
        assert "paper" not in metrics_plain

    def test_panel_means(self, workloads):
        panel = run_figure3_panel(ENGLE, workloads, seeds=(0, 1, 2))
        total = panel.mean_total("simple", "O")
        visible = panel.mean_visible("simple", "O")
        assert 0 < visible < total


class TestSummaryCli:
    def test_summary_renders_in_order(self, tmp_path, capsys):
        from repro.bench.summary import main, render_summary

        (tmp_path / "p1_parallel.txt").write_text("== P1 ==\nrow\n")
        (tmp_path / "a3_eviction.txt").write_text("== A3 ==\nrow\n")
        (tmp_path / "figure_3_a_engle.txt").write_text("== F3a ==\nx\n")
        text = render_summary(str(tmp_path))
        assert text.index("F3a") < text.index("P1") < text.index("A3")
        assert main([str(tmp_path)]) == 0
        assert "F3a" in capsys.readouterr().out

    def test_summary_empty_dir_hint(self, tmp_path):
        from repro.bench.summary import render_summary

        assert "no archived results" in render_summary(
            str(tmp_path / "nothing")
        )


def test_every_bench_driver_collects():
    """A dangling ``repro.bench.*`` import in any ``bench_*.py`` fails
    tier-1 here, not in a CI bench step."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), env.get("PYTHONPATH"),
    ]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "benchmarks"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
