"""Snapshot partitioning and the multi-process Voyager launcher."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.errors import ChildExitedError
from repro.parallel.launcher import ParallelResult, run_parallel_voyager
from repro.parallel.placement import partition_snapshots
from repro.viz.voyager import Voyager, VoyagerConfig


class TestPartitioning:
    def test_block_even_split(self):
        assert partition_snapshots(8, 4) == [
            [0, 1], [2, 3], [4, 5], [6, 7]
        ]

    def test_block_uneven_split(self):
        parts = partition_snapshots(10, 3)
        assert parts == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_every_snapshot_exactly_once(self):
        for n, w in ((13, 4), (4, 7), (0, 3)):
            parts = partition_snapshots(n, w)
            flat = sorted(i for part in parts for i in part)
            assert flat == list(range(n))
            assert len(parts) == w

    def test_more_workers_than_snapshots(self):
        parts = partition_snapshots(2, 5)
        assert sum(len(p) for p in parts) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            partition_snapshots(4, 0)
        with pytest.raises(ValueError):
            partition_snapshots(-1, 2)


def exit_in_worker(conn, config):
    """The first launcher worker dies without answering (what a killed
    or crashed Voyager pass looks like to the parent); the others stay
    mid-pass, neither answering nor reading their pipe, for a minute."""
    if 0 in config.snapshot_indices:
        os._exit(3)
    time.sleep(60.0)


class TestParallelRun:
    def base_config(self, dataset, **kwargs):
        kwargs.setdefault("render", False)
        return VoyagerConfig(
            data_dir=dataset.directory,
            test="simple",
            mode="G",
            mem_mb=64.0,
            **kwargs,
        )

    def test_inprocess_two_workers(self, small_dataset):
        result = run_parallel_voyager(
            self.base_config(small_dataset), n_workers=2,
            use_processes=False,
        )
        assert isinstance(result, ParallelResult)
        assert result.n_workers == 2
        assert result.n_snapshots == 4
        assert [w.n_snapshots for w in result.workers] == [2, 2]
        assert result.makespan_s > 0
        assert result.total_bytes_read > 0

    def test_volume_matches_serial(self, small_dataset):
        """Workers read disjoint snapshots: total volume equals the
        one-worker volume (the paper's near-zero-communication claim)."""
        serial = run_parallel_voyager(
            self.base_config(small_dataset), n_workers=1,
            use_processes=False,
        )
        parallel = run_parallel_voyager(
            self.base_config(small_dataset), n_workers=4,
            use_processes=False,
        )
        assert parallel.total_bytes_read == serial.total_bytes_read

    def test_multiprocess_run(self, small_dataset):
        result = run_parallel_voyager(
            self.base_config(small_dataset), n_workers=2,
            use_processes=True,
        )
        assert result.n_snapshots == 4
        assert all(w.bytes_read > 0 for w in result.workers)

    def test_parallel_images_match_serial(self, small_dataset,
                                          tmp_path):
        serial = Voyager(self.base_config(
            small_dataset, out_dir=str(tmp_path / "serial"),
            render=True,
        )).run()
        parallel = run_parallel_voyager(
            self.base_config(
                small_dataset, out_dir=str(tmp_path / "par"),
                render=True,
            ),
            n_workers=2, use_processes=False,
        )
        from viz_oracles import read_ppm

        parallel_images = sorted(
            path for worker in parallel.workers
            for path in worker.images
        )
        assert len(parallel_images) == len(serial.images)
        for a, b in zip(sorted(serial.images), parallel_images):
            assert np.array_equal(read_ppm(a), read_ppm(b))

    def test_steps_limit_respected(self, small_dataset):
        result = run_parallel_voyager(
            self.base_config(small_dataset, steps=3), n_workers=2,
            use_processes=False,
        )
        assert result.n_snapshots == 3


class TestWorkerFailure:
    def base_config(self, dataset, **kwargs):
        return VoyagerConfig(data_dir=dataset.directory, mode="G",
                             mem_mb=64.0, render=False, **kwargs)

    def test_dead_worker_is_named_not_waited_for(self, small_dataset,
                                                 monkeypatch):
        """Regression: ``Pool.map`` lost the task of a killed worker and
        never returned; the parent now names the dead worker at once,
        and terminates the survivor instead of joining its pass."""
        from repro.parallel import launcher

        monkeypatch.setattr(launcher, "_run_worker", exit_in_worker)
        t0 = time.monotonic()
        with pytest.raises(ChildExitedError,
                           match=r"voyager-w0 \(exitcode 3\)"):
            run_parallel_voyager(self.base_config(small_dataset),
                                 n_workers=2, use_processes=True)
        assert time.monotonic() - t0 < 5.0
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("voyager-w")]

    def test_worker_exception_is_reraised_in_the_parent(self,
                                                         small_dataset):
        """The op-set name resolves only inside the worker's pass, so
        its ``ValueError`` is raised there and re-raised here."""
        with pytest.raises(ValueError, match="no-such-test"):
            run_parallel_voyager(
                self.base_config(small_dataset, test="no-such-test"),
                n_workers=2, use_processes=True,
            )
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("voyager-w")]
