"""Simulated parallel Voyager scaling (shared vs private disks)."""

import pytest

from repro.simulate import simulate_cluster_voyager
from repro.simulate.machine import TURING
from repro.simulate.workload import IoProfile, TestWorkload


def workload(n=16, compute_s=8.0):
    godiva = IoProfile(bytes_read=20e6, read_calls=100,
                       seeks=10, settles=80, opens=8)
    original = IoProfile(bytes_read=25e6, read_calls=140,
                         seeks=25, settles=100, opens=8)
    return TestWorkload(
        test="cluster", n_snapshots=n,
        original=original, godiva=godiva, compute_s=compute_s,
    )


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            simulate_cluster_voyager(TURING, workload(), "O", 2)

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            simulate_cluster_voyager(TURING, workload(), "G", 0)


class TestScaling:
    def test_single_worker_matches_runner(self):
        """n_workers=1 is the sequential simulation, event for event:
        both replay the one node loop."""
        from repro.simulate.runner import simulate_voyager

        w = workload()
        for mode in ("G", "TG"):
            cluster = simulate_cluster_voyager(TURING, w, mode, 1)
            serial = simulate_voyager(TURING, w, mode)
            assert cluster.makespan_s == serial.total_s
            assert cluster.total_visible_io_s == serial.visible_io_s
            assert cluster.disk_busy_s == serial.disk_busy_s

    def test_private_disks_scale_nearly_linearly(self):
        w = workload(n=16)
        serial = simulate_cluster_voyager(TURING, w, "G", 1)
        quad = simulate_cluster_voyager(TURING, w, "G", 4,
                                        shared_disk=False)
        assert 3.5 < quad.speedup_vs(serial) <= 4.01

    def test_all_units_processed(self):
        w = workload(n=13)   # uneven split
        run = simulate_cluster_voyager(TURING, w, "TG", 4)
        assert sum(worker.n_units for worker in run.workers) == 13

    def test_shared_disk_never_faster_than_private(self):
        w = workload(n=16)
        for mode in ("G", "TG"):
            shared = simulate_cluster_voyager(
                TURING, w, mode, 4, shared_disk=True
            )
            private = simulate_cluster_voyager(
                TURING, w, mode, 4, shared_disk=False
            )
            assert shared.makespan_s >= private.makespan_s - 1e-9

    def test_shared_disk_floor_is_total_device_time(self):
        """With enough workers the shared device serializes: makespan
        >= total disk service time."""
        w = workload(n=32, compute_s=1.0)
        run = simulate_cluster_voyager(TURING, w, "TG", 8,
                                       shared_disk=True)
        total_disk = 32 * w.godiva.disk_seconds(TURING.disk)
        assert run.makespan_s >= total_disk - 1e-9
        assert run.disk_busy_s == pytest.approx(total_disk)

    def test_tg_beats_g_per_worker(self):
        """The paper's parallel claim: GODIVA's sequential-mode benefit
        carries into the partitioned parallel runs."""
        w = workload(n=16)
        for n_workers in (2, 4):
            g = simulate_cluster_voyager(TURING, w, "G", n_workers)
            tg = simulate_cluster_voyager(TURING, w, "TG", n_workers)
            assert tg.makespan_s < g.makespan_s
            # Each worker pays its own first-unit cold wait, so the
            # floor grows with n_workers; still a large reduction.
            assert tg.total_visible_io_s < 0.3 * g.total_visible_io_s

    def test_disk_busy_private_sums_all(self):
        w = workload(n=8)
        run = simulate_cluster_voyager(TURING, w, "G", 4,
                                       shared_disk=False)
        expected = 8 * w.godiva.disk_seconds(TURING.disk)
        assert run.disk_busy_s == pytest.approx(expected)
