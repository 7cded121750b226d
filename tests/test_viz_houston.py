"""Apollo/Houston client-server parallel mode."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ChildExitedError
from repro.viz.houston import HoustonCluster, HoustonConfig


@pytest.fixture(scope="module")
def cluster_dataset(tmp_path_factory):
    from repro.gen.snapshot import SnapshotSpec, generate_dataset
    from repro.gen.titan import TitanConfig

    directory = str(tmp_path_factory.mktemp("houston"))
    return generate_dataset(
        SnapshotSpec(config=TitanConfig.scaled(0.15), n_steps=3,
                     files_per_snapshot=2),
        directory,
    )


def make_cluster(dataset, n_servers=2, **kwargs):
    return HoustonCluster(HoustonConfig(
        data_dir=dataset.directory,
        test="simple",
        n_servers=n_servers,
        **kwargs,
    ))


class TestHouston:
    def test_view_renders(self, cluster_dataset):
        with make_cluster(cluster_dataset) as cluster:
            image = cluster.view(0)
            assert image.ndim == 3
            assert image.dtype == np.uint8
            # Something got drawn.
            assert len(np.unique(image.reshape(-1, 3), axis=0)) > 1
            assert cluster.views == 1
            assert cluster.total_bytes_read > 0

    def test_block_partition_covers_everything(self, cluster_dataset):
        with make_cluster(cluster_dataset, n_servers=3) as cluster:
            flat = [
                b for part in cluster.partitions for b in part
            ]
            assert sorted(flat) == sorted(cluster_dataset.block_ids)

    def test_matches_serial_apollo_image(self, cluster_dataset):
        """The distributed render equals the single-process one."""
        from repro.viz.apollo import ApolloSession

        with make_cluster(cluster_dataset, n_servers=2) as cluster:
            parallel_image = cluster.view(1)
        with ApolloSession(
            cluster_dataset.directory, test="simple",
            mem_mb=64.0, render=True,
        ) as session:
            serial_image = session.view(1)
        assert np.array_equal(parallel_image, serial_image)

    def test_revisit_hits_server_caches(self, cluster_dataset):
        with make_cluster(cluster_dataset) as cluster:
            cluster.view(0)
            bytes_after_first = cluster.total_bytes_read
            cluster.view(0)   # revisit: every server hits its cache
            assert cluster.total_bytes_read == bytes_after_first
            for stats in cluster.server_stats():
                assert stats["wait_hits"] >= 1

    def test_out_of_range(self, cluster_dataset):
        with make_cluster(cluster_dataset) as cluster:
            with pytest.raises(ValueError):
                cluster.view(99)

    def test_servers_see_disjoint_bytes(self, cluster_dataset):
        """Each server reads only its partition: the cluster total is
        below a full single-session load (shared per-file metadata is
        read by every server, so slightly above a perfect split)."""
        from repro.viz.apollo import ApolloSession

        with ApolloSession(
            cluster_dataset.directory, test="simple",
            mem_mb=64.0, render=False,
        ) as session:
            session.view(0)
            serial_bytes = session.stats.bytes_read
        with make_cluster(cluster_dataset, n_servers=2) as cluster:
            cluster.view(0)
            assert cluster.total_bytes_read < 1.5 * serial_bytes
            assert cluster.total_bytes_read > 0.9 * serial_bytes

    def test_dead_server_is_named_and_closes_the_cluster(
            self, cluster_dataset):
        """A SIGKILLed server: ``view`` raises naming it (not a bare
        ``EOFError`` / ``BrokenPipeError``) and closes the cluster, so
        no survivor's unread reply can answer a later view."""
        cluster = make_cluster(cluster_dataset, n_servers=2)
        try:
            cluster.view(0)
            (victim,) = [p for p in multiprocessing.active_children()
                         if p.name == "houston-1"]
            os.kill(victim.pid, signal.SIGKILL)
            t0 = time.monotonic()
            with pytest.raises(ChildExitedError,
                               match=r"houston-1 \(exitcode -9\)"):
                cluster.view(1)
            assert time.monotonic() - t0 < 5.0
            assert not [p for p in multiprocessing.active_children()
                        if p.name.startswith("houston-")]
            with pytest.raises(ChildExitedError):
                cluster.view(1)
        finally:
            cluster.close()
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("houston-")]
