"""Bit-identity of the process-backed compute plane, end to end.

The contract under test (DESIGN.md, compute plane): frames and
triangle soups produced with ``compute_backend="process"`` are
**byte-for-byte identical** to the serial build's — token transport,
worker-local compositing, and sub-block marching-tets change where
the floats are computed, never their values or order.

Marked ``races`` so the sanitizer replays the coordinator locking.
"""

import os

import numpy as np
import pytest

import repro.viz.pipeline as pipeline_module
from repro.core.compute import ComputePool
from repro.core.compute_proc import ProcessComputePool
from repro.core.database import GBO
from repro.viz.isosurface import (
    marching_tets,
    marching_tets_pieces,
    merge_tet_pieces,
)
from repro.viz.voyager import Voyager, VoyagerConfig

pytestmark = pytest.mark.races


def _shm_entries(prefix):
    try:
        return [n for n in os.listdir("/dev/shm") if prefix in n]
    except FileNotFoundError:
        return []


def _random_mesh(n_nodes=400, n_tets=900, seed=3):
    rng = np.random.default_rng(seed)
    nodes = rng.normal(size=(n_nodes, 3))
    tets = rng.integers(0, n_nodes, size=(n_tets, 4))
    levels = rng.normal(size=n_nodes)
    carry = rng.normal(size=n_nodes)
    return nodes, tets, levels, carry


def run_frames(manifest, test, compute_workers, compute_backend,
               mode="TG", snapshot_indices=None):
    """Run one Voyager pass, capturing every frame in memory."""
    config = VoyagerConfig(
        data_dir=manifest.directory,
        test=test,
        mode=mode,
        mem_mb=384.0,
        compute_workers=compute_workers,
        compute_backend=compute_backend,
        render=True,
        snapshot_indices=snapshot_indices,
    )
    voyager = Voyager(config)
    frames = []
    voyager._maybe_write_image = (
        lambda step, image, images: frames.append(image.copy())
    )
    result = voyager.run()
    return frames, result


class TestSubBlockExtraction:
    """The sub-block kernel's merge is byte-identical by construction."""

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 7])
    def test_merge_matches_whole_block(self, n_chunks):
        nodes, tets, levels, carry = _random_mesh()
        whole = marching_tets(nodes, tets, levels, 0.1,
                              carry_values=carry)
        bounds = np.linspace(0, len(tets), n_chunks + 1).astype(int)
        chunks = [
            marching_tets_pieces(nodes, tets, levels, 0.1,
                                 int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        merged = merge_tet_pieces(chunks, len(nodes)).carry(carry)
        assert merged.vertices.tobytes() == whole.vertices.tobytes()
        assert merged.values.tobytes() == whole.values.tobytes()

    def test_merge_without_carry(self):
        nodes, tets, levels, _carry = _random_mesh(seed=11)
        whole = marching_tets(nodes, tets, levels, -0.2)
        chunks = [
            marching_tets_pieces(nodes, tets, levels, -0.2, lo, hi)
            for lo, hi in ((0, 300), (300, 900))
        ]
        merged = merge_tet_pieces(chunks, len(nodes)).carry(levels)
        assert merged.vertices.tobytes() == whole.vertices.tobytes()
        assert merged.values.tobytes() == whole.values.tobytes()

    def test_pieces_dispatchable_on_process_pool(self):
        """The kernel round-trips through real worker processes."""
        nodes, tets, levels, carry = _random_mesh()
        whole = marching_tets(nodes, tets, levels, 0.1,
                              carry_values=carry)
        with ProcessComputePool(2, spawn_procs=2,
                                start_method="fork") as pool:
            shared = [pool.share(np.ascontiguousarray(a))
                      for a in (nodes, tets, levels)]
            tasks = [
                pool.submit(marching_tets_pieces, shared[0], shared[1],
                            shared[2], 0.1, lo, hi)
                for lo, hi in ((0, 450), (450, 900))
            ]
            merged = merge_tet_pieces([t.wait() for t in tasks],
                                      len(nodes)).carry(carry)
        assert merged.vertices.tobytes() == whole.vertices.tobytes()
        assert merged.values.tobytes() == whole.values.tobytes()


class TestProcessBackendVoyager:
    def test_process_frames_match_serial(self, small_dataset, monkeypatch):
        # Tiles composite inline on every pool; a small extraction
        # grain splits the small dataset's tets into range tasks that
        # exercise the token transport.
        monkeypatch.setattr(pipeline_module, "SUBBLOCK_MIN_TETS", 256)
        serial, _ = run_frames(small_dataset, "complex", 1, "thread",
                               snapshot_indices=[0, 1])
        proc, result = run_frames(small_dataset, "complex", 4,
                                  "process", snapshot_indices=[0, 1])
        assert len(serial) == len(proc) == 2
        for a, b in zip(serial, proc):
            assert np.array_equal(a, b)
        assert result.gbo_stats["compute_tasks"] > 0

    def test_thread_backend_still_matches(self, small_dataset):
        """The thread path (now sub-block-splitting) stays identical."""
        serial, _ = run_frames(small_dataset, "medium", 1, "thread",
                               snapshot_indices=[0])
        threaded, _ = run_frames(small_dataset, "medium", 4, "thread",
                                 snapshot_indices=[0])
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def test_original_mode_process_backend(self, small_dataset):
        """The O build's private pool honours the backend too."""
        serial, _ = run_frames(small_dataset, "simple", 1, "thread",
                               mode="O", snapshot_indices=[0])
        proc, _ = run_frames(small_dataset, "simple", 2, "process",
                             mode="O", snapshot_indices=[0])
        for a, b in zip(serial, proc):
            assert np.array_equal(a, b)


class TestGBOBackendWiring:
    def test_backend_validated(self):
        with pytest.raises(ValueError, match="compute_backend"):
            GBO(mem_mb=64.0, compute_backend="greenlet")

    def test_thread_backend_is_default(self):
        with GBO(mem_mb=64.0, compute_workers=2) as gbo:
            assert gbo.compute_backend == "thread"
            assert isinstance(gbo.compute, ComputePool)

    def test_process_backend_owns_an_arena(self):
        """No injected arena: the GBO creates one for the token path
        and tears it down (no /dev/shm residue) at close."""
        gbo = GBO(mem_mb=64.0, compute_workers=2,
                  compute_backend="process")
        assert gbo.compute_backend == "process"
        assert isinstance(gbo.compute, ProcessComputePool)
        prefix = gbo.compute.shm_prefix
        gbo.close()
        assert _shm_entries(prefix) == []

    def test_serial_process_backend_never_forks(self):
        with GBO(mem_mb=64.0, compute_workers=1,
                 compute_backend="process") as gbo:
            assert isinstance(gbo.compute, ComputePool)
