"""Arena seam: cross-process view discipline, leaks, byte-identity."""

import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.arena import HeapArena
from repro.core.shared_arena import AttachCache, SharedMemoryArena
from repro.core.database import GBO
from repro.errors import ArenaError
from repro.io.readers import (
    make_snapshot_read_fn,
    snapshot_unit_name,
    solid_schema,
)
from repro.viz.camera import Camera
from repro.viz.gops import test_gops as make_test_gops
from repro.viz.pipeline import Pipeline
from repro.viz.voyager import GodivaSnapshotData

pytestmark = pytest.mark.races


def _shm_entries():
    return set(glob.glob("/dev/shm/godiva-*"))


def _child_try_write(token, out_q):
    """Spawn target: attach a sealed buffer and try to mutate it."""
    cache = AttachCache()
    try:
        view = cache.attach(token)
        try:
            view[0] = 99
            out_q.put("wrote")
        except (ValueError, TypeError) as err:
            out_q.put(type(err).__name__)
        try:
            view.flags.writeable = True
            out_q.put("flipped")
        except ValueError:
            out_q.put("flip-blocked")
        del view
    finally:
        cache.close()


class TestCrossProcessDiscipline:
    def test_child_mutation_raises(self):
        """A sealed buffer attached in another process is read-only:
        writes raise there, and the flag cannot be flipped back."""
        arena = SharedMemoryArena(name_prefix="godiva-xproc")
        try:
            array = arena.allocate(dtype=np.float32, shape=(16,))
            array[:] = np.arange(16, dtype=np.float32)
            arena.seal(array)
            token = arena.export_token(array)

            ctx = multiprocessing.get_context("spawn")
            out_q = ctx.Queue()
            child = ctx.Process(target=_child_try_write,
                                args=(token, out_q))
            child.start()
            verdicts = [out_q.get(timeout=30), out_q.get(timeout=30)]
            child.join(timeout=30)
            assert child.exitcode == 0
            assert verdicts == ["ValueError", "flip-blocked"]
            # The parent's sealed bytes were never touched.
            assert array[0] == 0.0
        finally:
            arena.close()

    def test_export_requires_seal(self):
        arena = SharedMemoryArena(name_prefix="godiva-seal")
        try:
            array = arena.allocate(nbytes=64)
            with pytest.raises(ArenaError):
                arena.export_token(array)
        finally:
            arena.close()

    def test_heap_arena_tokens_not_shareable(self):
        arena = HeapArena()
        array = arena.allocate(nbytes=64)
        arena.seal(array)
        with pytest.raises(ArenaError):
            arena.export_token(array)


class TestLeakFreedom:
    def test_attach_detach_leak_free(self):
        """Repeated attach/detach cycles leave /dev/shm exactly as
        found once the creating arena closes."""
        before = _shm_entries()
        arena = SharedMemoryArena(name_prefix="godiva-leak")
        array = arena.allocate(dtype=np.uint8, shape=(1024,))
        array[:] = 7
        arena.seal(array)
        token = arena.export_token(array)
        for _ in range(20):
            cache = AttachCache()
            view = cache.attach(token)
            # One mapping per segment: a second attach is the same pages.
            assert np.shares_memory(view, cache.attach(token))
            assert view[0] == 7
            assert not view.flags.writeable
            del view
            cache.close()
            cache.close()  # idempotent
        arena.release(array)
        arena.close()
        assert _shm_entries() == before

    def test_close_is_idempotent(self):
        before = _shm_entries()
        arena = SharedMemoryArena(name_prefix="godiva-idem")
        arena.allocate(nbytes=128)
        arena.close()
        arena.close()
        assert _shm_entries() == before


def _render_complex(dataset, gbo):
    """The serial complex-test G loop over every snapshot."""
    gops = make_test_gops("complex")
    camera = Camera.fit_bounds((-1.7, -1.7, 0.0), (1.7, 1.7, 10.0))
    pipeline = Pipeline(gops, camera=camera, render=True)
    read_fn = make_snapshot_read_fn(dataset, fields=gops.fields_used())
    solid_schema().ensure(gbo)
    steps = range(len(dataset.snapshots))
    for step in steps:
        gbo.add_unit(snapshot_unit_name(step), read_fn)
    frames = {}
    triangles = 0
    for step in steps:
        unit = snapshot_unit_name(step)
        gbo.wait_unit(unit)
        plan = pipeline.begin(GodivaSnapshotData(
            gbo, dataset.snapshots[step].tsid, dataset.block_ids,
        ))
        result = pipeline.finish(plan)
        frames[step] = result.image.tobytes()
        triangles += result.triangles
        gbo.delete_unit(unit)
    gbo.close()
    return frames, triangles


class TestHeapArenaByteIdentity:
    def test_explicit_heap_arena_matches_default(self, small_dataset):
        """The arena seam is byte-transparent: an engine running over
        an explicit HeapArena renders the complex op-set exactly as
        the default engine does."""
        default_frames, default_tris = _render_complex(
            small_dataset, GBO(mem_mb=64.0)
        )
        arena_frames, arena_tris = _render_complex(
            small_dataset, GBO(mem_mb=64.0, arena=HeapArena())
        )
        assert arena_tris == default_tris
        assert arena_frames == default_frames

    def test_shared_memory_arena_matches_default(self, small_dataset):
        """And so is the shared-memory arena, in-process."""
        before = _shm_entries()
        default_frames, _tris = _render_complex(
            small_dataset, GBO(mem_mb=64.0)
        )
        arena = SharedMemoryArena(name_prefix="godiva-ident")
        shm_frames, _tris = _render_complex(
            small_dataset, GBO(mem_mb=64.0, arena=arena)
        )
        arena.close()
        assert shm_frames == default_frames
        assert _shm_entries() == before
