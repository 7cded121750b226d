"""Bit-identity of the tiled-parallel compute plane.

The contract under test (DESIGN.md, compute plane): for any op-set,
memory budget, and mode, frames produced with ``compute_workers > 1``
are **byte-for-byte identical** to the serial build's — tiling, fragment
batching, helping waiters, and frame pipelining change the schedule,
never the pixels.

Marked ``races`` so the sanitizer job replays the threaded paths under
the lockset race detector and lock-order graph.
"""

import contextlib
import threading

import numpy as np
import pytest
from pool_doubles import RecordingPool
from reference_raster import ReferenceRenderer

import repro.viz.render as render_module
from repro.core.compute import ComputePool
from repro.core.compute_proc import ProcessComputePool
from repro.core.database import GBO
from repro.errors import DatabaseClosedError
from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.isosurface import TriangleSoup
from repro.viz.render import Renderer
from repro.viz.voyager import Voyager, VoyagerConfig

pytestmark = pytest.mark.races


def run_frames(manifest, test, compute_workers, mode="TG",
               mem_mb=384.0, snapshot_indices=None):
    """Run one Voyager pass, capturing every frame in memory."""
    config = VoyagerConfig(
        data_dir=manifest.directory,
        test=test,
        mode=mode,
        mem_mb=mem_mb,
        compute_workers=compute_workers,
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


class TestVoyagerBitIdentity:
    @pytest.mark.parametrize("test", ["simple", "medium", "complex"])
    def test_tiled_parallel_matches_serial(self, small_dataset, test):
        serial, _ = run_frames(small_dataset, test, 1)
        tiled, result = run_frames(small_dataset, test, 4)
        assert len(serial) == len(tiled) == 4
        for a, b in zip(serial, tiled):
            assert np.array_equal(a, b)
        assert result.gbo_stats["compute_tasks"] > 0

    def test_identity_under_squeezed_budget(self, small_dataset):
        # A budget tight enough to force evictions between snapshots:
        # the lookahead must degrade to the serial schedule (its
        # try_wait_unit misses) without deadlocking or diverging.
        serial, _ = run_frames(small_dataset, "complex", 1, mem_mb=24.0)
        tiled, _ = run_frames(small_dataset, "complex", 4, mem_mb=24.0)
        for a, b in zip(serial, tiled):
            assert np.array_equal(a, b)

    def test_identity_in_original_mode(self, small_dataset):
        # The O build has no GBO; the standalone pool still tiles.
        serial, _ = run_frames(small_dataset, "medium", 1, mode="O")
        tiled, _ = run_frames(small_dataset, "medium", 4, mode="O")
        for a, b in zip(serial, tiled):
            assert np.array_equal(a, b)

    def test_identity_across_modes(self, small_dataset):
        o_frames, _ = run_frames(small_dataset, "simple", 4, mode="O")
        tg_frames, _ = run_frames(small_dataset, "simple", 4, mode="TG")
        for a, b in zip(o_frames, tg_frames):
            assert np.array_equal(a, b)

    def test_identity_with_revisits(self, small_dataset):
        # Revisits exercise the frame cache (pool skipped entirely) and
        # the finish/delete bookkeeping under the lookahead.
        schedule = [0, 1, 0, 2, 2, 1]
        serial, r1 = run_frames(small_dataset, "simple", 1,
                                snapshot_indices=schedule)
        tiled, r4 = run_frames(small_dataset, "simple", 4,
                               snapshot_indices=schedule)
        assert len(serial) == len(tiled) == len(schedule)
        for a, b in zip(serial, tiled):
            assert np.array_equal(a, b)
        assert r4.triangles == r1.triangles

    def test_written_images_byte_identical(self, small_dataset,
                                           tmp_path):
        # The on-disk artifacts, not just the in-memory arrays.
        for workers, sub in ((1, "serial"), (4, "tiled")):
            config = VoyagerConfig(
                data_dir=small_dataset.directory,
                test="simple",
                mode="TG",
                compute_workers=workers,
                out_dir=str(tmp_path / sub),
                steps=2,
            )
            Voyager(config).run()
        for name in sorted(p.name for p in (tmp_path / "serial").iterdir()):
            a = (tmp_path / "serial" / name).read_bytes()
            b = (tmp_path / "tiled" / name).read_bytes()
            assert a == b


def camera(width=64, height=64):
    return Camera(position=(0.0, -5.0, 0.0), look_at=(0.0, 0.0, 0.0),
                  up=(0, 0, 1), width=width, height=height)


def random_soup(n, seed, spread=2.0, behind=0):
    rng = np.random.default_rng(seed)
    verts = rng.uniform(-spread, spread, size=(n, 3, 3))
    if behind:
        # Push one vertex of the first `behind` triangles behind the
        # camera (y <= -5 is behind a camera at y=-5 looking at +y).
        verts[:behind, 0, 1] = -6.0
    values = rng.uniform(0.0, 1.0, size=(n, 3))
    return TriangleSoup(verts, values)


def adversarial_soup(seed, shuffled=False):
    """Everything the compositor has a rule for, in one soup: triangles
    straddling tile seams (and spanning the whole frame), duplicate
    coplanar pairs with different colors, off-screen and
    screen-degenerate triangles, and near-plane-culled ones."""
    rng = np.random.default_rng(seed)
    medium = random_soup(60, seed).vertices
    huge = random_soup(6, seed + 1, spread=6.0).vertices
    duplicates = medium[:8]
    offscreen = random_soup(5, seed + 2).vertices + (80.0, 0.0, 0.0)
    degenerate = random_soup(5, seed + 3).vertices
    degenerate[:3, 1] = degenerate[:3, 0]          # zero-area
    degenerate[3:, 2] = 2.0 * degenerate[3:, 1] - degenerate[3:, 0]
    culled = random_soup(7, seed + 4, behind=7).vertices
    verts = np.concatenate(
        [medium, huge, duplicates, offscreen, degenerate, culled]
    )
    values = rng.uniform(0.0, 1.0, size=(len(verts), 3))
    if shuffled:
        order = rng.permutation(len(verts))
        verts, values = verts[order], values[order]
    return TriangleSoup(verts, values)


class CountingLock:
    """A lock double that counts acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


@contextlib.contextmanager
def schedule(kind):
    """The pool for one of the four placements a tile can get."""
    if kind == "inline":
        yield None
    elif kind == "pool1":
        with ComputePool(1) as pool:
            yield pool
    elif kind == "threads":
        with ComputePool(4, spawn_threads=2) as pool:
            yield pool
    else:
        with ProcessComputePool(2, spawn_procs=2,
                                start_method="fork") as pool:
            yield pool


SCHEDULES = ["inline", "pool1", "threads", "process"]
#: Read once: the batch tests monkeypatch the module attribute.
SHIPPED_BATCH = render_module.FRAGMENT_BATCH


def assert_same_render(renderer, oracle):
    assert np.array_equal(renderer._zbuffer, oracle._zbuffer)
    assert np.array_equal(renderer._frame, oracle._frame)
    assert np.array_equal(renderer.image(), oracle.image())
    assert renderer.triangles_culled == oracle.triangles_culled
    assert renderer.triangles_drawn == oracle.triangles_drawn


class TestRendererBitIdentity:
    """Every schedule of the one rasterizer against the per-triangle
    reference loop (``tests/reference_raster.py``)."""

    def draw_both(self, soup):
        oracle = ReferenceRenderer(camera())
        oracle.draw(soup, Colormap("rainbow"))
        inline = Renderer(camera())
        inline.draw(soup, Colormap("rainbow"))
        assert_same_render(inline, oracle)
        with ComputePool(4, spawn_threads=2) as pool:
            tiled = Renderer(camera(), pool=pool)
            tiled.draw(soup, Colormap("rainbow"))
        assert tiled.fragments_evaluated == inline.fragments_evaluated > 0
        return oracle, tiled

    def test_random_soup_identical(self):
        oracle, tiled = self.draw_both(random_soup(200, seed=7))
        assert_same_render(tiled, oracle)

    def test_duplicate_coplanar_triangles_tie_break(self):
        # Identical triangles produce identical depths at every covered
        # pixel: the reference rule keeps the *first* submission (strict
        # z < zbuffer). The compositor must pick the same winner.
        base = random_soup(8, seed=3)
        dup = TriangleSoup(
            np.concatenate([base.vertices, base.vertices]),
            np.concatenate([base.values, 1.0 - base.values]),
        )
        oracle, tiled = self.draw_both(dup)
        assert_same_render(tiled, oracle)

    def test_near_plane_cull_parity(self):
        soup = random_soup(50, seed=11, behind=10)
        oracle, tiled = self.draw_both(soup)
        assert oracle.triangles_culled == tiled.triangles_culled == 10
        assert_same_render(tiled, oracle)

    @pytest.mark.parametrize("shuffled", [False, True],
                             ids=["submitted", "shuffled"])
    @pytest.mark.parametrize("size", [(64, 64), (150, 100)],
                             ids=["one-tile", "ragged-tiles"])
    @pytest.mark.parametrize("kind", SCHEDULES)
    def test_schedules_match_oracle(self, kind, size, shuffled):
        soup = adversarial_soup(seed=5, shuffled=shuffled)
        second = random_soup(40, seed=9)
        oracle = ReferenceRenderer(camera(*size))
        oracle.draw(soup, Colormap("rainbow"))
        oracle.draw(second, Colormap("gray"))
        with schedule(kind) as pool:
            renderer = Renderer(camera(*size), pool=pool)
            renderer.draw(soup, Colormap("rainbow"))
            # A second draw composites over the first's z-buffer.
            renderer.draw(second, Colormap("gray"))
            if kind in ("threads", "process"):
                assert pool.stats.compute_tasks > 0
        assert oracle.triangles_culled >= 7
        assert_same_render(renderer, oracle)

    def assert_batches_match_oracle(self, monkeypatch, size, draws):
        """The oracle against the inline renderer with FRAGMENT_BATCH
        at 1 (every triangle a run of its own), 64 and the shipped
        value: equal to the oracle, hence to each other."""
        oracle = ReferenceRenderer(camera(*size))
        for soup in draws:
            oracle.draw(soup, Colormap("rainbow"))
        fragments = set()
        for batch in (1, 64, SHIPPED_BATCH):
            monkeypatch.setattr(render_module, "FRAGMENT_BATCH", batch)
            renderer = Renderer(camera(*size))
            for soup in draws:
                renderer.draw(soup, Colormap("rainbow"))
            assert_same_render(renderer, oracle)
            fragments.add(renderer.fragments_evaluated)
        assert len(fragments) == 1
        return oracle

    def test_tie_break_across_batch_boundary(self, monkeypatch):
        # A coplanar pair with different colors, in front of everything
        # and separated by more filler fragments than one batch holds:
        # the two land in different runs at every batch size, and the
        # first submission must still win.
        front = random_soup(1, seed=2, spread=1.0).vertices
        front[:, :, 1] = -3.0
        filler = random_soup(60, seed=4)
        counted = Renderer(camera())
        counted.draw(filler, Colormap("rainbow"))
        assert counted.fragments_evaluated > SHIPPED_BATCH
        vertices = np.concatenate([front, filler.vertices, front])
        values = [np.zeros((1, 3)), filler.values, np.ones((1, 3))]
        soups = [TriangleSoup(vertices, np.concatenate(colored))
                 for colored in (values, values[::-1])]
        first, swapped = (
            self.assert_batches_match_oracle(monkeypatch, (64, 64), [soup])
            for soup in soups
        )
        assert np.isfinite(first._zbuffer).any()
        assert np.array_equal(first._zbuffer, swapped._zbuffer)
        assert not np.array_equal(first._frame, swapped._frame)

    def test_triangle_larger_than_a_batch(self, monkeypatch):
        # Frame-spanning triangles: at batch 1 and 64 every clipped
        # bbox alone exceeds the batch and runs on its own.
        soup = random_soup(12, seed=6, spread=6.0)
        self.assert_batches_match_oracle(monkeypatch, (150, 100), [soup])

    def test_small_shuffled_triangles_at_any_batch(self, monkeypatch):
        # 2 000 small triangles in spatially incoherent order over a
        # 4 x 4 tile frame: consecutive triangles share no pixels, so a
        # run's fragments scatter over its whole tile.
        rng = np.random.default_rng(8)
        centers = rng.uniform(-1.5, 1.5, size=(2000, 1, 3))
        soup = TriangleSoup(
            centers + rng.uniform(-0.05, 0.05, size=(2000, 3, 3)),
            rng.uniform(0.0, 1.0, size=(2000, 3)),
        )
        self.assert_batches_match_oracle(monkeypatch, (256, 256), [soup])

    def test_second_draw_over_first_at_any_batch(self, monkeypatch):
        # The strict < is against the buffer before the run, and that
        # buffer already holds another draw's depths.
        self.assert_batches_match_oracle(
            monkeypatch, (150, 100),
            [adversarial_soup(seed=5, shuffled=True),
             random_soup(40, seed=9)],
        )

    def test_adversarial_soup_straddles_seams(self):
        # The matrix above only tests seams if bboxes really cross the
        # x=64/128 and y=64 tile edges of the 150x100 frame.
        xy, depth = camera(150, 100).project(
            adversarial_soup(seed=5).vertices.reshape(-1, 3)
        )
        xy = xy.reshape(-1, 3, 2)[np.all(depth.reshape(-1, 3) > 0, axis=1)]
        lo, hi = xy.min(axis=1), xy.max(axis=1)
        for axis, seam in ((0, 64), (0, 128), (1, 64)):
            crossing = (lo[:, axis] < seam) & (hi[:, axis] > seam)
            assert crossing.sum() >= 5

    def test_serial_build_composites_inline(self):
        # No pool, or a workers=1 pool: same kernel, run in place — no
        # task object, no thread, and the pool lock is never taken.
        threads_before = threading.active_count()
        lock = CountingLock()
        pool = ComputePool(1, lock=lock, cond=threading.Condition(lock))
        soup = random_soup(10, seed=1)
        oracle = ReferenceRenderer(camera())
        oracle.draw(soup, Colormap("gray"))
        for attached in (None, pool):
            renderer = Renderer(camera(), pool=attached)
            renderer.draw(soup, Colormap("gray"))
            assert_same_render(renderer, oracle)
        assert pool.stats.compute_tasks == 0
        assert lock.acquisitions == 0
        assert threading.active_count() == threads_before
        pool.close()

    def test_failed_tile_releases_every_task(self, monkeypatch):
        # One of several tile tasks raises: the original exception
        # propagates and no task keeps its result extent.
        pool = RecordingPool()
        real = render_module._composite_fragments
        calls = []

        def flaky(*args):
            calls.append(args)
            if len(calls) == 2:
                raise FloatingPointError("tile kernel failed")
            return real(*args)

        monkeypatch.setattr(render_module, "_composite_fragments", flaky)
        renderer = Renderer(camera(150, 100), pool=pool)
        with pytest.raises(FloatingPointError, match="tile kernel"):
            renderer.draw(adversarial_soup(seed=5), Colormap("gray"))
        assert len(pool.tasks) == 6           # 3 x 2 tiles
        assert [task.waited for task in pool.tasks] == [True] * 2 + [False] * 4
        assert all(task.released for task in pool.tasks)


class TestTryWaitUnit:
    def test_miss_on_unknown_unit(self, gbo):
        assert gbo.try_wait_unit("nope") is False

    def test_hit_pins_resident_unit(self, gbo):
        gbo.add_unit("u", lambda db, name: None)
        gbo.wait_unit("u")
        gbo.finish_unit("u")
        before = gbo.stats.wait_hits
        assert gbo.try_wait_unit("u") is True
        assert gbo.stats.wait_hits == before + 1
        # The pin must keep the unit out of the evictable set.
        assert "u" not in gbo._mem.policy
        gbo.finish_unit("u")

    def test_raises_once_closed(self, gbo):
        gbo.close()
        with pytest.raises(DatabaseClosedError):
            gbo.try_wait_unit("u")


class TestEnginePool:
    def test_gbo_owns_a_compute_pool(self):
        with GBO(mem_mb=32, compute_workers=3) as database:
            assert database.compute_workers == 3
            assert database.compute.parallel
            assert database.compute.submit(lambda: 5).wait() == 5
        assert database.compute.closed

    def test_compute_workers_validated(self):
        with pytest.raises(ValueError):
            GBO(mem_mb=32, compute_workers=0)

    def test_default_pool_is_serial(self, gbo):
        assert gbo.compute_workers == 1
        assert not gbo.compute.parallel
