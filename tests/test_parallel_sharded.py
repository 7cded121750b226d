"""ShardedGBO: real shard processes, byte-identity, budget protocol."""

import glob
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.child import Child
from repro.core.compute import usable_cores
from repro.core.database import GBO
from repro.errors import GodivaDeadlockError, GodivaError
from repro.io.readers import (
    make_snapshot_read_fn,
    snapshot_unit_name,
    solid_schema,
)
from repro.parallel.sharded import ShardedGBO, render_sharded
from repro.viz.camera import Camera
from repro.viz.gops import test_gops as make_test_gops
from repro.viz.pipeline import Pipeline
from repro.viz.voyager import GodivaSnapshotData

pytestmark = pytest.mark.races

TEST = "simple"
SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def serial_frames(dataset, mem_mb=64.0):
    """The single-process reference frames for the simple op-set."""
    gops = make_test_gops(TEST)
    camera = Camera.fit_bounds((-1.7, -1.7, 0.0), (1.7, 1.7, 10.0))
    pipeline = Pipeline(gops, camera=camera, render=True)
    gbo = GBO(mem_mb=mem_mb)
    read_fn = make_snapshot_read_fn(dataset, fields=gops.fields_used())
    solid_schema().ensure(gbo)
    steps = range(len(dataset.snapshots))
    for step in steps:
        gbo.add_unit(snapshot_unit_name(step), read_fn)
    frames = {}
    for step in steps:
        unit = snapshot_unit_name(step)
        gbo.wait_unit(unit)
        plan = pipeline.begin(GodivaSnapshotData(
            gbo, dataset.snapshots[step].tsid, dataset.block_ids,
        ))
        frames[step] = pipeline.finish(plan).image.tobytes()
        gbo.delete_unit(unit)
    gbo.close()
    return frames


@pytest.fixture
def force_spawn(monkeypatch):
    """Start every :class:`Child` by ``spawn`` — the path macOS, Windows
    and Python >= 3.14 take — instead of the platform default."""
    monkeypatch.setitem(Child.__init__.__kwdefaults__, "start_method",
                        "spawn")


class TestByteIdentity:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_shards_match_serial(self, small_dataset, n_shards):
        reference = serial_frames(small_dataset)
        result = render_sharded(
            small_dataset.directory, n_shards, test=TEST, mem_mb=64.0,
        )
        assert result.frames.keys() == reference.keys()
        for step, frame in result.frames.items():
            assert not frame.flags.writeable
            assert frame.tobytes() == reference[step]
        # Each shard rendered exactly its rendezvous-assigned steps (a
        # shard may draw none when units per shard get thin).
        assert {s.shard_id: s.n_frames for s in result.shards} == {
            shard_id: len(steps)
            for shard_id, steps in result.assignment.items()
        }

    def test_spawned_hosts_match_serial(self, small_dataset, force_spawn):
        self.test_shards_match_serial(small_dataset, 2)

    def test_hosts_started_beside_a_threaded_coordinator_match_serial(
            self, small_dataset):
        """On Linux a host forks from the coordinator, whatever runs
        there: here a GBO with two I/O workers loading every step, a
        started process compute pool, and a thread cycling the GBO's
        lock throughout."""
        reference = serial_frames(small_dataset)
        busy = GBO(mem_mb=64.0, io_workers=2, compute_workers=2,
                   compute_backend="process")
        stop = threading.Event()

        def cycle_lock():
            while not stop.is_set():
                with busy._lock:
                    pass

        cycler = threading.Thread(target=cycle_lock)
        cycler.start()
        try:
            assert busy.compute.procs
            read_fn = make_snapshot_read_fn(small_dataset)
            solid_schema().ensure(busy)
            for step in range(len(small_dataset.snapshots)):
                busy.add_unit(snapshot_unit_name(step), read_fn)
            result = render_sharded(
                small_dataset.directory, 2, test=TEST, mem_mb=64.0,
            )
        finally:
            stop.set()
            cycler.join(10.0)
            busy.close()
        assert not cycler.is_alive()
        assert result.frames.keys() == reference.keys()
        for step, frame in result.frames.items():
            assert frame.tobytes() == reference[step]

    def test_zero_copy_frames_valid_until_close(self, small_dataset):
        reference = serial_frames(small_dataset)
        with ShardedGBO(small_dataset.directory, 2, test=TEST,
                        mem_mb=64.0) as cluster:
            result = cluster.render_all()
            # Frames are read-only views over shard shared memory.
            for step, frame in result.frames.items():
                assert not frame.flags.writeable
                with pytest.raises(ValueError):
                    frame[0] = 0
                assert frame.tobytes() == reference[step]

    def test_shared_memory_released_after_close(self, small_dataset):
        before = set(glob.glob("/dev/shm/godiva-*"))
        with ShardedGBO(small_dataset.directory, 2, test=TEST,
                        mem_mb=64.0) as cluster:
            cluster.render_all()
        assert set(glob.glob("/dev/shm/godiva-*")) == before

    def test_two_fleets_at_once_stay_apart(self, small_dataset,
                                           tmp_path):
        """Two fleets on one host, in two processes as in the field: both
        are built before either renders, then both render at once. Every
        host arena takes its own shared-memory names, so no host's
        ``shm_open`` collides (``FileExistsError``) and no coordinator
        attaches the other fleet's frame."""
        reference = serial_frames(small_dataset)
        before = set(glob.glob("/dev/shm/godiva-*"))
        built, frames = tmp_path / "built", tmp_path / "frames.npz"
        script = (
            "import sys, numpy as np\n"
            "from repro.parallel.sharded import ShardedGBO\n"
            "data, test, built, out = sys.argv[1:]\n"
            "with ShardedGBO(data, 2, test=test, mem_mb=64.0) as fleet:\n"
            "    open(built, 'w').close()\n"
            "    result = fleet.render_all()\n"
            "    np.savez(out, **{str(k): v for k, v in "
            "result.frames.items()})\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            SRC_DIR, env.get("PYTHONPATH"),
        ]))
        with ShardedGBO(small_dataset.directory, 2, test=TEST,
                        mem_mb=64.0) as fleet:
            other = subprocess.Popen(
                [sys.executable, "-c", script, small_dataset.directory,
                 TEST, str(built), str(frames)],
                env=env, stderr=subprocess.PIPE, text=True,
            )
            deadline = time.monotonic() + 60.0
            while not built.exists() and other.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            result = fleet.render_all()
            _out, err = other.communicate(timeout=120.0)
            assert other.returncode == 0, err
            assert result.frames.keys() == reference.keys()
            for step, frame in result.frames.items():
                assert frame.tobytes() == reference[step]
        with np.load(frames) as theirs:
            assert {int(k) for k in theirs.files} == reference.keys()
            for step in reference:
                assert theirs[str(step)].tobytes() == reference[step]
        assert set(glob.glob("/dev/shm/godiva-*")) == before


class TestBudgetProtocol:
    def test_pressure_steals_budget_and_still_renders(
            self, small_dataset):
        """A slice too small for one step forces the pressure path:
        the coordinator work-steals slack from the peer, grants it,
        and every frame still comes out byte-identical."""
        reference = serial_frames(small_dataset)
        result = render_sharded(
            small_dataset.directory, 2, test=TEST,
            mem_mb=0.09375,          # slice 48 KiB < the ~64 KiB floor
            carveout_fraction=0.25,  # floors low -> stealable slack
            background_io=False,
        )
        assert result.pressure_rounds > 0
        assert result.reclaims > 0
        assert result.frames.keys() == reference.keys()
        for step, frame in result.frames.items():
            assert frame.tobytes() == reference[step]

    def test_ledger_tracks_victims(self, small_dataset):
        with ShardedGBO(small_dataset.directory, 2, test=TEST,
                        mem_mb=0.09375, carveout_fraction=0.25,
                        background_io=False) as cluster:
            result = cluster.render_all()
            assert result.pressure_rounds > 0
            snapshot = cluster.ledger_snapshot()
            assert set(snapshot) == {"shard0", "shard1"}
            evictions = sum(
                row["evictions"] for row in snapshot.values()
            )
            assert evictions == result.reclaims
            assert evictions > 0

    def test_no_slack_is_the_deadlock_verdict(self, small_dataset):
        """carveout_fraction=1.0 leaves nothing to steal: pressure is
        denied and the failure surfaces as GodivaDeadlockError."""
        with pytest.raises(GodivaDeadlockError):
            render_sharded(
                small_dataset.directory, 2, test=TEST,
                mem_mb=0.09375, carveout_fraction=1.0,
                background_io=False,
            )


def exit_at_startup(conn, spec):
    """A shard host that dies before it says anything — what every host
    of a spawned fleet does when the coordinator's script has no
    ``__main__`` guard (macOS, Python >= 3.14). On Linux a host forks,
    runs nothing of the script again, and such a script works."""
    os._exit(3)


#: Pause before each of ``shard1``'s frames in :func:`slow_shard1`.
PAUSE_S = 1.0


def slow_shard1(conn, spec):
    """A shard host whose ``shard1`` pauses before every frame, so it
    reports ``done`` seconds after ``shard0`` (each pause is shorter
    than the protocol timeout, so the run is never silent that long)."""
    from repro.parallel import sharded

    host = sharded._ShardHost(spec, conn)
    if spec.shard_id == "shard1":
        publish = host._publish_frame

        def paused_publish(*args):
            time.sleep(PAUSE_S)
            publish(*args)

        host._publish_frame = paused_publish
    host.run()


class TestDoneHosts:
    def test_done_host_waits_out_a_slow_peer(self, small_dataset,
                                             monkeypatch):
        """Regression: a done host waited ``protocol_timeout_s`` for its
        shutdown and then exited, so a peer still rendering turned the
        run into "shard0 exited without reporting". A done host now
        waits for the coordinator's shutdown (or its death) only."""
        from repro.parallel import sharded

        monkeypatch.setattr(sharded, "_shard_main", slow_shard1)
        reference = serial_frames(small_dataset)
        timeout = 2.0
        with ShardedGBO(small_dataset.directory, 2, test=TEST,
                        mem_mb=64.0, placement="weighted",
                        weights=[10.0, 1.0, 1.0, 1.0],
                        protocol_timeout_s=timeout) as fleet:
            # shard0 draws one step; shard1 three, one pause each.
            assert 3 * PAUSE_S > timeout > PAUSE_S
            result = fleet.render_all()
            assert result.frames.keys() == reference.keys()
            for step, frame in result.frames.items():
                assert frame.tobytes() == reference[step]
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("shard")]


class TestHostFailure:
    def test_host_dead_at_startup_fails_the_run_at_once(
            self, small_dataset, monkeypatch):
        """The coordinator learns of a host that exited without a
        ``done``/``error`` message from its liveness, within seconds —
        not from ``protocol_timeout_s`` (60 s) of silence."""
        from repro.parallel import sharded

        monkeypatch.setattr(sharded, "_shard_main", exit_at_startup)
        fleet = ShardedGBO(small_dataset.directory, 2, test=TEST,
                           mem_mb=64.0)
        assert fleet.protocol_timeout_s >= 60.0
        t0 = time.monotonic()
        with pytest.raises(GodivaError,
                           match=r"shard\d+ \(exitcode 3\)"):
            fleet.render_all()
        assert time.monotonic() - t0 < 5.0
        # _shutdown_shards still closed every host.
        assert fleet._hosts == {}
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("shard")]
        fleet.close()

    def test_spawned_host_dead_at_startup_fails_the_run_at_once(
            self, small_dataset, monkeypatch, force_spawn):
        self.test_host_dead_at_startup_fails_the_run_at_once(
            small_dataset, monkeypatch)


class TestValidation:
    def test_bad_placement(self, small_dataset):
        with pytest.raises(ValueError) as excinfo:
            ShardedGBO(small_dataset.directory, 2, placement="spiral")
        assert "rendezvous" in str(excinfo.value)

    def test_bad_shard_count(self, small_dataset):
        with pytest.raises(ValueError):
            ShardedGBO(small_dataset.directory, 0)

    def test_weighted_placement_assignment(self, small_dataset):
        cluster = ShardedGBO(
            small_dataset.directory, 2, placement="weighted",
            weights=[10.0, 1.0, 1.0, 1.0],
        )
        try:
            assert cluster.assignment["shard0"] == [0]
            assert cluster.assignment["shard1"] == [1, 2, 3]
        finally:
            cluster.close()

    @pytest.mark.parametrize("bad, message", [
        ({"io_workers": 0}, "io_workers must be at least 1"),
        ({"eviction_policy": "random"}, "unknown eviction policy 'random'"),
    ])
    def test_bad_engine_knob_fails_in_the_parent(self, small_dataset,
                                                 bad, message):
        """Regression: the coordinator checked the compute knobs but let
        these two through, so both hosts were spawned, each died in
        ``GBO.__init__``, and ``render_all`` reported an exit code with
        the ``ValueError`` text lost on the children's stderr."""
        segments = set(glob.glob("/dev/shm/godiva-*"))
        children = multiprocessing.active_children()
        with pytest.raises(ValueError, match=message):
            ShardedGBO(small_dataset.directory, 2, test=TEST, **bad)
        assert multiprocessing.active_children() == children
        assert set(glob.glob("/dev/shm/godiva-*")) == segments


class TestComputePlaneWiring:
    def test_compute_args_validated(self, small_dataset):
        with pytest.raises(ValueError):
            ShardedGBO(small_dataset.directory, 2, compute_workers=0)
        with pytest.raises(ValueError):
            ShardedGBO(small_dataset.directory, 2,
                       compute_backend="fibers")

    def test_shard_specs_divide_cores(self, small_dataset):
        """Oversubscription fix: every shard spec carries the per-shard
        thread cap (usable cores // n_shards, floored at one) alongside
        the requested compute plane."""
        sharded = ShardedGBO(small_dataset.directory, 2,
                             compute_workers=4,
                             compute_backend="process")
        expected = max(1, usable_cores() // 2)
        for spec in sharded._specs:
            assert spec.config.compute_workers == 4
            assert spec.config.compute_backend == "process"
            assert spec.config.compute_max_threads == expected
        sharded.close()

    def test_shard_cap_follows_the_affinity_mask(self, small_dataset,
                                                 monkeypatch):
        """A one-shard fleet on a 2-core host whose affinity mask leaves
        one CPU caps its host's compute threads at 1, not 2."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        fleet = ShardedGBO(small_dataset.directory, 1)
        try:
            assert [spec.config.compute_max_threads
                    for spec in fleet._specs] == [1]
        finally:
            fleet.close()
