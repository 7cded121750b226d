"""ShardedGBO: real shard processes, byte-identity, fixed budgets."""

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


#: The smallest per-shard budget, in bytes, at which a host renders
#: every step of ``small_dataset`` under the ``simple`` op-set: found by
#: bisecting the budget of the host loop (with ``background_io=False``;
#: the background loader fits it too). One byte less fails step 0.
SMALLEST_SLICE = 49_392


class TestFixedBudget:
    def test_smallest_static_slice_still_renders(self, small_dataset):
        """Each host's budget is the global budget over the shard
        count, fixed for the run. At the smallest slice that holds a
        step, every frame is byte-identical to the serial build; one
        byte less is the deadlock verdict."""
        reference = serial_frames(small_dataset)
        mem_mb = 2 * SMALLEST_SLICE / (1024 * 1024)
        with ShardedGBO(small_dataset.directory, 2, test=TEST,
                        mem_mb=mem_mb, background_io=False) as fleet:
            assert [spec.config.budget_bytes
                    for spec in fleet._specs] == [SMALLEST_SLICE] * 2
            result = fleet.render_all()
            assert result.frames.keys() == reference.keys()
            for step, frame in result.frames.items():
                assert frame.tobytes() == reference[step]
            assert result.pressure_rounds == result.reclaims == 0
        with pytest.raises(GodivaDeadlockError,
                           match=f"fixed {SMALLEST_SLICE - 1} B budget"):
            render_sharded(small_dataset.directory, 2, test=TEST,
                           mem_mb=mem_mb - 2 / (1024 * 1024),
                           background_io=False)

    def test_a_slice_too_small_for_a_step_is_the_verdict_at_once(
            self, small_dataset):
        """A 48 KiB slice cannot hold one step. The host's budget
        failure — a MemoryBudgetError wrapped in ReadFunctionError when
        the load runs in the foreground, the engine's own deadlock
        verdict when the I/O worker loads it — is the fleet's
        GodivaDeadlockError, naming the shard and its budget, within a
        second of ``render_all``, and it leaves no segment and no host
        behind."""
        segments = set(glob.glob("/dev/shm/godiva-*"))
        for background_io in (False, True):
            fleet = ShardedGBO(small_dataset.directory, 2, test=TEST,
                               mem_mb=0.09375, background_io=background_io)
            t0 = time.monotonic()
            with pytest.raises(GodivaDeadlockError,
                               match=r"shard\d+ .* fixed 49152 B budget"):
                fleet.render_all()
            assert time.monotonic() - t0 < 1.0
            fleet.close()
            assert set(glob.glob("/dev/shm/godiva-*")) == segments
            assert not [p for p in multiprocessing.active_children()
                        if p.name.startswith("shard")]


def exit_at_startup(conn, spec):
    """A shard host that dies before it says anything — what every host
    of a spawned fleet does when the coordinator's script has no
    ``__main__`` guard (macOS, Python >= 3.14). On Linux a host forks,
    runs nothing of the script again, and such a script works."""
    os._exit(3)


#: Pause before each of ``shard0``'s frames in :func:`slow_shard0`.
PAUSE_S = 1.0


def slow_shard0(conn, spec):
    """A shard host whose ``shard0`` pauses before every frame, so it
    reports ``done`` seconds after ``shard1`` (each pause is shorter
    than the protocol timeout, so the run is never silent that long)."""
    from repro.parallel import sharded

    host = sharded._ShardHost(spec, conn)
    if spec.shard_id == "shard0":
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

        monkeypatch.setattr(sharded, "_shard_main", slow_shard0)
        reference = serial_frames(small_dataset)
        timeout = 2.0
        with ShardedGBO(small_dataset.directory, 2, test=TEST,
                        mem_mb=64.0, protocol_timeout_s=timeout) as fleet:
            # Rendezvous gives shard1 one step; shard0 three, one pause
            # each.
            assert fleet.assignment == {"shard0": [0, 2, 3],
                                        "shard1": [1]}
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


#: A coordinator whose hosts print their pids, then run as
#: :func:`slow_shard0`'s, so they are mid-render when it is killed.
KILLED_COORDINATOR = """
import os, sys
from repro.parallel import sharded
from test_parallel_sharded import slow_shard0

def host_main(conn, spec):
    os.write(1, b"%d\\n" % os.getpid())  # one write: hosts share the pipe
    slow_shard0(conn, spec)

if __name__ == "__main__":
    sharded._shard_main = host_main
    with sharded.ShardedGBO(sys.argv[1], 2, test=sys.argv[2],
                            mem_mb=64.0) as fleet:
        fleet.render_all()
"""


def _exited(pid: int) -> bool:
    """Gone, or a zombie: an orphan's reaper (PID 1) may never reap."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
class TestCoordinatorDeath:
    def test_hosts_of_a_killed_coordinator_exit_and_clean_up(
            self, small_dataset, tmp_path):
        """SIGKILL the coordinator mid-render: each host reads its
        pipe's EOF (or a broken pipe) as shutdown, unmaps and unlinks
        its segments, and exits within seconds, printing nothing."""
        script = tmp_path / "coordinator.py"
        script.write_text(KILLED_COORDINATOR)
        errors = tmp_path / "stderr.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            SRC_DIR, os.path.dirname(os.path.abspath(__file__)),
            env.get("PYTHONPATH"),
        ]))
        before = set(glob.glob("/dev/shm/godiva-*"))
        hosts = []
        with open(errors, "w") as stderr:
            coordinator = subprocess.Popen(
                [sys.executable, str(script), small_dataset.directory,
                 TEST], env=env, stdout=subprocess.PIPE, stderr=stderr,
                text=True,
            )
        try:
            for _ in range(2):
                line = coordinator.stdout.readline()
                assert line, errors.read_text()
                hosts.append(int(line))
            coordinator.kill()
            coordinator.wait(10.0)
            deadline = time.monotonic() + 10.0
            while (not all(map(_exited, hosts))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert [pid for pid in hosts if not _exited(pid)] == []
            assert set(glob.glob("/dev/shm/godiva-*")) <= before
            assert "Traceback" not in errors.read_text()
        finally:
            coordinator.kill()
            coordinator.stdout.close()
            for pid in hosts:
                if not _exited(pid):
                    os.kill(pid, 9)
            for leaked in set(glob.glob("/dev/shm/godiva-*")) - before:
                os.unlink(leaked)


class TestValidation:
    def test_bad_shard_count(self, small_dataset):
        with pytest.raises(ValueError):
            ShardedGBO(small_dataset.directory, 0)

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
