"""Child: the one supervised child process every supervisor spawns.

The contracts under test (``repro.core.child``): a message sent before
the child died is still read; a child gone without one is named with
its exit code, promptly; ``ready`` sees exits as well as messages;
``close`` is the one idempotent teardown and terminates a child that
ignores its stop message; ``close_all`` overlaps many children's exits;
spawning and closing leaks no descriptor; a
child nobody closed does not hold up the parent's exit; a fork taken
while another thread holds the shared-memory tracker's lock leaves the
child a tracker it can use.
"""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory

import pytest

from repro.core import child as child_module
from repro.core.child import Child, close_all, ready
from repro.errors import ChildExitedError

# ----------------------------------------------------------------------
# Module-level child bodies (spawn re-imports this module by name).
# ----------------------------------------------------------------------


def reply_then_exit(conn, code):
    conn.send("last words")
    os._exit(code)


def echo_until_stop(conn):
    while True:
        message = conn.recv()
        if message == "stop":
            return
        conn.send(message)


def ignore_everything(conn):
    time.sleep(60)


def linger_after_stop(conn):
    conn.recv()
    time.sleep(1.0)


def wait_for_eof(conn):
    try:
        conn.recv()
    except EOFError:
        pass


def flood_then_wait(conn):
    conn.send(b"x" * (8 << 20))  # far past the pipe buffer: blocks
    conn.recv()


def create_shared_memory_then_reply(conn, name):
    segment = SharedMemory(name=name, create=True, size=4096)
    segment.close()
    segment.unlink()
    conn.send(name)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_reply_sent_before_exit_is_read_then_exit_is_named():
    child = Child(reply_then_exit, 3, name="child-last-words")
    try:
        assert child.recv() == "last words"
        with pytest.raises(ChildExitedError,
                           match=r"^child-last-words \(exitcode 3\)$"):
            child.recv()
    finally:
        child.close()


def test_sigkill_while_parent_waits_raises_within_a_second():
    child = Child(ignore_everything, name="child-killed",
                  start_method="fork")
    killed = []

    def kill():
        killed.append(time.monotonic())
        os.kill(child.proc.pid, signal.SIGKILL)

    timer = threading.Timer(0.2, kill)
    timer.start()
    try:
        with pytest.raises(ChildExitedError,
                           match=r"child-killed \(exitcode -9\)"):
            child.recv()
        assert time.monotonic() - killed[0] < 1.0
    finally:
        timer.join()
        child.close()


def test_ready_returns_an_exited_child_and_nothing_on_timeout():
    echo = Child(echo_until_stop, name="child-echo", start_method="fork")
    gone = Child(reply_then_exit, 0, name="child-gone",
                 start_method="fork")
    try:
        assert ready([echo, gone], 10.0) == [gone]
        assert gone.recv() == "last words"
        gone.proc.join(5.0)
        assert ready([echo, gone], 10.0) == [gone]   # exited, no message
        t0 = time.monotonic()
        assert ready([echo], 0.1) == []
        assert time.monotonic() - t0 < 1.0
        echo.send("ping")
        assert ready([echo], 10.0) == [echo]
        assert echo.recv() == "ping"
    finally:
        echo.close("stop")
        gone.close()
    assert echo.proc.exitcode == 0


def test_close_terminates_a_child_that_ignores_stop(monkeypatch):
    monkeypatch.setattr(child_module, "JOIN_TIMEOUT_S", 0.2)
    child = Child(ignore_everything, name="child-stuck",
                  start_method="fork")
    t0 = time.monotonic()
    child.close("stop")
    assert time.monotonic() - t0 < 5.0
    assert not child.proc.is_alive()
    assert child.proc.exitcode == -signal.SIGTERM


def test_close_does_not_wait_out_a_child_blocked_sending():
    """A child blocked sending a reply nobody will read (a Houston
    survivor after its peer died) fails with EPIPE once ``close``
    closes the pipe, instead of stalling the join until
    ``JOIN_TIMEOUT_S`` and being terminated."""
    child = Child(flood_then_wait, name="child-flood", start_method="fork")
    time.sleep(0.2)
    t0 = time.monotonic()
    child.close("stop")
    assert time.monotonic() - t0 < child_module.JOIN_TIMEOUT_S / 2
    assert child.proc.exitcode not in (None, -signal.SIGTERM)


def test_a_forked_child_does_not_hold_an_older_siblings_pipe_open():
    """Closing ``a``'s pipe with no stop message reads as EOF in ``a``
    although ``b`` was forked from the parent after ``a`` started: ``b``
    must not keep a copy of ``a``'s parent end."""
    a = Child(wait_for_eof, name="child-a", start_method="fork")
    b = Child(wait_for_eof, name="child-b", start_method="fork")
    try:
        a._close_pipe()
        a.proc.join(2.0)
        assert a.proc.exitcode == 0
        assert b.proc.is_alive()
    finally:
        close_all([a, b])
    assert b.proc.exitcode == 0


def test_close_is_idempotent():
    child = Child(echo_until_stop, name="child-twice", start_method="fork")
    child.close("stop")
    child.close("stop")
    assert child.proc.exitcode == 0
    assert child.conn.closed
    with pytest.raises(ChildExitedError, match="child-twice"):
        child.send("after close")


def test_close_all_stops_every_child_before_the_first_join():
    """Three children each taking a second to leave after ``stop``
    close in about one second, not three."""
    children = [Child(linger_after_stop, name=f"child-linger-{index}",
                      start_method="fork") for index in range(3)]
    t0 = time.monotonic()
    close_all(children, "stop")
    assert time.monotonic() - t0 < 2.5
    assert [child.proc.exitcode for child in children] == [0, 0, 0]
    close_all(children, "stop")  # idempotent


def test_spawn_close_cycles_leave_the_fd_count_unchanged():
    def cycle():
        child = Child(echo_until_stop, name="child-cycle",
                      start_method="fork")
        child.send("ping")
        assert child.recv() == "ping"
        child.close("stop")
        assert child.proc.exitcode == 0

    cycle()  # warm-up: the resource tracker's pipe is opened once
    gc.collect()
    before = _open_fds()
    for _ in range(20):
        cycle()
    gc.collect()
    assert _open_fds() == before


FORGETFUL_PARENT = """
from repro.core.child import Child

def echo(conn):
    try:
        while True:
            conn.send(conn.recv())
    except EOFError:
        pass

if __name__ == "__main__":
    for start_method in ("fork", "spawn"):
        child = Child(echo, name="forgotten", start_method=start_method)
        child.send("hi")
        assert child.recv() == "hi"
"""


def test_a_child_never_closed_does_not_hold_up_interpreter_exit(tmp_path):
    """Children are not daemons, so ``multiprocessing`` joins them at
    exit: the parent's pipe ends are closed first, and a forgotten child
    (forked or spawned) reads EOF and leaves instead of hanging the exit."""
    script = tmp_path / "forgetful.py"
    script.write_text(FORGETFUL_PARENT)
    import repro

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, timeout=30)
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked child inherits the parent's locks")
def test_a_fork_while_another_thread_holds_the_tracker_lock(monkeypatch):
    """A second thread takes ``resource_tracker``'s process-global lock
    after ``Child.__init__``'s own ``ensure_running()`` and before the
    fork, and holds it for 0.2 s. A child forked with it held would
    inherit it taken by a thread the child does not have, so its first
    ``SharedMemory`` would wait on it forever."""
    tracker_lock = resource_tracker._resource_tracker._lock
    taken = threading.Event()

    def hold_tracker_lock():
        with tracker_lock:
            taken.set()
            time.sleep(0.2)

    holder = threading.Thread(target=hold_tracker_lock)

    def ensure_running_then_take_the_lock():
        resource_tracker._resource_tracker.ensure_running()
        holder.start()
        taken.wait()

    monkeypatch.setattr(resource_tracker, "ensure_running",
                        ensure_running_then_take_the_lock)
    name = f"repro-fork-lock-{os.getpid()}"
    child = Child(create_shared_memory_then_reply, name,
                  name="child-tracker-lock")
    reply = None
    try:
        if ready([child], timeout=5.0):
            reply = child.recv()
        else:
            child.proc.terminate()  # hung on the inherited lock
    finally:
        child.close()
        holder.join(5.0)
        leaked = os.path.exists(f"/dev/shm/{name}")
        if leaked:
            os.unlink(f"/dev/shm/{name}")
    assert reply == name, "the child hung on the tracker lock"
    assert not leaked
