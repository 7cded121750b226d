"""Child — the one supervised child process.

Every process the library starts — compute workers, shard hosts,
Houston servers, launcher workers — is a :class:`Child`: one start,
one channel, one liveness rule and one teardown, so a message crosses
a process boundary in exactly one place:

* **start** — ``target(conn, *args)`` runs in a new process started
  the platform-default way (fork on Linux up to Python 3.13, so a
  child inherits the modules its parent already imported; spawn on
  macOS and Windows), holding only the child's end of a duplex pipe
  (a forked child closes every parent end it inherited, its older
  siblings' too), the parent only its own, so either side's death or
  close reads as EOF on the other. Every fork waits for the
  shared-memory tracker's lock, so no child inherits it held.
* **channel** — :meth:`Child.send` / :meth:`Child.recv` move picklable
  messages. ``recv`` waits on the pipe *and* the process sentinel: a
  message sent before the child died is still read, and a child gone
  without one raises :class:`~repro.errors.ChildExitedError` naming it
  and its exit code (``"houston-1 (exitcode -9)"``).
* **liveness** — :func:`ready` waits on many children at once.
* **teardown** — :meth:`Child.close` sends the stop message, closes
  the pipe, joins for :data:`JOIN_TIMEOUT_S` and terminates a stuck
  child; :func:`close_all` stops many children at once, then closes
  each. Children are not daemons (a shard host may start compute
  workers of its own); a child never closed has its pipe closed at
  interpreter exit, before ``multiprocessing`` joins it, so it sees
  EOF and leaves.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from contextlib import suppress
from multiprocessing import resource_tracker, util
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.errors import ChildExitedError

#: Seconds :meth:`Child.close` waits for a child to exit before terminating it.
JOIN_TIMEOUT_S = 10.0

#: Every :class:`Child` this process holds; a fork copies their parent ends.
_LIVE: weakref.WeakSet[Child] = weakref.WeakSet()

# The shared-memory tracker's lock is process-global. A fork taken while
# another thread held it would hand the child a lock no thread of its
# own can release, and the child's first SharedMemory would wait on it
# forever; so every fork waits for it and both sides release it.
_TRACKER_LOCK = resource_tracker._resource_tracker._lock
os.register_at_fork(before=_TRACKER_LOCK.acquire,
                    after_in_parent=_TRACKER_LOCK.release,
                    after_in_child=_TRACKER_LOCK.release)


def _child_main(target: Callable[..., None], *args) -> None:
    # A forked child inherits the parent end of its own pipe and of
    # every older sibling's; any copy left open would mask that
    # parent's close (EOF). A spawned child inherits none: _LIVE is empty.
    for child in list(_LIVE):
        child.conn.close()
    target(*args)


class Child:
    """One child process running ``target(conn, *args)``.

    ``name`` names the process and every :class:`ChildExitedError`;
    ``start_method`` is a :mod:`multiprocessing` start method, for
    tests: every supervisor leaves it None, the platform default.
    ``conn`` and ``proc`` are the parent's pipe end and the
    :class:`multiprocessing.Process`.
    """

    def __init__(self, target: Callable[..., None], *args: Any, name: str,
                 start_method: Optional[str] = None) -> None:
        # One shared-memory tracker for parent and children: a fork
        # child would start its own, and two ledgers never balance.
        resource_tracker.ensure_running()
        context = multiprocessing.get_context(start_method)
        self.conn, child_end = context.Pipe()
        self.proc = context.Process(target=_child_main, name=name,
                                    args=(target, child_end, *args))
        _LIVE.add(self)
        self.proc.start()
        child_end.close()
        self._close_pipe = util.Finalize(self, self.conn.close, exitpriority=0)

    def send(self, message: Any) -> None:
        """Send one message; a child that is gone raises
        :class:`ChildExitedError`."""
        try:
            self.conn.send(message)
        except OSError:
            raise self._exited() from None

    def recv(self) -> Any:
        """The child's next message, waiting for it; a child that exited
        without sending one raises :class:`ChildExitedError`."""
        try:
            if self.conn in wait([self.conn, self.proc.sentinel]):
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        raise self._exited()

    def _exited(self) -> ChildExitedError:
        self.proc.join(JOIN_TIMEOUT_S)
        return ChildExitedError(
            f"{self.proc.name} (exitcode {self.proc.exitcode})")

    def close(self, stop: Any = None) -> None:
        """Send ``stop`` (unless None), close the pipe, join for
        :data:`JOIN_TIMEOUT_S`, terminate the child if it is still
        running. Idempotent."""
        close_all([self], stop)


def close_all(children: Iterable[Child], stop: Any = None) -> None:
    """:meth:`Child.close` every child, sending ``stop`` to all of them
    before the first join so their exits overlap."""
    children = [child for child in children if not child.conn.closed]
    if stop is not None:
        for child in children:
            with suppress(OSError):  # already gone
                child.conn.send(stop)
    for child in children:
        # Closed before the join: a child blocked sending to us gets
        # EPIPE instead of stalling it; a sent stop is read before EOF.
        child._close_pipe()
        child.proc.join(JOIN_TIMEOUT_S)
        if child.proc.is_alive():
            child.proc.terminate()
            child.proc.join()


def ready(children: Sequence[Child], timeout: Optional[float]) -> List[Child]:
    """The children (in order) with a message waiting or whose process
    exited; ``[]`` if none is after ``timeout`` seconds (None: wait)."""
    fired = wait([handle for child in children
                  for handle in (child.conn, child.proc.sentinel)], timeout)
    return [child for child in children
            if child.conn in fired or child.proc.sentinel in fired]
