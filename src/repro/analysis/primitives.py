"""Instrumented concurrency primitives: the sanitizer's data source.

:func:`TrackedLock` and :func:`TrackedCondition` are drop-in factories
for ``threading.Lock`` / ``threading.Condition``. With instrumentation
*disabled* (the default) they return the plain ``threading`` objects —
zero overhead, byte-for-byte the pre-sanitizer behaviour. With
instrumentation *enabled* (``REPRO_ANALYSIS=1`` in the environment, or
:func:`enable` at runtime) they return wrappers that

* record, per thread, the stack of currently-held locks;
* feed every nested acquisition into the global lock-order graph
  (:mod:`repro.analysis.lockorder`), with the acquisition stacks of
  both locks, so potential deadlocks are reported as graph cycles;
* expose :meth:`_TrackedLock.held_by_current_thread`, which powers the
  runtime assertion of the "Lock held." docstring contracts in
  :mod:`repro.core.database` (see :func:`assert_lock_held`);
* publish the per-thread *lockset* that the Eraser-style race detector
  (:mod:`repro.analysis.races`) intersects on every guarded access.

The module is intentionally dependency-free (no numpy) so the linter
and CI can import it in a bare environment.
"""

from __future__ import annotations

import itertools
import os
import threading
import traceback
from typing import Callable, List, Optional, Tuple, Union

from repro.errors import LockContractError

ENV_FLAG = "REPRO_ANALYSIS"

#: Frames captured per acquisition stack; enough to see through the
#: database call into the application, cheap enough for hot paths.
STACK_DEPTH = 16

_enabled = os.environ.get(ENV_FLAG, "").strip() not in ("", "0", "false")
_name_counter = itertools.count()
_tls = threading.local()


def analysis_enabled() -> bool:
    """Whether new TrackedLock/TrackedCondition objects are instrumented."""
    return _enabled


def enable() -> None:
    """Turn instrumentation on for primitives created from now on.

    Already-constructed plain locks stay plain: enable the analysis
    *before* building the objects (GBO, IoStats, tracers) you want
    sanitized. The pytest races fixture does exactly that.
    """
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off for primitives created from now on."""
    global _enabled
    _enabled = False


def _held_stack() -> List["_Acquisition"]:
    stack = getattr(_tls, "held", None)
    if stack is None:
        stack = _tls.held = []
    return stack


def current_lockset() -> Tuple["_TrackedLock", ...]:
    """The tracked locks held by the calling thread, outermost first."""
    return tuple(acq.lock for acq in _held_stack())


def _capture_stack() -> str:
    # Skip the two innermost frames (this helper and its caller inside
    # the primitives module) — the report should start at user code.
    frames = traceback.format_stack(limit=STACK_DEPTH)
    return "".join(frames[:-2])


class _Acquisition:
    """One held lock and where the thread acquired it."""

    __slots__ = ("lock", "stack")

    def __init__(self, lock: "_TrackedLock", stack: str):
        self.lock = lock
        self.stack = stack


class _TrackedLock:
    """Instrumented non-reentrant lock.

    Wraps a raw ``threading.Lock``; acquisition/release update the
    calling thread's held-lock stack and the global lock-order graph.
    """

    def __init__(self, name: Optional[str] = None):
        self._inner = threading.Lock()
        self.name = name or f"lock-{next(_name_counter)}"

    # -- threading.Lock protocol --------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._note_acquired()
        return acquired

    def release(self) -> None:
        self._note_released()
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    # -- instrumentation ----------------------------------------------
    def held_by_current_thread(self) -> bool:
        return any(acq.lock is self for acq in _held_stack())

    def _note_acquired(self) -> None:
        from repro.analysis.lockorder import GLOBAL_GRAPH

        stack = _capture_stack()
        held = _held_stack()
        thread = threading.current_thread().name
        for acq in held:
            GLOBAL_GRAPH.record(
                acq.lock.name, self.name,
                first_stack=acq.stack, second_stack=stack,
                thread_name=thread,
            )
        held.append(_Acquisition(self, stack))

    def _note_released(self) -> None:
        held = _held_stack()
        for index in range(len(held) - 1, -1, -1):
            if held[index].lock is self:
                del held[index]
                return
        raise LockContractError(
            f"lock {self.name!r} released by a thread that does not "
            f"hold it"
        )

    def __repr__(self) -> str:
        return f"<TrackedLock {self.name!r} locked={self.locked()}>"


class _TrackedCondition:
    """Instrumented condition variable bound to a :class:`_TrackedLock`.

    The real waiting is delegated to a ``threading.Condition`` built on
    the tracked lock's raw inner lock; this wrapper keeps the held-lock
    bookkeeping honest across the release/reacquire that ``wait``
    performs.
    """

    def __init__(self, lock: "_TrackedLock"):
        self._lock = lock
        self._cond = threading.Condition(lock._inner)
        self.name = f"{lock.name}.cond"

    # -- lock protocol (Condition proxies its lock) -------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self._lock.__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._lock.__exit__(exc_type, exc, tb)

    # -- condition protocol -------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        self._require_held("wait")
        self._lock._note_released()
        try:
            return self._cond.wait(timeout)
        finally:
            self._lock._note_acquired()

    def wait_for(self, predicate, timeout: Optional[float] = None):
        # Re-implemented (rather than delegated) so each inner wait goes
        # through the tracked release/reacquire above.
        result = predicate()
        if timeout is None:
            while not result:
                self.wait()
                result = predicate()
            return result
        import time as _time

        deadline = _time.monotonic() + timeout
        while not result:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                break
            self.wait(remaining)
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        self._require_held("notify")
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._require_held("notify_all")
        self._cond.notify_all()

    def _require_held(self, what: str) -> None:
        if not self._lock.held_by_current_thread():
            raise LockContractError(
                f"Condition.{what} on {self.name!r} without holding "
                f"{self._lock.name!r}"
            )

    def __repr__(self) -> str:
        return f"<TrackedCondition {self.name!r}>"


AnyLock = Union[threading.Lock, _TrackedLock]


def TrackedLock(name: Optional[str] = None) -> AnyLock:
    """A mutex: plain ``threading.Lock`` when analysis is disabled,
    an instrumented :class:`_TrackedLock` when enabled."""
    if not _enabled:
        return threading.Lock()
    return _TrackedLock(name)


def TrackedCondition(lock: Optional[AnyLock] = None,
                     name: Optional[str] = None,
                     ) -> Union[threading.Condition, _TrackedCondition]:
    """A condition variable matching the lock flavour in play.

    Accepts the lock returned by :func:`TrackedLock` (either flavour);
    ``None`` creates a fresh one.
    """
    if lock is None:
        lock = TrackedLock(name)
    if isinstance(lock, _TrackedLock):
        return _TrackedCondition(lock)
    return threading.Condition(lock)


def assert_lock_held(lock: AnyLock, what: str = "this operation") -> None:
    """Runtime check for the "Lock held." docstring contracts.

    A no-op for plain locks (analysis disabled — plain ``Lock`` cannot
    name its owner); raises :class:`~repro.errors.LockContractError`
    when a tracked lock is not held by the calling thread.
    """
    if isinstance(lock, _TrackedLock) and not lock.held_by_current_thread():
        raise LockContractError(
            f"{what} requires lock {lock.name!r} to be held "
            f"(\"Lock held.\" contract violated)"
        )


def make_held_checker(lock: AnyLock, what: str) -> Callable[[], None]:
    """A zero-argument closure asserting ``lock`` is held.

    Returns a shared no-op when the lock is a plain ``threading.Lock``
    so the disabled path costs one cheap call and nothing else.
    """
    if not isinstance(lock, _TrackedLock):
        return _noop
    def check() -> None:
        if not lock.held_by_current_thread():
            raise LockContractError(
                f"{what} requires lock {lock.name!r} to be held "
                f"(\"Lock held.\" contract violated)"
            )
    return check


def _noop() -> None:
    return None
