"""Eraser-style lockset race detection over annotated shared fields.

The classic lockset algorithm (Savage et al., *Eraser*, SOSP '97): for
every shared variable *v*, maintain the candidate set ``C(v)`` of locks
that were held on **every** access so far. Whenever a second thread
touches *v*, ``C(v)`` is intersected with the accessing thread's current
lockset; if a write happens (or has happened) while ``C(v)`` is empty, no
single lock consistently guards *v* — a potential data race, reported
even if the unlucky interleaving never occurred in this run.

Fields are declared with the :func:`guarded_by` class decorator::

    @guarded_by("_units", "_memory", lock="_lock")
    class GBO: ...

The decorator is metadata-only (zero cost); :func:`install` swaps the
declared attributes for tracking descriptors at runtime — the pytest
races fixture installs them for the ``test_database_*`` suites and
:func:`uninstall` restores the plain attributes afterwards. Locksets
come from :mod:`repro.analysis.primitives`, so race detection only sees
locks built through :func:`~repro.analysis.primitives.TrackedLock`
while analysis is enabled.

An access by the *owning* (first) thread never reports: initialization
before publication (``__init__`` filling tables without the lock) is
the normal, safe pattern the state machine exists to tolerate.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.analysis.primitives import current_lockset
from repro.errors import DataRaceError

# -- Eraser state machine states --------------------------------------
VIRGIN = "virgin"
EXCLUSIVE = "exclusive"          # only the first thread has accessed
SHARED = "shared"                # many readers after the first thread
SHARED_MODIFIED = "shared-modified"  # written while shared


class RaceReport:
    """One empty-lockset finding."""

    __slots__ = ("field", "access", "thread_name", "stack", "owner_repr")

    def __init__(self, field: str, access: str, thread_name: str,
                 stack: str, owner_repr: str):
        self.field = field
        self.access = access
        self.thread_name = thread_name
        self.stack = stack
        self.owner_repr = owner_repr

    def describe(self) -> str:
        return (
            f"data race on {self.owner_repr}.{self.field}: "
            f"{self.access} by thread {self.thread_name!r} with empty "
            f"candidate lockset\n"
            + "".join(
                "    | " + line + "\n"
                for line in self.stack.rstrip().splitlines()
            )
        )


class _FieldState:
    __slots__ = ("state", "first_thread", "lockset", "reported")

    def __init__(self) -> None:
        self.state = VIRGIN
        self.first_thread: Optional[int] = None
        self.lockset: Optional[frozenset] = None
        self.reported = False


class LocksetTracker:
    """Process-wide lockset state for every guarded field instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fields: Dict[Tuple[int, str], _FieldState] = {}
        #: Strong refs so instance ids stay unique while tracked.
        self._pinned: Dict[int, object] = {}
        self._reports: List[RaceReport] = []

    def record_access(self, instance: object, field: str,
                      is_write: bool) -> None:
        lockset = frozenset(current_lockset())
        thread_id = threading.get_ident()
        key = (id(instance), field)
        with self._lock:
            self._pinned.setdefault(id(instance), instance)
            state = self._fields.get(key)
            if state is None:
                state = self._fields[key] = _FieldState()
            self._step(state, instance, field, thread_id, lockset,
                       is_write)

    def _step(self, state: _FieldState, instance: object, field: str,
              thread_id: int, lockset: frozenset,
              is_write: bool) -> None:
        if state.state == VIRGIN:
            state.state = EXCLUSIVE
            state.first_thread = thread_id
            return
        if state.state == EXCLUSIVE:
            if thread_id == state.first_thread:
                return
            # Second thread: initialize the candidate set from its
            # lockset and enter the shared phase.
            state.lockset = lockset
            state.state = SHARED_MODIFIED if is_write else SHARED
        else:
            state.lockset = state.lockset & lockset
            if is_write:
                state.state = SHARED_MODIFIED
        if state.state == SHARED_MODIFIED and not state.lockset \
                and not state.reported:
            state.reported = True
            self._reports.append(RaceReport(
                field=field,
                access="write" if is_write else "read",
                thread_name=threading.current_thread().name,
                stack="".join(traceback.format_stack(limit=12)[:-3]),
                owner_repr=type(instance).__name__,
            ))

    def reports(self) -> List[RaceReport]:
        with self._lock:
            return list(self._reports)

    def reset(self) -> None:
        with self._lock:
            self._fields.clear()
            self._pinned.clear()
            self._reports.clear()

    def after_fork_in_child(self) -> None:
        """Replace the lock, which a vanished thread may hold."""
        self._lock = threading.Lock()

    def check(self) -> None:
        """Raise :class:`DataRaceError` summarizing all findings."""
        reports = self.reports()
        if reports:
            raise DataRaceError(
                f"{len(reports)} lockset race(s) detected:\n"
                + "\n".join(report.describe() for report in reports)
            )


TRACKER = LocksetTracker()
if hasattr(os, "register_at_fork"):
    # A forked child has only the forking thread; a lock another thread
    # held at the fork would stay held there forever.
    os.register_at_fork(after_in_child=TRACKER.after_fork_in_child)

#: Classes annotated with :func:`guarded_by`, for :func:`install`.
_REGISTRY: List[Type] = []


def guarded_by(*fields: str,
               lock: str = "_lock") -> Callable[[Type], Type]:
    """Class decorator declaring which instance fields a lock guards.

    Pure metadata: records ``__guarded_fields__`` on the class and
    registers it for :func:`install`. Until installation the decorated
    class is bit-identical in behaviour and speed.
    """
    def decorate(cls: Type) -> Type:
        spec = dict(getattr(cls, "__guarded_fields__", {}))
        for field in fields:
            spec[field] = lock
        cls.__guarded_fields__ = spec
        if cls not in _REGISTRY:
            _REGISTRY.append(cls)
        return cls
    return decorate


class _GuardedField:
    """Data descriptor that funnels attribute traffic to the tracker.

    Values still live in the instance ``__dict__`` under the real name,
    so installing and uninstalling the descriptor is transparent to
    existing instances.
    """

    __slots__ = ("name", "lock_attr")

    def __init__(self, name: str, lock_attr: str):
        self.name = name
        self.lock_attr = lock_attr

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        try:
            value = instance.__dict__[self.name]
        except KeyError:
            raise AttributeError(self.name) from None
        TRACKER.record_access(instance, self.name, is_write=False)
        return value

    def __set__(self, instance, value) -> None:
        instance.__dict__[self.name] = value
        TRACKER.record_access(instance, self.name, is_write=True)

    def __delete__(self, instance) -> None:
        del instance.__dict__[self.name]
        TRACKER.record_access(instance, self.name, is_write=True)


def install(*classes: Type) -> List[Type]:
    """Swap declared fields of ``classes`` (default: every registered
    class) for tracking descriptors. Returns the classes touched."""
    targets = list(classes) if classes else list(_REGISTRY)
    for cls in targets:
        for field, lock_attr in getattr(
            cls, "__guarded_fields__", {}
        ).items():
            setattr(cls, field, _GuardedField(field, lock_attr))
    return targets


def uninstall(*classes: Type) -> None:
    """Remove tracking descriptors installed by :func:`install`."""
    targets = list(classes) if classes else list(_REGISTRY)
    for cls in targets:
        for field in getattr(cls, "__guarded_fields__", {}):
            if isinstance(cls.__dict__.get(field), _GuardedField):
                delattr(cls, field)
