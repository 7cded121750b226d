"""Processing units: GODIVA's unit of prefetching, caching, and eviction.

Section 3.2: "A processing unit is a set of records that will be brought in
or evicted from the GODIVA database as a whole. … A processing unit is the
unit of data flow from the background I/O module to the data processing
module." Units carry the developer-supplied read callback, a lifecycle
state, and a unit-level reference count (section 3.3).
"""

from __future__ import annotations

import enum
from typing import Callable, Optional


class UnitState(enum.Enum):
    """Lifecycle of a processing unit.

    QUEUED   – appended to the FIFO prefetch list (``add_unit``), waiting
               for the I/O thread.
    READING  – a read callback is currently loading its records.
    RESIDENT – fully loaded; records queryable. Evictable only once the
               unit is *finished* with zero references.
    EVICTED  – records were dropped by cache replacement; the unit's name
               and read callback are retained so it can be re-fetched.
    FAILED   – the read callback raised; the error is kept for waiters.
    DELETED  – explicitly removed (``delete_unit``); terminal.
    """

    QUEUED = "queued"
    READING = "reading"
    RESIDENT = "resident"
    EVICTED = "evicted"
    FAILED = "failed"
    DELETED = "deleted"


#: Signature of developer-supplied read callbacks. Called as
#: ``read_fn(gbo, unit_name)`` — the unit name is passed back so one
#: function can serve many units ("two different names can trigger
#: different operations such as reading different files", section 3.3).
ReadFunction = Callable[["object", str], None]


class ProcessingUnit:
    """Bookkeeping for one named unit. All mutation happens under the GBO
    lock; this class holds no lock of its own."""

    __slots__ = (
        "name",
        "read_fn",
        "state",
        "ref_count",
        "finished",
        "pending_delete",
        "error",
        "resident_bytes",
        "loads",
        "priority",
        "worker",
        "enqueued_at",
        "read_started_at",
        "queue_seconds",
        "read_seconds",
    )

    def __init__(self, name: str, read_fn: Optional[ReadFunction],
                 priority: float = 0.0):
        self.name = name
        self.read_fn = read_fn
        self.state = UnitState.QUEUED
        #: Outstanding acquisitions: wait_unit/read_unit increment, each
        #: finish_unit releases one (paper: "Reference counts are kept at
        #: the unit level").
        self.ref_count = 0
        #: The application has declared processing complete at least once;
        #: combined with ref_count == 0 the unit becomes evictable.
        self.finished = False
        #: delete_unit was called while the unit was mid-read; the loader
        #: deletes it as soon as the read callback returns.
        self.pending_delete = False
        self.error: Optional[BaseException] = None
        #: Bytes currently charged to the memory budget for this unit.
        self.resident_bytes = 0
        #: Times this unit's read callback has completed (>1 after
        #: eviction + re-fetch).
        self.loads = 0
        #: Prefetch priority: higher loads earlier; ties resolve FIFO.
        self.priority = priority
        #: Index of the I/O worker currently (or last) reading this unit;
        #: None for foreground reads.
        self.worker: Optional[int] = None
        #: Clock stamp of the latest enqueue (add_unit or re-queue).
        self.enqueued_at: Optional[float] = None
        #: Clock stamp of the latest read start.
        self.read_started_at: Optional[float] = None
        #: Accumulated seconds spent queued before each read started.
        self.queue_seconds = 0.0
        #: Accumulated seconds spent inside read callbacks.
        self.read_seconds = 0.0

    @property
    def evictable(self) -> bool:
        """RESIDENT, finished and unreferenced: the policy may take it."""
        return (
            self.state is UnitState.RESIDENT
            and self.finished
            and self.ref_count == 0
        )

    @property
    def is_loaded(self) -> bool:
        """Whether the unit's records are resident and queryable."""
        return self.state is UnitState.RESIDENT

    @property
    def terminal(self) -> bool:
        """Whether the unit was deleted (no transition leaves DELETED)."""
        return self.state is UnitState.DELETED

    def __repr__(self) -> str:
        return (
            f"ProcessingUnit({self.name!r}, {self.state.value}, "
            f"refs={self.ref_count}, finished={self.finished}, "
            f"bytes={self.resident_bytes})"
        )


class UnitHandle:
    """Object-handle facade over one named processing unit.

    ``gbo.add_unit(...)`` returns one, and ``gbo.unit(name)`` fetches one
    for any known unit. The handle is a thin, stateless layer over the
    string-name interfaces — it stores only the GBO and the unit name, so
    handles may be freely copied, compared, and mixed with string-based
    calls (``handle.wait()`` and ``gbo.wait_unit(handle.name)`` are
    identical).
    """

    __slots__ = ("_gbo", "name")

    def __init__(self, gbo, name: str):
        self._gbo = gbo
        self.name = name

    # -- lifecycle verbs, chainable where it reads naturally -----------
    def wait(self) -> "UnitHandle":
        """Block until resident (see :meth:`GBO.wait_unit`)."""
        self._gbo.wait_unit(self.name)
        return self

    def read(self, read_fn: Optional[ReadFunction] = None) -> "UnitHandle":
        """Blocking foreground read (see :meth:`GBO.read_unit`)."""
        self._gbo.read_unit(self.name, read_fn)
        return self

    def finish(self) -> None:
        """Release one reference; evictable at zero references."""
        self._gbo.finish_unit(self.name)

    def delete(self) -> None:
        """Free the unit's records now."""
        self._gbo.delete_unit(self.name)

    def cancel(self) -> bool:
        """Cancel the prefetch if the read has not started yet."""
        return self._gbo.cancel_unit(self.name)

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "UnitHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Scope the unit's residency: ``with gbo.unit(n).read():`` (or
        # ``.wait()``) releases the reference on exit, even when the body
        # raises. A unit the body already deleted needs no finish.
        if self._gbo.unit_state(self.name) is not UnitState.DELETED:
            self.finish()

    # -- introspection -------------------------------------------------
    @property
    def state(self) -> UnitState:
        """The unit's lifecycle state (see :meth:`GBO.unit_state`)."""
        return self._gbo.unit_state(self.name)

    @property
    def is_resident(self) -> bool:
        """Whether the unit is RESIDENT (see :meth:`GBO.is_resident`)."""
        return self._gbo.is_resident(self.name)

    @property
    def priority(self) -> float:
        """The stored prefetch priority; assigning reorders the queue
        (see :meth:`GBO.set_unit_priority`)."""
        return self._gbo.unit_priority(self.name)

    @priority.setter
    def priority(self, value: float) -> None:
        """Store a new priority, reordering the unit if still queued."""
        self._gbo.set_unit_priority(self.name, value)

    @property
    def resident_bytes(self) -> int:
        """Bytes charged to the unit (see :meth:`GBO.resident_bytes_of`)."""
        return self._gbo.resident_bytes_of(self.name)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnitHandle)
            and other._gbo is self._gbo
            and other.name == self.name
        )

    def __hash__(self) -> int:
        return hash((id(self._gbo), self.name))

    def __repr__(self) -> str:
        try:
            state = self.state.value
        except Exception:
            state = "unknown"
        return f"UnitHandle({self.name!r}, {state})"
