"""Exception hierarchy for the GODIVA reproduction.

All library errors derive from :class:`GodivaError` so callers can catch one
base class. The hierarchy mirrors the failure modes the paper discusses:
schema misuse (section 3.1), memory exhaustion and deadlock between the main
thread and the background I/O thread (section 3.3), and file-format errors
raised by the storage substrate.
"""

from __future__ import annotations

from typing import Optional


class GodivaError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SchemaError(GodivaError):
    """Invalid field/record type definition or misuse of the type system.

    Raised for duplicate type names, committing an empty record type,
    inserting an unknown field type, or modifying a committed record type.
    """


class UnknownTypeError(SchemaError):
    """A field or record type name was used before being defined."""


class RecordStateError(GodivaError):
    """A record operation was performed in the wrong lifecycle state.

    Examples: committing a record whose key buffers are unallocated, or
    allocating a buffer for a field whose size was fixed at definition time.
    """


class KeyLookupError(GodivaError, KeyError):
    """No record matches the supplied key-field values."""


class DuplicateKeyError(GodivaError):
    """A record was committed under a key already present in the index."""


class UnknownUnitError(GodivaError, KeyError):
    """A processing-unit name was used before being added or after deletion."""


class UnitStateError(GodivaError):
    """A unit operation conflicts with the unit's lifecycle state."""


class MemoryBudgetError(GodivaError):
    """A single allocation can never fit in the configured memory budget.

    ``needed`` carries the failing request's byte size when the raise
    site knows it (the memory manager's charge path); the sharded
    coordinator's pressure protocol uses it to size cross-shard
    reclamation. ``None`` when no single request is at fault.
    """

    def __init__(self, message: str, *,
                 needed: Optional[int] = None) -> None:
        super().__init__(message)
        self.needed = needed


class ArenaError(GodivaError):
    """Misuse of a :class:`~repro.core.arena.Arena`: exporting from a
    process-private arena, exporting an unsealed buffer, allocating
    from a closed arena, or operating on an array the arena does not
    track."""


class GodivaDeadlockError(GodivaError):
    """The main thread waits for a unit the I/O thread can never load.

    The paper (section 3.3) detects exactly this: the waiter needs unit *u*
    but the background thread is blocked on memory and no resident unit is
    finished (evictable). This normally means the application neglected to
    call ``finish_unit``/``delete_unit`` on processed units.
    """


class DatabaseClosedError(GodivaError):
    """An interface was invoked on a GBO whose I/O thread was shut down.

    Also raised on the *session* side of the multi-tenant service: any
    blocking call racing a ``ServiceSession.close``/``GodivaService.close``
    fails with this error rather than hanging."""


class ComputePoolClosedError(GodivaError):
    """A compute task was submitted to — or cancelled by — a closed
    :class:`~repro.core.compute.ComputePool`.

    Raised by ``submit`` after ``close``, and by ``ComputeTask.wait``
    when the pool shut down while the task was still queued."""


class ComputeWorkerError(GodivaError):
    """A compute-plane worker *process* failed in a way the original
    exception cannot express across the process boundary.

    Raised in place of a worker-side exception that could not be
    pickled back to the coordinator, and when a task callable fails to
    re-import inside a worker. Ordinary picklable task exceptions are
    re-raised as themselves, same as the thread pool."""


class ChildExitedError(GodivaError):
    """A supervised child process (:class:`~repro.core.child.Child`)
    is gone without the message its parent was waiting for; the
    message names the child and its exit code, e.g.
    ``"houston-1 (exitcode -9)"``."""


class AdmissionError(GodivaError):
    """The service cannot admit a session: the requested per-tenant
    carve-out would over-subscribe the global memory budget (and, in
    ``admission='queue'`` mode, capacity did not free up in time), or
    the tenant name is already bound to a live session."""


class StorageFormatError(GodivaError):
    """A file does not conform to the SDF/plain-binary on-disk layout."""


class ReadFunctionError(GodivaError):
    """A developer-supplied read callback raised; the original exception is
    attached as ``__cause__`` and the unit is marked failed."""


class AnalysisError(GodivaError):
    """Base class for findings raised by :mod:`repro.analysis` — the
    concurrency sanitizer and invariant checkers. These indicate bugs in
    the *library or its usage*, not in the analyzed workload's data."""


class LockContractError(AnalysisError):
    """A "Lock held." contract was violated at runtime: a ``*_locked``
    helper ran without its lock, a condition was signalled unheld, or a
    lock was released by a non-owner."""


class LockOrderViolation(AnalysisError):
    """The lock-order graph contains a cycle — two threads can acquire
    the same locks in opposite orders and deadlock. The message carries
    both acquisition stacks of every edge in the cycle."""


class DataRaceError(AnalysisError):
    """The lockset race detector found a shared field reachable with an
    empty candidate lockset — no single lock consistently guards it."""


class InvariantViolation(AnalysisError):
    """A structural invariant of the GBO buffer database does not hold
    (memory accounting, queue/state coherence, refcounts)."""
