"""Disk cost model and I/O accounting.

The paper's experiments ran on an IDE disk under ext2 (Engle) and a
cluster filesystem (Turing). Reproducing the *shape* of its I/O results —
seek savings when redundant scattered reads are eliminated (section 4.2),
transfer time proportional to volume — requires charging for I/O in a way
that does not depend on the reproduction host's hardware. This module
provides:

* :class:`DiskProfile` — seek time and bandwidth parameters, with named
  profiles calibrated to the paper's two platforms;
* :class:`IoStats` — thread-safe counters: bytes read, read calls, seeks,
  and accumulated *virtual* I/O seconds under a profile;
* :class:`CostedFile` — a read-only binary file wrapper that performs the
  real read while charging virtual cost and updating an :class:`IoStats`.

All real reads still happen (the data must be correct); the virtual clock
is bookkeeping used by the workload tracer and the platform simulator.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.primitives import TrackedLock
from repro.analysis.races import guarded_by


#: What :meth:`DiskProfile.gap_kind` returns, and the index of each kind's
#: cost in ``DiskProfile.position_costs_s``: a read that continues the
#: previous one, a short forward skip, and everything else.
SEQUENTIAL, SETTLE, SEEK = 0, 1, 2


@dataclass(frozen=True)
class DiskProfile:
    """Disk timing parameters for the cost model.

    Positioning cost depends on where the previous read ended:

    * continuation (gap == 0): transfer time only;
    * short forward skip (0 < gap <= ``forward_window_bytes``): a cheap
      ``settle_s`` — the head glides over nearby data (readahead/track
      locality);
    * anything else, including every backward jump: a full ``seek_s``.

    This is what lets the model reproduce the paper's observation that
    eliminating the original Voyager's back-and-forth mesh re-reads saves
    *more time than volume* (section 4.2): GODIVA's single pass reads each
    file nearly in layout order (settles), while the original's per-
    variable passes jump backward repeatedly (full seeks).
    """

    name: str
    seek_s: float
    bandwidth_bytes_s: float
    open_s: float
    settle_s: float = 0.0
    forward_window_bytes: int = 0

    def __post_init__(self) -> None:
        # Positioning cost by gap kind (SEQUENTIAL, SETTLE, SEEK): a
        # derived table, not a field, so equality and repr are unchanged.
        object.__setattr__(self, "position_costs_s",
                           (0.0, self.settle_s, self.seek_s))

    def transfer_s(self, nbytes: int) -> float:
        """Transfer time of ``nbytes`` at the profile's bandwidth."""
        return nbytes / self.bandwidth_bytes_s

    def gap_kind(self, gap: Optional[int]) -> int:
        """The gap rule: how the head gets to a read that starts ``gap``
        bytes after the previous read on its handle ended (None: the
        handle's first read) — :data:`SEQUENTIAL`, :data:`SETTLE` or
        :data:`SEEK`. Both the cost model and :meth:`IoStats.record_read`
        classify through here."""
        if gap == 0:
            return SEQUENTIAL
        if gap is not None and 0 < gap <= self.forward_window_bytes:
            return SETTLE
        return SEEK

    def position_cost_s(self, gap: Optional[int]) -> float:
        """Positioning cost given the byte gap from the previous read's
        end (None = first read on the handle)."""
        return self.position_costs_s[self.gap_kind(gap)]

    def read_cost_s(self, nbytes: int, gap: Optional[int]) -> float:
        """Positioning plus transfer cost of one read of ``nbytes``."""
        return self.position_cost_s(gap) + self.transfer_s(nbytes)


#: Engle: 80 GB ATA-100 IDE 7200 RPM disk, ext2 (paper section 4.2).
#: ~9 ms average seek+rotational latency, ~35 MB/s sustained reads.
ENGLE_DISK = DiskProfile(
    name="engle-ide",
    seek_s=0.009,
    bandwidth_bytes_s=35e6,
    open_s=0.004,
    settle_s=0.0015,
    forward_window_bytes=256 * 1024,
)

#: Turing node: cluster node local/REISERFS storage; slightly faster
#: positioning, comparable bandwidth.
TURING_DISK = DiskProfile(
    name="turing-reiserfs",
    seek_s=0.007,
    bandwidth_bytes_s=40e6,
    open_s=0.003,
    settle_s=0.0012,
    forward_window_bytes=256 * 1024,
)

#: Free I/O — counts volume/seeks but charges zero virtual time.
NULL_DISK = DiskProfile(
    name="null",
    seek_s=0.0,
    bandwidth_bytes_s=float("inf"),
    open_s=0.0,
)


#: The read-ahead buffer of a :class:`CostedFile`. A scientific file is
#: read nearly whole and in layout order (section 4.2), a few KB per
#: dataset, so a read-ahead of many datasets turns ~150 ``read(2)``
#: calls per MB into ~16; at 8 KB (``io.DEFAULT_BUFFER_SIZE``) the
#: syscalls were ~7 % of a ``unit_churn`` run's CPU on a 2-core host
#: (ADR-018).
READ_BUFFER_BYTES = 64 * 1024


@guarded_by("bytes_read", "read_calls", "seeks", "settles", "opens",
            "virtual_seconds", "per_file_bytes", lock="_lock")
class IoStats:
    """Thread-safe I/O counters shared across reader threads.

    The background I/O thread and the main thread both read files; one
    IoStats instance owned by the application aggregates everything the
    experiments need: total volume (N1), seek count and virtual seconds
    (N2).
    """

    def __init__(self) -> None:
        self._lock = TrackedLock(f"IoStats._lock@{id(self):#x}")
        self.bytes_read = 0
        self.read_calls = 0
        self.seeks = 0      # full repositioning (backward or far jump)
        self.settles = 0    # short forward skips
        self.opens = 0
        self.virtual_seconds = 0.0
        #: Per-file byte counts, for redundancy analysis.
        self.per_file_bytes: Dict[str, int] = {}

    def record_open(self, path: str, cost_s: float) -> None:
        """Count one open of ``path`` and charge its virtual cost."""
        with self._lock:
            self.opens += 1
            self.virtual_seconds += cost_s
            self.per_file_bytes.setdefault(path, 0)

    def record_read(self, path: str, nbytes: int, gap: Optional[int],
                    profile: "DiskProfile") -> None:
        """Count one read of ``nbytes`` that started ``gap`` bytes after
        the previous read on its handle ended (None: the handle's first)
        and charge its virtual cost under ``profile`` — the seek or
        settle :meth:`DiskProfile.gap_kind` names, plus the transfer."""
        kind = profile.gap_kind(gap)
        cost_s = (profile.position_costs_s[kind]
                  + nbytes / profile.bandwidth_bytes_s)
        self._lock.acquire()        # a per-buffer hold (ADR-018)
        try:
            self.bytes_read += nbytes
            self.read_calls += 1
            if kind == SEEK:
                self.seeks += 1
            elif kind == SETTLE:
                self.settles += 1
            self.virtual_seconds += cost_s
            per_file = self.per_file_bytes
            per_file[path] = per_file.get(path, 0) + nbytes
        finally:
            self._lock.release()

    def snapshot(self) -> Dict[str, float]:
        """The scalar counters, read together under the lock."""
        with self._lock:
            return {
                "bytes_read": self.bytes_read,
                "read_calls": self.read_calls,
                "seeks": self.seeks,
                "settles": self.settles,
                "opens": self.opens,
                "virtual_seconds": self.virtual_seconds,
            }

    def merge(self, other: "IoStats") -> None:
        """Fold another IoStats' counters into this one, atomically.

        Lets a reader meter one read call in a private instance (e.g. to
        learn that call's virtual cost) and then contribute the traffic to
        the application-wide aggregate.

        ``other`` is read under its own lock (so a concurrent
        ``record_read`` on it is counted wholly or not at all), then the
        copy is added under this one's; holding one lock at a time means
        two threads cross-merging (``a.merge(b)`` racing ``b.merge(a)``)
        have no lock order to get wrong. Merging an instance into itself
        is a no-op.
        """
        if other is self:
            return
        with other._lock:
            bytes_read, read_calls = other.bytes_read, other.read_calls
            seeks, settles = other.seeks, other.settles
            opens, virtual_seconds = other.opens, other.virtual_seconds
            per_file = dict(other.per_file_bytes)
        with self._lock:
            self.bytes_read += bytes_read
            self.read_calls += read_calls
            self.seeks += seeks
            self.settles += settles
            self.opens += opens
            self.virtual_seconds += virtual_seconds
            for path, nbytes in per_file.items():
                self.per_file_bytes[path] = (
                    self.per_file_bytes.get(path, 0) + nbytes
                )

    def reset(self) -> None:
        """Zero every counter and forget the per-file byte counts."""
        with self._lock:
            self.bytes_read = 0
            self.read_calls = 0
            self.seeks = 0
            self.settles = 0
            self.opens = 0
            self.virtual_seconds = 0.0
            self.per_file_bytes.clear()


class CostedFile:
    """Read-only binary file charging virtual I/O cost per access.

    Supports the subset of the file protocol the formats need: ``read``,
    ``seek``, ``tell``, context management, and the positioned
    ``read_at`` / ``readinto_at`` (a seek and a read in one call). A
    read is *sequential* when it starts exactly where the previous read
    (on this handle) ended — matching how a disk's head position behaves
    for a single-stream reader.
    """

    def __init__(self, path: str, stats: Optional[IoStats] = None,
                 profile: DiskProfile = NULL_DISK):
        self._path = os.fspath(path)
        self._file = open(self._path, "rb", buffering=READ_BUFFER_BYTES)
        self._closed = False
        self._stats = stats
        self._profile = profile
        self._last_end: Optional[int] = None  # offset after previous read
        if stats is not None:
            stats.record_open(self._path, profile.open_s)

    @property
    def path(self) -> str:
        """The path the file was opened from."""
        return self._path

    def read(self, nbytes: int = -1) -> bytes:
        """Read up to ``nbytes`` from the current position."""
        start = self._file.tell()
        data = self._file.read(nbytes)
        self._charge(start, len(data))
        return data

    def read_at(self, offset: int, nbytes: int) -> bytes:
        """Read up to ``nbytes`` starting at ``offset``: a ``seek`` and a
        ``read``, charged as that one read."""
        self._file.seek(offset)
        data = self._file.read(nbytes)
        self._charge(offset, len(data))
        return data

    def readinto_at(self, offset: int, buffer: memoryview) -> int:
        """Fill ``buffer`` (writable, C-contiguous) from ``offset`` and
        return the byte count read — fewer than its length only at end
        of file. Charged exactly as a ``read_at`` of that many bytes:
        one read call, same gap / seek / settle / cost rule."""
        file = self._file
        file.seek(offset)
        nbytes = file.readinto(buffer)
        # _charge, written out: this is the per-buffer read.
        last_end = self._last_end
        self._last_end = offset + nbytes
        if self._stats is not None:
            self._stats.record_read(
                self._path, nbytes,
                None if last_end is None else offset - last_end,
                self._profile)
        return nbytes

    def _charge(self, start: int, nbytes: int) -> None:
        """Count a read of ``nbytes`` from ``start`` on this handle."""
        gap = None if self._last_end is None else start - self._last_end
        self._last_end = start + nbytes
        if self._stats is not None:
            self._stats.record_read(self._path, nbytes, gap, self._profile)

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        """Move the position; free until the next read starts there."""
        # Real disks only pay when the head moves for a transfer.
        return self._file.seek(offset, whence)

    def tell(self) -> int:
        """The current position."""
        return self._file.tell()

    def size(self) -> int:
        """The file's size in bytes (an ``fstat``, not a read)."""
        return os.fstat(self._file.fileno()).st_size

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Close the underlying file. Idempotent: a second ``close()``
        (or leaving a ``with`` block after an explicit close) is a
        no-op, so ownership hand-offs between the read callback and the
        context manager cannot double-fault."""
        if self._closed:
            return
        self._closed = True
        self._file.close()

    def __enter__(self) -> "CostedFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
