"""BufferArena — pluggable buffer allocation for the GODIVA engine.

GODIVA's record layer manages buffer *locations* (section 3.1); where
the bytes physically live was hard-coded as process-private
``bytearray`` storage. This module turns that decision into a seam: an
:class:`Arena` hands out buffers, and every allocation site in the
engine (record payloads via :class:`~repro.core.record.FieldBuffer`,
derived products via :class:`~repro.core.derived.DerivedCache`) asks
its arena instead of the heap.

Two arenas ship:

* :class:`HeapArena` (here) — the default. ``alloc_raw`` returns a
  fresh ``bytearray``, exactly the storage the engine always used, so
  the default build is byte-identical to the pre-arena engine; the
  record layer makes that ``bytearray`` itself rather than asking a
  ``HeapArena`` for it.
* :class:`~repro.core.shared_arena.SharedMemoryArena` — buffers in
  named OS shared memory, exportable across processes as
  :class:`BufferToken`\\ s. It lives in its own module, which
  ``import repro`` does not load: only a process or sharded build
  needs it.

``HeapArena`` is stateless and lock-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ArenaError

@dataclass(frozen=True)
class BufferToken:
    """A picklable handle to one sealed arena buffer.

    Names *where the bytes live* (segment + offset + length) and *how to
    view them* (dtype string + shape); crossing a process boundary costs
    exactly these few dozen bytes — the payload is never copied.
    """

    segment: str
    offset: int
    nbytes: int
    dtype: str
    shape: Tuple[int, ...]


class Allocation:
    """One raw arena allocation: a writable buffer plus its address.

    ``view`` is the storage object field buffers hold — a ``bytearray``
    from :class:`HeapArena` (process-private) or a ``memoryview`` into a
    shared segment from :class:`SharedMemoryArena`. Both support
    ``len``, slice assignment, and ``np.frombuffer``, which is all the
    record layer needs.
    """

    __slots__ = ("segment", "offset", "nbytes", "view", "sealed")

    def __init__(self, segment: Optional[str], offset: int, nbytes: int,
                 view) -> None:
        self.segment = segment
        self.offset = offset
        self.nbytes = nbytes
        self.view = view
        self.sealed = False


class Arena:
    """The buffer-allocation protocol the engine layers program against.

    Raw interface (field buffers): :meth:`alloc_raw` / :meth:`free_raw`.
    Array interface (derived products, frames): :meth:`allocate` returns
    a tracked ndarray; :meth:`seal` makes it read-only and exportable;
    :meth:`release` returns its bytes; :meth:`export_token` /
    :meth:`AttachCache.attach` move it across a process boundary without
    copying. Subclasses implement the raw primitives; the tracked-array
    bookkeeping lives here.
    """

    #: Whether buffers are visible to other processes (token export).
    shareable = False

    # -- raw primitives (subclass responsibility) ----------------------
    def alloc_raw(self, nbytes: int) -> Allocation:
        raise NotImplementedError

    def free_raw(self, alloc: Allocation) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Tear the arena down; shared segments are unlinked."""

    # -- tracked-array interface ---------------------------------------
    def _track(self, alloc: Allocation) -> None:
        """Remember an array allocation for seal/release/export lookup."""

    def _find(self, array: np.ndarray) -> Optional[Allocation]:
        """The tracked allocation backing ``array``, or None."""
        return None

    def _untrack(self, alloc: Allocation) -> None:
        """Forget a tracked allocation."""

    def allocate(self, nbytes: Optional[int] = None,
                 dtype: object = np.uint8,
                 shape: Optional[Tuple[int, ...]] = None) -> np.ndarray:
        """A writable ndarray backed by arena storage.

        ``shape`` (with ``dtype``) determines the byte size when
        ``nbytes`` is omitted; a flat byte buffer needs only ``nbytes``.
        """
        dt = np.dtype(dtype)
        if shape is not None:
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            needed = count * dt.itemsize
            if nbytes is None:
                nbytes = needed
            elif nbytes != needed:
                raise ArenaError(
                    f"allocate: nbytes={nbytes} does not match "
                    f"shape {shape} of {dt} ({needed} bytes)"
                )
        if nbytes is None:
            raise ArenaError("allocate needs nbytes or shape")
        if nbytes % dt.itemsize != 0:
            raise ArenaError(
                f"allocate: {nbytes} bytes is not a multiple of the "
                f"{dt} item size {dt.itemsize}"
            )
        alloc = self.alloc_raw(nbytes)
        self._track(alloc)
        array = np.frombuffer(alloc.view, dtype=dt)
        if shape is not None:
            array = array.reshape(shape)
        return array

    def _require(self, array: np.ndarray, op: str) -> Allocation:
        alloc = self._find(array)
        if alloc is None:
            raise ArenaError(
                f"{op}: array is not a tracked allocation of this arena"
            )
        return alloc

    def seal(self, array: np.ndarray) -> np.ndarray:
        """Freeze a tracked array (``writeable=False``) for sharing.

        Sealing is the precondition for :meth:`export_token`: only
        immutable buffers may cross a process boundary, which is what
        keeps zero-copy attachment sound.
        """
        alloc = self._require(array, "seal")
        alloc.sealed = True
        array.flags.writeable = False
        return array

    def is_sealed(self, array: np.ndarray) -> bool:
        """Whether a tracked array has been sealed."""
        return self._require(array, "is_sealed").sealed

    def release(self, array: np.ndarray) -> int:
        """Free a tracked array's storage; returns the bytes returned.

        Tolerates untracked arrays (returns 0) so cache eviction can
        release values wholesale without knowing which of them the
        arena produced.
        """
        alloc = self._find(array)
        if alloc is None:
            return 0
        self._untrack(alloc)
        return self.free_raw(alloc)

    def export_token(self, array: np.ndarray) -> BufferToken:
        """A :class:`BufferToken` for a sealed, tracked array."""
        raise ArenaError(
            f"{type(self).__name__} buffers are process-private and "
            f"cannot be exported; use SharedMemoryArena"
        )

    def report(self) -> dict:
        """Diagnostic snapshot (segments, bytes) for memory reports."""
        return {"kind": type(self).__name__, "shareable": self.shareable}


class HeapArena(Arena):
    """Process-private heap allocation — the engine's historical
    behaviour, byte for byte.

    ``alloc_raw`` returns a fresh zero-filled ``bytearray`` exactly as
    ``FieldBuffer`` always allocated; there is no bookkeeping and no
    lock, so the default GBO build pays nothing for the seam. Tracked
    arrays (the :meth:`Arena.allocate` interface) are plain heap
    ndarrays: :meth:`seal` works (read-only flag), :meth:`export_token`
    raises :class:`~repro.errors.ArenaError`.
    """

    shareable = False

    def __init__(self) -> None:
        self._tracked: Dict[int, Allocation] = {}

    def alloc_raw(self, nbytes: int) -> Allocation:
        """A fresh zero-filled ``bytearray`` — the historical storage."""
        return Allocation(None, 0, nbytes, bytearray(nbytes))

    def free_raw(self, alloc: Allocation) -> int:
        """Drop the buffer reference; the heap reclaims it."""
        alloc.view = None
        return alloc.nbytes

    def _track(self, alloc: Allocation) -> None:
        address = np.frombuffer(
            alloc.view, dtype=np.uint8
        ).__array_interface__["data"][0]
        self._tracked[address] = alloc

    def _find(self, array: np.ndarray) -> Optional[Allocation]:
        address = array.__array_interface__["data"][0]
        return self._tracked.get(address)

    def _untrack(self, alloc: Allocation) -> None:
        address = np.frombuffer(
            alloc.view, dtype=np.uint8
        ).__array_interface__["data"][0]
        self._tracked.pop(address, None)
