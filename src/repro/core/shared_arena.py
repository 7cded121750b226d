"""SharedMemoryArena — field buffers and frames in OS shared memory.

The :class:`~repro.core.arena.Arena` that lets buffers cross a process
boundary without a copy: a segmented bump allocator over
``multiprocessing.shared_memory``. Buffers live in named OS shared
memory, so a *sharded* GBO (``repro.parallel.sharded``) can render into
its arena and let the coordinator map frames zero-copy: the producer
calls :meth:`~repro.core.arena.Arena.seal` +
:meth:`~repro.core.arena.Arena.export_token`, the consumer calls
:meth:`AttachCache.attach` and receives a **read-only** ndarray view of
the same physical pages — the PR-5 read-only-view discipline extended
across process boundaries (attached views are built over
``memoryview.toreadonly()`` so they cannot be flipped writable).

Only the process compute backend and the sharded fleet use it, so
``import repro`` does not load this module; :class:`~repro.core.database.GBO`
imports it in the one branch that builds one.

Lifetime rules: the creating process owns every segment and unlinks
them all in :meth:`SharedMemoryArena.close`; attachers only ever
``close()`` their mapping. Creator and attachers registered with the
same ``resource_tracker`` (the multiprocessing default for spawned
children) therefore end tracker-clean — the leak test in
``tests/test_core_arena.py`` checks ``/dev/shm`` directly.

Lock discipline: ``SharedMemoryArena`` owns the *arena* lock — a leaf
below every engine lock (rank 4 in DESIGN's table) — guarding the
segment table and the tracked-array map. See
``repro.analysis.lockfacts``.
"""

from __future__ import annotations

import secrets
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.primitives import TrackedLock, make_held_checker
from repro.analysis.races import guarded_by
from repro.core.arena import Allocation, Arena, BufferToken
from repro.errors import ArenaError

#: Default byte size of one shared-memory segment; allocations larger
#: than this get a dedicated segment of exactly their size.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

#: Allocation alignment inside a segment (numpy SIMD kernels want 64).
ALIGNMENT = 64


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


class _Segment:
    """One shared-memory segment and its bump-allocator state."""

    __slots__ = ("shm", "top", "live", "dedicated", "retired")

    def __init__(self, shm: shared_memory.SharedMemory,
                 dedicated: bool) -> None:
        self.shm = shm
        self.top = 0          # bump pointer
        self.live = 0         # outstanding allocations
        self.dedicated = dedicated
        self.retired = False  # no longer accepts new allocations


@guarded_by("_segments", "_tracked", "_arena_closed", lock="_lock")
class SharedMemoryArena(Arena):
    """Buffers in named OS shared memory, exportable across processes.

    A segmented bump allocator: allocations pack into
    ``segment_bytes``-sized segments (64-byte aligned); oversized
    requests get a dedicated segment. A segment is unlinked as soon as
    it is *retired* (no longer the open segment) and its last
    allocation is freed; :meth:`close` unlinks everything else. Only
    the creating process unlinks — attachers (see
    :class:`AttachCache`) merely close their mapping.

    The arena lock is a leaf (rank 4): it nests inside the engine and
    record locks at the allocation sites and is never held across a
    blocking operation.
    """

    shareable = True

    def __init__(self, name_prefix: Optional[str] = None,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        if segment_bytes < ALIGNMENT:
            raise ValueError("segment_bytes must be at least one "
                             f"alignment unit ({ALIGNMENT})")
        if name_prefix is None:
            name_prefix = f"godiva-{secrets.token_hex(4)}"
        self.name_prefix = name_prefix
        self.segment_bytes = segment_bytes
        self._lock = TrackedLock(f"SharedMemoryArena._lock@{id(self):#x}")
        self._check_locked = make_held_checker(
            self._lock, "SharedMemoryArena helper"
        )
        self._segments: Dict[str, _Segment] = {}
        self._tracked: Dict[int, Allocation] = {}
        self._next_seq = 0
        self._arena_closed = False

    # ------------------------------------------------------------------
    def _new_segment_locked(self, nbytes: int, dedicated: bool) -> _Segment:
        """Create and register a fresh segment. Lock held."""
        self._check_locked()
        name = f"{self.name_prefix}-{self._next_seq}"
        self._next_seq += 1
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(nbytes, 1))
        segment = _Segment(shm, dedicated)
        self._segments[name] = segment
        return segment

    def _open_segment_locked(self, nbytes: int) -> Tuple[_Segment, int]:
        """A segment with ``nbytes`` of room and the offset. Lock held."""
        self._check_locked()
        if nbytes > self.segment_bytes:
            segment = self._new_segment_locked(nbytes, dedicated=True)
            segment.top = nbytes
            return segment, 0
        for segment in self._segments.values():
            if segment.retired or segment.dedicated:
                continue
            offset = _align(segment.top)
            if offset + nbytes <= segment.shm.size:
                segment.top = offset + nbytes
                return segment, offset
            # Full: retire so it can be unlinked once drained.
            segment.retired = True
        segment = self._new_segment_locked(self.segment_bytes,
                                           dedicated=False)
        segment.top = nbytes
        return segment, 0

    def alloc_raw(self, nbytes: int) -> Allocation:
        """Bump-allocate ``nbytes`` (64-byte aligned) in shared memory."""
        if nbytes < 0:
            raise ValueError("buffer size must be non-negative")
        with self._lock:
            if self._arena_closed:
                raise ArenaError("arena is closed")
            segment, offset = self._open_segment_locked(max(nbytes, 1))
            segment.live += 1
            view = segment.shm.buf[offset:offset + nbytes]
            # Fresh segments are zero pages, but a recycled extent of a
            # shared segment may hold old bytes; match bytearray(n).
            view[:] = bytes(nbytes)
            return Allocation(segment.shm.name, offset, nbytes, view)

    def free_raw(self, alloc: Allocation) -> int:
        """Release one allocation; drained retired segments unlink."""
        if alloc.view is not None:
            try:
                alloc.view.release()
            except BufferError:  # caller-held views; GC reclaims them
                pass
            alloc.view = None
        unlinkable: List[shared_memory.SharedMemory] = []
        with self._lock:
            segment = self._segments.get(alloc.segment)
            if segment is not None:
                segment.live -= 1
                if (segment.dedicated or segment.retired) \
                        and segment.live <= 0:
                    self._segments.pop(alloc.segment)
                    unlinkable.append(segment.shm)
        for shm in unlinkable:
            _destroy_segment(shm)
        return alloc.nbytes

    # -- tracked-array bookkeeping -------------------------------------
    def _track(self, alloc: Allocation) -> None:
        address = np.frombuffer(
            alloc.view, dtype=np.uint8
        ).__array_interface__["data"][0] if alloc.nbytes else id(alloc)
        with self._lock:
            self._tracked[address] = alloc

    def _find(self, array: np.ndarray) -> Optional[Allocation]:
        address = array.__array_interface__["data"][0]
        with self._lock:
            return self._tracked.get(address)

    def _untrack(self, alloc: Allocation) -> None:
        with self._lock:
            for address, candidate in list(self._tracked.items()):
                if candidate is alloc:
                    self._tracked.pop(address)
                    break

    # ------------------------------------------------------------------
    def locate(self, array: np.ndarray) -> Optional[BufferToken]:
        """A token for *any* array whose bytes live in this arena.

        Address-range lookup over the segment table: works for raw
        ``alloc_raw`` views (field buffers) and slices of them, not
        just tracked/sealed :meth:`allocate` arrays — which is what
        lets the process compute plane export the engine's resident
        field buffers zero-copy instead of staging a copy. Returns
        ``None`` when the array is not C-contiguous or its storage is
        not (or no longer) inside a live segment — callers fall back
        to staging.

        The seal discipline is intentionally bypassed, so the contract
        shifts to the caller: the buffer must stay allocated and
        unmodified for as long as any attachment of the returned token
        is read (the compute plane guarantees this by holding the
        owning unit pinned until every task referencing it settles).
        """
        interface = array.__array_interface__
        if not array.flags["C_CONTIGUOUS"]:
            return None
        address = interface["data"][0]
        nbytes = array.nbytes
        with self._lock:
            if self._arena_closed:
                return None
            for name, segment in self._segments.items():
                if segment.shm.size == 0:
                    continue
                base = np.frombuffer(
                    segment.shm.buf, dtype=np.uint8
                ).__array_interface__["data"][0]
                offset = address - base
                if 0 <= offset and offset + nbytes <= segment.shm.size:
                    return BufferToken(
                        segment=name,
                        offset=offset,
                        nbytes=nbytes,
                        dtype=array.dtype.str,
                        shape=tuple(array.shape),
                    )
        return None

    def export_token(self, array: np.ndarray) -> BufferToken:
        """A :class:`BufferToken` another process can attach.

        Requires the array to be sealed — exporting writable memory
        would let two processes race on the same pages.
        """
        alloc = self._require(array, "export_token")
        if not alloc.sealed:
            raise ArenaError(
                "export_token: seal the array first (only immutable "
                "buffers cross process boundaries)"
            )
        return BufferToken(
            segment=alloc.segment,
            offset=alloc.offset,
            nbytes=alloc.nbytes,
            dtype=array.dtype.str,
            shape=tuple(array.shape),
        )

    def close(self) -> None:
        """Unlink every segment. Idempotent; creator-only."""
        with self._lock:
            if self._arena_closed:
                return
            self._arena_closed = True
            segments = list(self._segments.values())
            self._segments.clear()
            self._tracked.clear()
        for segment in segments:
            _destroy_segment(segment.shm)

    def report(self) -> dict:
        """Segment count, reserved bytes, and live allocations."""
        with self._lock:
            segments = len(self._segments)
            reserved = sum(s.shm.size for s in self._segments.values())
            live = sum(s.live for s in self._segments.values())
        return {
            "kind": "SharedMemoryArena",
            "shareable": True,
            "segments": segments,
            "reserved_bytes": reserved,
            "live_allocations": live,
        }


#: Mappings whose ``close()`` failed because caller-held views still
#: pin them. Parking the wrapper here keeps ``SharedMemory.__del__``
#: from retrying the close at GC time (an unraisable ``BufferError``);
#: the pages themselves stay mapped until process exit, which is the
#: best that can be done while a view is alive — the segment is already
#: unlinked, so nothing leaks in ``/dev/shm``.
_PINNED_MAPPINGS: List[shared_memory.SharedMemory] = []


def _close_mapping(shm: shared_memory.SharedMemory) -> None:
    """Unmap one segment, parking it if live views prevent the close."""
    try:
        shm.close()
    except BufferError:
        _PINNED_MAPPINGS.append(shm)


def _destroy_segment(shm: shared_memory.SharedMemory) -> None:
    """Close + unlink one segment, tolerating still-exported views.

    ``mmap.close`` raises ``BufferError`` while numpy views into the
    mapping are alive; the *unlink* must still happen (it is what keeps
    ``/dev/shm`` and the resource tracker clean) and the mapping itself
    is reclaimed when the last view is garbage-collected.
    """
    _close_mapping(shm)
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class AttachCache:
    """The consumer side of token transport: exported buffers mapped
    into this process, one mapping per segment.

    :meth:`attach` returns a zero-copy, **read-only** ndarray over the
    token's pages — built from ``memoryview.toreadonly()``, so not even
    ``flags.writeable = True`` can re-arm writes — and reuses the
    segment's mapping for every later token naming it. :meth:`close`
    unmaps every segment and never unlinks (the creating arena owns
    that); views still alive keep their pages mapped.
    """

    def __init__(self) -> None:
        self._maps: Dict[str, shared_memory.SharedMemory] = {}

    def attach(self, token: BufferToken) -> np.ndarray:
        """A read-only zero-copy ndarray over the token's pages."""
        shm = self._maps.get(token.segment)
        if shm is None:
            shm = shared_memory.SharedMemory(name=token.segment)
            self._maps[token.segment] = shm
        ro = shm.buf[token.offset:token.offset + token.nbytes].toreadonly()
        return np.frombuffer(ro, dtype=np.dtype(token.dtype)).reshape(
            token.shape)

    def close(self) -> None:
        """Unmap every segment (parked while views pin it); idempotent."""
        maps, self._maps = self._maps, {}
        for shm in maps.values():
            _close_mapping(shm)
