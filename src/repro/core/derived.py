"""DerivedCache — budget-charged memoization of derived data products.

GODIVA eliminates redundant *reads* by keeping source buffers resident;
this module applies the same idea to redundant *compute*: derived arrays
(boundary skins, element-to-node scatters, magnitude fields, extracted
geometry, even composited frames) are memoized under content-addressed
keys so repeated graphics operations and repeated time-steps reuse them
instead of re-deriving them (SAVIME and DIVA make the same argument for
keeping analysis products inside the data-management layer).

The cache is *not* a second memory pool: every entry is charged to the
same :class:`~repro.core.memory_manager.MemoryManager` budget as unit
records and registered with the same pluggable
:class:`~repro.core.cache.EvictionPolicy`, so units and derived entries
compete fairly under the paper's single ``setMemSpace`` budget. When a
demand load needs bytes, the ordinary eviction loop reclaims cache
entries (and idle units) before the deadlock detector is ever consulted.

All cache state is mutated under the *engine* lock (the facade-injected
lock/condition pair shared with the memory manager and the I/O
scheduler, which holds the unit table); methods documented "Lock held."
must be called with it held (checked under ``REPRO_ANALYSIS=1``).
Compute callables and content hashing run **without** the lock, so a
slow kernel never stalls the I/O workers.

Entry values are frozen (``writeable=False``) before insertion: callers
receive shared arrays, and sharing is only safe because nobody can
mutate them — the zero-copy contract the read path mirrors.

When the cache is built over a shareable
:class:`~repro.core.arena.Arena` (the sharded build's
``SharedMemoryArena``), inserted ndarray values are *copied into the
arena and sealed* before caching, so cached frames and soups live in
shared memory: a shard host can hand its coordinator an
``export_token`` for a cached frame and the compositor reads it
zero-copy. The copy happens once at insert time, outside the engine
lock; eviction releases the arena storage.
"""

from __future__ import annotations

import copy
import hashlib
import sys
import time
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis.primitives import make_held_checker
from repro.analysis.races import guarded_by
from repro.errors import MemoryBudgetError

#: Namespace prefix separating derived-entry names from unit names in
#: the shared eviction policy. Unit names starting with this prefix are
#: reserved.
DERIVED_PREFIX = "derived::"

#: Entries above this fraction of the total budget are never cached —
#: one memo must not evict the whole working set.
MAX_ENTRY_BUDGET_FRACTION = 0.5

#: Cap on the content-token memo table (identity -> digest); tokens are
#: tiny, the cap only bounds pathological key churn.
MAX_TOKENS = 65536


def content_token(*arrays: np.ndarray) -> str:
    """A content fingerprint of a sequence of arrays: one blake2b-16
    digest over each array's dtype, shape and bytes, in order.

    Two sequences share a token iff they hold bit-identical arrays of
    the same dtypes and shapes in the same order — the property that
    makes cross-time-step reuse of constant mesh data safe (a 16-byte
    blake2b collision is negligible). The arrays' dtypes and shapes
    are hashed ahead of their bytes, so the split is part of the
    content: one array ``ab`` and the two arrays ``a``, ``b`` never
    share a token.
    """
    arrays = [np.ascontiguousarray(array) for array in arrays]
    # Every dtype and shape first: the header ends at the first ";",
    # then fixes where each array's bytes start and end.
    header = repr([(array.dtype.str, array.shape) for array in arrays])
    digest = hashlib.blake2b(f"{header};".encode("ascii"), digest_size=16)
    for array in arrays:
        digest.update(array)
    return digest.hexdigest()


def nbytes_of(value: Any) -> int:
    """Budget-accounting size of a cacheable value.

    Arrays count their payload; containers sum their elements plus a
    small overhead constant; objects may expose ``cache_nbytes()``;
    anything else falls back to :func:`sys.getsizeof`.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(nbytes_of(item) for item in value) + 64
    hook = getattr(value, "cache_nbytes", None)
    if hook is not None:
        return int(hook())
    return int(sys.getsizeof(value))


def share_value(arena: object, value: Any) -> Any:
    """Copy a value's ndarrays into ``arena`` storage, sealed.

    Recurses into tuples/lists (preserving the container type); leaves
    non-array values alone. The returned structure is the one to cache:
    every non-empty array in it is arena-tracked, read-only, and
    exportable. A zero-size array passes through as it is: it has no
    bytes to share, and an arena finds a tracked array by the address
    of its bytes.
    """
    if isinstance(value, np.ndarray):
        if not value.size:
            return value
        copy = arena.allocate(dtype=value.dtype, shape=value.shape)
        np.copyto(copy, value)
        return arena.seal(copy)
    if isinstance(value, tuple):
        return tuple(share_value(arena, item) for item in value)
    if isinstance(value, list):
        return [share_value(arena, item) for item in value]
    return value


def release_value(arena: object, value: Any) -> int:
    """Return a value's arena-tracked arrays to the arena.

    The inverse of :func:`share_value`; untracked arrays are skipped
    (``Arena.release`` tolerates them), so it is safe to call on any
    evicted entry. Returns the bytes released.
    """
    if isinstance(value, np.ndarray):
        return arena.release(value)
    if isinstance(value, (tuple, list)):
        return sum(release_value(arena, item) for item in value)
    return 0


def freeze_value(value: Any) -> Any:
    """Mark a value's arrays read-only so cached results can be shared.

    Recurses into tuples/lists; objects may expose ``cache_freeze()``.
    Returns the (mutated in place) value for chaining.
    """
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            freeze_value(item)
    else:
        hook = getattr(value, "cache_freeze", None)
        if hook is not None:
            hook()
    return value


def _canon(part: Any) -> str:
    """Deterministic string form of one key part."""
    if isinstance(part, str):
        return part
    if isinstance(part, bytes):
        return part.hex()
    if isinstance(part, float):
        return repr(part)
    if isinstance(part, (tuple, list)):
        return "(" + ",".join(_canon(p) for p in part) + ")"
    return str(part)


def canonical_key(key: Any) -> str:
    """Collapse a tuple key into the flat string the policy tracks."""
    if isinstance(key, str):
        return key
    if isinstance(key, (tuple, list)):
        return "|".join(_canon(part) for part in key)
    return _canon(key)


class _Entry:
    """One cached derived value and its accounting size."""

    __slots__ = ("value", "nbytes")

    def __init__(self, value: Any, nbytes: int) -> None:
        self.value = value
        self.nbytes = nbytes


@guarded_by("_entries", "_tokens", lock="_lock")
class DerivedCache:
    """Key-addressed memo cache charged to the engine memory budget.

    Parameters
    ----------
    memory:
        The :class:`MemoryManager` whose budget and eviction policy the
        cache shares. The manager must be told about the cache with
        ``bind(derived=...)`` so its eviction loop can reclaim entries.
    lock, cond:
        The engine lock/condition pair to share with ``memory``; when
        ``None`` the manager's own pair is adopted, so a standalone
        ``DerivedCache(MemoryManager(...))`` is correctly synchronized
        out of the box.
    stats:
        The :class:`~repro.core.stats.GodivaStats` sink for the
        ``derived_*`` counters; defaults to the manager's sink.
    clock:
        Monotonic-seconds callable for event timestamps.
    event_hook:
        Optional ``hook(event, name, now)`` observability callback
        (the GBO wires its ``unit_event_hook``), invoked with the
        engine lock held; events are ``derived_cached`` /
        ``derived_hit`` / ``derived_evicted``.
    arena:
        Optional :class:`~repro.core.arena.Arena`. When it is
        *shareable* (shared memory), inserted ndarrays are copied into
        arena storage and sealed so cached products can be exported to
        other processes; heap arenas (and ``None``) cache values in
        place, unchanged.
    """

    def __init__(
        self,
        memory: object,
        *,
        lock: Optional[object] = None,
        cond: Optional[object] = None,
        stats: Optional[object] = None,
        clock: Callable[[], float] = time.monotonic,
        event_hook: Optional[Callable[[str, str, float], None]] = None,
        arena: Optional[object] = None,
    ) -> None:
        if lock is None:
            lock = memory.lock
            cond = memory.cond
        self._lock = lock
        self._cond = cond
        self._check_locked = make_held_checker(lock, "DerivedCache helper")
        self._clock = clock
        self._memory = memory
        self.stats = stats if stats is not None else memory.stats
        self._event_hook = event_hook
        #: Arena for shareable storage of cached products; None or a
        #: non-shareable arena caches values in place.
        self._arena = arena if (
            arena is not None and arena.shareable
        ) else None
        self._entries: Dict[str, _Entry] = {}
        #: Identity -> content-token memo (FIFO-capped side table; the
        #: few dozen bytes per token are not worth budget accounting).
        self._tokens: Dict[Hashable, str] = {}

    #: Scope of a view made by :meth:`_scoped` (None: the whole cache)
    #: and the policy-name prefix its keys are registered under.
    _scope: Optional[str] = None
    _prefix = DERIVED_PREFIX

    def _scoped(self, scope: str) -> "DerivedCache":
        """A view sharing this cache's entries, tokens and budget whose
        keys are named ``derived::<scope>|<key>`` and whose token
        identities are ``(scope, identity)``: two scopes using one key
        never see each other's entry or token. The one entry point of
        a scope into the cache; ``clear`` drops only the scope's
        entries, while introspection stays cache-wide."""
        view = copy.copy(self)
        view._scope = scope
        view._prefix = f"{DERIVED_PREFIX}{scope}|"
        return view

    # ------------------------------------------------------------------
    # Policy-name ownership
    # ------------------------------------------------------------------
    @staticmethod
    def owns(policy_name: str) -> bool:
        """Whether an eviction-policy name denotes a derived entry."""
        return policy_name.startswith(DERIVED_PREFIX)

    @staticmethod
    def policy_name(key: Any) -> str:
        """The eviction-policy name under which a key is registered."""
        return DERIVED_PREFIX + canonical_key(key)

    def _name(self, key: Any) -> str:
        """:meth:`policy_name` within this view's scope."""
        return self._prefix + canonical_key(key)

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, key: Any) -> Optional[Any]:
        """The cached value for ``key``, or None (counts a hit/miss)."""
        name = self._name(key)
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                self.stats.derived_misses += 1
                return None
            self.stats.derived_hits += 1
            self._memory.policy.touch(name)
            self._emit("derived_hit", name)
            return entry.value

    def put(self, key: Any, value: Any,
            nbytes: Optional[int] = None) -> Any:
        """Insert a computed value, charging the shared memory budget.

        The value is frozen (arrays become read-only) whether or not it
        is cached. Returns the value to use: the existing entry when a
        concurrent compute already landed one, the caller's value
        otherwise. Values that do not fit the budget even after
        eviction — or exceed ``MAX_ENTRY_BUDGET_FRACTION`` of it — are
        returned uncached; memoization must never wedge real loads.
        """
        if value is None:
            raise ValueError("derived cache values must not be None")
        freeze_value(value)
        if nbytes is None:
            nbytes = nbytes_of(value)
        # Copy into shared storage *outside* the lock (it is a bulk
        # memcpy); released again on every path that does not cache it.
        shared = (
            share_value(self._arena, value)
            if self._arena is not None else None
        )
        store = shared if shared is not None else value
        name = self._name(key)
        with self._cond:
            existing = self._entries.get(name)
            if existing is not None:
                if shared is not None:
                    release_value(self._arena, shared)
                return existing.value
            budget = self._memory.accountant.budget_bytes
            if nbytes > budget * MAX_ENTRY_BUDGET_FRACTION:
                if shared is not None:
                    release_value(self._arena, shared)
                return value
            try:
                self._memory.charge(nbytes)
            except MemoryBudgetError:
                if shared is not None:
                    release_value(self._arena, shared)
                return value
            self._entries[name] = _Entry(store, nbytes)
            self._memory.policy.add(name)
            self.stats.derived_bytes += nbytes
            self._emit("derived_cached", name)
            return store

    def get_or_compute(self, key: Any, compute: Callable[[], Any],
                       nbytes: Optional[int] = None) -> Any:
        """Memoized call: return the cached value or compute and cache.

        ``compute`` runs **without** the engine lock; two threads racing
        on the same key may both compute, in which case the first insert
        wins and both receive the same (frozen) value.
        """
        cached = self.get(key)
        if cached is not None:
            return cached
        return self.put(key, compute(), nbytes=nbytes)

    def invalidate(self, key: Any) -> bool:
        """Drop one entry, returning its bytes to the budget."""
        name = self._name(key)
        with self._cond:
            if name not in self._entries:
                return False
            self._memory.policy.remove(name)
            self.evict_locked(name)
            self._cond.notify_all()
            return True

    # ------------------------------------------------------------------
    # Content tokens
    # ------------------------------------------------------------------
    def token(self, identity: Hashable,
              arrays_provider: Callable[[], Sequence[np.ndarray]]) -> str:
        """Memoized :func:`content_token` of the arrays behind
        ``identity``.

        ``identity`` names *where* the arrays came from (record type,
        field, block order, time-step); the token says *what bits they
        hold*. Data backends key derived entries by token, which is
        what lets a mesh that is constant across the snapshot series
        share one cached boundary skin. A revisit costs one lookup;
        hashing runs without the lock.
        """
        if self._scope is not None:
            identity = (self._scope, identity)
        with self._lock:
            tok = self._tokens.get(identity)
        if tok is None:
            tok = content_token(*arrays_provider())
            with self._lock:
                while len(self._tokens) >= MAX_TOKENS:
                    self._tokens.pop(next(iter(self._tokens)))
                self._tokens[identity] = tok
        return tok

    # ------------------------------------------------------------------
    # Eviction-side interface (MemoryManager calls these)
    # ------------------------------------------------------------------
    def evict_locked(self, name: str) -> int:
        """Drop the named entry and return its bytes. Lock held.

        Called by the memory manager's eviction loop after the policy
        chose ``name`` as victim (the policy no longer tracks it).
        """
        self._check_locked()
        entry = self._entries.pop(name)
        if self._arena is not None:
            release_value(self._arena, entry.value)
        self._memory.release(entry.nbytes, None)
        self.stats.derived_bytes -= entry.nbytes
        self.stats.derived_evictions += 1
        self._emit("derived_evicted", name)
        return entry.nbytes

    def clear_locked(self) -> int:
        """Drop every entry and token (close path) — on a scoped view,
        the scope's entries only. Lock held."""
        self._check_locked()
        freed = 0
        for name in [n for n in self._entries if n.startswith(self._prefix)]:
            self._memory.policy.remove(name)
            freed += self.evict_locked(name)
        if self._scope is None:
            self._tokens.clear()
        return freed

    def clear(self) -> int:
        """:meth:`clear_locked` under the lock; returns the bytes freed."""
        with self._cond:
            freed = self.clear_locked()
            self._cond.notify_all()
            return freed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_bytes_locked(self) -> int:
        """Bytes currently charged to cache entries. Lock held."""
        self._check_locked()
        return sum(entry.nbytes for entry in self._entries.values())

    @property
    def resident_bytes(self) -> int:
        """Bytes currently charged to cache entries."""
        with self._lock:
            return self.resident_bytes_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return self._name(key) in self._entries

    def entry_names_locked(self) -> List[str]:
        """Policy names of every live entry. Lock held."""
        self._check_locked()
        return list(self._entries)

    def entries_locked(self) -> List[Tuple[str, int]]:
        """(policy name, nbytes) of every live entry. Lock held.

        The per-entry byte accessor the tenancy ledger uses to charge
        ``derived::`` entries to the owning tenant without taking the
        lock it already holds.
        """
        self._check_locked()
        return [
            (name, entry.nbytes)
            for name, entry in self._entries.items()
        ]

    def report(self) -> List[Tuple[str, int]]:
        """(policy name, nbytes) per entry, insertion-ordered."""
        with self._lock:
            return [
                (name, entry.nbytes)
                for name, entry in self._entries.items()
            ]

    # ------------------------------------------------------------------
    def _emit(self, event: str, name: str) -> None:
        """Fire the observability hook. Lock held."""
        if self._event_hook is not None:
            self._event_hook(event, name, self._clock())
