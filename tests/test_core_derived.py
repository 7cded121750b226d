"""DerivedCache: budget-charged memoization under the engine budget.

Covers the cache in isolation against a standalone
:class:`MemoryManager` (hit/miss accounting, duplicate inserts, the
oversized-entry refusal, eviction through the shared policy, tokens)
and inside a full GBO (units and cache entries competing for the same
``setMemSpace`` budget, demand loads reclaiming cache bytes, the
invariant checker, the close path).
"""

import numpy as np
import pytest

from repro.analysis.invariants import check_invariants
from repro.core.database import GBO
from repro.core.derived import (
    DERIVED_PREFIX,
    DerivedCache,
    canonical_key,
    content_token,
    freeze_value,
    nbytes_of,
    share_value,
)
from repro.core.memory_manager import MemoryManager
from repro.core.schema import RecordSchema, SchemaField
from repro.core.shared_arena import SharedMemoryArena
from repro.core.types import DataType
from repro.errors import MemoryBudgetError

MB = 1 << 20


@pytest.fixture
def memory():
    return MemoryManager(MB)


@pytest.fixture
def cache(memory):
    cache = DerivedCache(memory)
    memory.bind(release_records=lambda name: 0,
                derived=cache)
    return cache


class TestHelpers:
    def test_content_token_equality(self):
        a = np.arange(6, dtype=np.float64)
        b = np.arange(6, dtype=np.float64)
        assert content_token(a) == content_token(b)

    def test_content_token_distinguishes_dtype_and_shape(self):
        a = np.arange(6, dtype=np.float64)
        assert content_token(a) != content_token(a.astype(np.float32))
        assert content_token(a) != content_token(a.reshape(2, 3))
        assert content_token(a) != content_token(a + 1.0)

    def test_content_token_noncontiguous(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert content_token(a[:, ::2]) == content_token(
            a[:, ::2].copy()
        )

    def test_nbytes_of(self):
        array = np.zeros(100, dtype=np.float64)
        assert nbytes_of(array) == 800
        assert nbytes_of((array, array)) == 1664

        class Sized:
            def cache_nbytes(self):
                return 12345

        assert nbytes_of(Sized()) == 12345
        assert nbytes_of("x") > 0   # getsizeof fallback

    def test_freeze_value(self):
        array = np.zeros(4)
        frozen = freeze_value((array, [np.ones(2)]))
        assert not frozen[0].flags.writeable
        assert not frozen[1][0].flags.writeable

        class Freezable:
            frozen = False

            def cache_freeze(self):
                self.frozen = True

        obj = Freezable()
        freeze_value(obj)
        assert obj.frozen

    def test_canonical_key_forms(self):
        assert canonical_key("plain") == "plain"
        assert canonical_key(("a", 1, 2.5)) == "a|1|2.5"
        assert canonical_key(("a", ("b", "c"))) == "a|(b,c)"
        assert canonical_key((b"\x01",)) == "01"

    def test_policy_name_and_owns(self):
        name = DerivedCache.policy_name(("k", 1))
        assert name == DERIVED_PREFIX + "k|1"
        assert DerivedCache.owns(name)
        assert not DerivedCache.owns("unit0001")


class TestLookupInsert:
    def test_miss_then_hit(self, cache):
        assert cache.get(("a",)) is None
        assert cache.stats.derived_misses == 1
        value = cache.put(("a",), np.arange(10.0))
        got = cache.get(("a",))
        assert got is value
        assert cache.stats.derived_hits == 1
        assert cache.stats.derived_bytes == value.nbytes

    def test_put_freezes_value(self, cache):
        value = cache.put(("a",), np.arange(10.0))
        with pytest.raises(ValueError):
            value[0] = 99.0

    def test_put_none_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.put(("a",), None)

    def test_duplicate_put_returns_first(self, cache):
        first = cache.put(("a",), np.arange(10.0))
        second = cache.put(("a",), np.arange(10.0))
        assert second is first
        assert len(cache) == 1
        assert cache.stats.derived_bytes == first.nbytes

    def test_oversized_entry_refused(self, cache, memory):
        huge = np.zeros(MB // 2 + 8, dtype=np.uint8)   # > budget/2
        value = cache.put(("huge",), huge)
        assert value is huge                # returned, usable
        assert not value.flags.writeable    # still frozen
        assert len(cache) == 0
        with memory.lock:
            assert memory.accountant.used_bytes == 0

    def test_get_or_compute_memoizes(self, cache):
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return np.arange(8.0)

        first = cache.get_or_compute(("k",), compute)
        second = cache.get_or_compute(("k",), compute)
        assert calls["n"] == 1
        assert second is first

    def test_invalidate(self, cache, memory):
        cache.put(("a",), np.arange(10.0))
        assert ("a",) in cache
        assert cache.invalidate(("a",))
        assert ("a",) not in cache
        assert not cache.invalidate(("a",))
        with memory.lock:
            assert memory.accountant.used_bytes == 0
        assert cache.stats.derived_bytes == 0

    def test_report_and_len(self, cache):
        cache.put(("a",), np.arange(10.0))
        cache.put(("b",), np.arange(20.0))
        assert len(cache) == 2
        report = dict(cache.report())
        assert report[DERIVED_PREFIX + "a"] == 80
        assert report[DERIVED_PREFIX + "b"] == 160


class TestSharedArena:
    """A cache over a shareable arena copies values into shared memory;
    a zero-size array (a draw that covers no pixel) has no bytes to
    copy and is cached as it is."""

    @pytest.fixture
    def arena(self):
        arena = SharedMemoryArena(name_prefix="t-derived-empty")
        yield arena
        arena.close()

    def test_share_value_passes_zero_size_through(self, arena):
        empty = np.empty((0, 4))
        assert share_value(arena, empty) is empty
        pair = share_value(arena, (np.empty(0), np.arange(3.0)))
        assert pair[0].size == 0
        assert arena.export_token(pair[1]).nbytes == 24

    def test_put_caches_a_value_holding_an_empty_array(self, memory,
                                                       arena):
        cache = DerivedCache(memory, arena=arena)
        memory.bind(release_records=lambda name: 0, derived=cache)
        stored = cache.put(("cover",), (np.empty(0, np.int64),
                                        np.arange(4.0)))
        assert ("cover",) in cache
        assert cache.get(("cover",)) is stored
        assert stored[0].size == 0 and not stored[0].flags.writeable
        assert arena.export_token(stored[1]).nbytes == 32
        assert cache.invalidate(("cover",))
        assert len(cache) == 0


class TestEviction:
    def test_puts_evict_older_entries(self, cache, memory):
        """Four ~0.3 MB entries against a 1 MB budget: the charge loop
        reclaims the oldest entries through the shared policy."""
        chunk = 300 * 1024
        for i in range(4):
            cache.put(("blob", i), np.zeros(chunk, dtype=np.uint8))
        assert cache.stats.derived_evictions >= 1
        assert ("blob", 3) in cache          # newest survives (LRU)
        assert ("blob", 0) not in cache
        with memory.lock:
            assert memory.accountant.used_bytes <= MB

    def test_demand_charge_reclaims_cache_bytes(self, cache, memory):
        """A plain allocation (a unit load's charge) evicts derived
        entries instead of failing — the cache yields to real data."""
        for i in range(3):
            cache.put(("blob", i), np.zeros(300 * 1024, dtype=np.uint8))
        with memory.lock:
            memory.charge(900 * 1024)        # would not fit uncached
        assert cache.stats.derived_evictions >= 2
        assert cache.resident_bytes + 900 * 1024 <= MB

    def test_charge_beyond_budget_still_fails(self, cache, memory):
        cache.put(("blob",), np.zeros(100, dtype=np.uint8))
        with memory.lock:
            with pytest.raises(MemoryBudgetError):
                memory.charge(2 * MB)

    def test_evict_next_victim_dispatches_to_cache(self, cache, memory):
        cache.put(("a",), np.arange(10.0))
        with memory.lock:
            assert memory.evict_next_victim()
            assert not memory.evict_next_victim()   # nothing left
        assert len(cache) == 0
        assert cache.stats.derived_evictions == 1

    def test_clear_frees_everything(self, cache, memory):
        for i in range(3):
            cache.put(("blob", i), np.arange(100.0))
        assert cache.clear() == 2400
        assert len(cache) == 0
        with memory.lock:
            assert memory.accountant.used_bytes == 0
            assert len(memory.policy) == 0


class TestTokens:
    def test_token_memoized_per_identity(self, cache):
        calls = {"n": 0}
        array = np.arange(16.0)

        def provider():
            calls["n"] += 1
            return [array]

        first = cache.token(("solid", "coords", "b0"), provider)
        second = cache.token(("solid", "coords", "b0"), provider)
        assert first == second == content_token(array)
        assert calls["n"] == 1

    def test_equal_content_shares_token(self, cache):
        a = np.arange(16.0)
        tok0 = cache.token(("id", 0), lambda: [a])
        tok1 = cache.token(("id", 1), lambda: [a.copy()])
        assert tok0 == tok1

    def test_content_token_frames_each_array(self):
        a, b = np.arange(3.0), np.arange(3.0, 5.0)
        assert content_token(a, b) == content_token(a.copy(), b.copy())
        assert content_token(a, b) != content_token(b, a)
        # The same bytes split differently are different content.
        assert content_token(np.concatenate([a, b])) != content_token(a, b)
        whole = np.arange(4.0)
        assert content_token(whole[:1], whole[1:]) != \
            content_token(whole[:2], whole[2:])
        # Every part's dtype and shape count, not just the bytes.
        assert content_token(a, b) != content_token(a.view(np.int64), b)
        assert content_token(a, b) != content_token(a.reshape(3, 1), b)
        assert content_token() != content_token(np.empty(0))


def _bulk_schema():
    return RecordSchema("bulk", (
        SchemaField("k", DataType.STRING, 8, is_key=True),
        SchemaField("v", DataType.DOUBLE, 64 * 1024),
    ))


def _bulk_read_fn(n_records=4):
    schema = _bulk_schema()

    def read_fn(gbo, name):
        schema.ensure(gbo)
        for i in range(n_records):
            record = gbo.new_record("bulk")
            record.field("k").write(f"{name[-6:]}{i:02d}".encode())
            gbo.commit_record(record)

    return read_fn


class TestInsideGbo:
    def test_gbo_exposes_cache(self):
        with GBO(mem_mb=4, background_io=False) as gbo:
            assert isinstance(gbo.derived, DerivedCache)
            value = gbo.derived.put(("k",), np.arange(10.0))
            assert gbo.derived.get(("k",)) is value
            assert gbo.stats.derived_bytes == 80

    def test_gbo_cache_disabled(self):
        with GBO(mem_mb=4, background_io=False,
                 derived_cache=False) as gbo:
            assert gbo.derived is None

    def test_demand_load_reclaims_cache(self):
        """Units and cache entries compete under one budget: with the
        cache holding most of it, demand loads still complete by
        evicting derived entries, never by deadlocking."""
        with GBO(mem_mb=1, background_io=False) as gbo:
            chunk = 200 * 1024
            for i in range(4):
                gbo.derived.put(
                    ("blob", i), np.zeros(chunk, dtype=np.uint8)
                )
            before = gbo.stats.derived_evictions
            gbo.add_unit("unit01", _bulk_read_fn())
            gbo.wait_unit("unit01")
            assert gbo.stats.derived_evictions > before
            assert gbo.stats.units_read_foreground == 1
            check_invariants(gbo)
            gbo.delete_unit("unit01")

    def test_invariants_with_cache_entries(self):
        with GBO(mem_mb=4, background_io=False) as gbo:
            for i in range(3):
                gbo.derived.put(("k", i), np.arange(100.0))
            check_invariants(gbo)
            gbo.derived.invalidate(("k", 1))
            check_invariants(gbo)

    def test_close_clears_cache(self):
        gbo = GBO(mem_mb=4, background_io=False)
        gbo.derived.put(("k",), np.arange(10.0))
        gbo.close()
        assert len(gbo.derived) == 0

    def test_trace_events(self):
        seen = []
        with GBO(mem_mb=4, background_io=False,
                 unit_event_hook=lambda *event: seen.append(event)) as gbo:
            gbo.derived.put(("k",), np.arange(10.0))
            gbo.derived.get(("k",))
            gbo.derived.invalidate(("k",))
        name = DerivedCache.policy_name(("k",))
        events = [event for event, unit, _t in seen if unit == name]
        assert events[:3] == ["derived_cached", "derived_hit",
                              "derived_evicted"]
