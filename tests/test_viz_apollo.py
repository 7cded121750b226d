"""Interactive sessions: caching behaviour and access traces."""

import pytest

from repro.errors import ReadFunctionError
from repro.gen import SnapshotSpec, TitanConfig, generate_dataset
from repro.viz.apollo import ApolloSession, interactive_trace


class TestInteractiveTrace:
    def test_scan_is_sequential(self):
        assert interactive_trace(4, 6, "scan") == [0, 1, 2, 3, 0, 1]

    def test_backforth_revisits_previous(self):
        trace = interactive_trace(10, 12, "backforth")
        assert len(trace) == 12
        revisits = sum(
            1 for i in range(2, len(trace))
            if trace[i] == trace[i - 2]
        )
        assert revisits > 0

    def test_browse_deterministic_per_seed(self):
        a = interactive_trace(8, 20, "browse", seed=5)
        b = interactive_trace(8, 20, "browse", seed=5)
        assert a == b
        c = interactive_trace(8, 20, "browse", seed=6)
        assert a != c

    def test_all_indices_in_range(self):
        for pattern in ("scan", "backforth", "browse"):
            for step in interactive_trace(5, 50, pattern):
                assert 0 <= step < 5

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            interactive_trace(5, 5, "random-walk-9000")

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            interactive_trace(0, 5)


class TestApolloSession:
    def test_view_and_revisit_hits(self, small_dataset):
        with ApolloSession(
            small_dataset.directory, mem_mb=64.0, render=False
        ) as session:
            session.view(0)
            session.view(1)
            session.view(0)   # revisit: cache hit
            stats = session.stats
            assert stats.views == 3
            assert stats.cache_hits == 1
            assert stats.cache_misses == 2

    def test_revisit_reads_no_bytes(self, small_dataset):
        with ApolloSession(
            small_dataset.directory, mem_mb=64.0, render=False
        ) as session:
            session.view(0)
            bytes_after_first = session.stats.bytes_read
            session.view(0)
            assert session.stats.bytes_read == bytes_after_first

    def test_render_returns_image(self, small_dataset):
        with ApolloSession(
            small_dataset.directory, mem_mb=64.0, render=True
        ) as session:
            image = session.view(0)
            assert image is not None
            assert image.ndim == 3

    def test_out_of_range_view(self, small_dataset):
        with ApolloSession(
            small_dataset.directory, mem_mb=64.0, render=False
        ) as session:
            with pytest.raises(ValueError):
                session.view(99)

    def test_tight_memory_evicts_and_reloads(self, small_dataset):
        """With room for ~2 units, a 4-step scan evicts and revisits
        miss — the scan pattern the paper says caching cannot help."""
        with ApolloSession(
            small_dataset.directory, mem_mb=0.12, render=False
        ) as session:
            for step in (0, 1, 2, 3, 0):
                session.view(step)
            assert session.gbo.stats.evictions > 0
            assert session.stats.cache_misses == 5

    def test_lru_keeps_backforth_working_set(self, small_dataset):
        with ApolloSession(
            small_dataset.directory, mem_mb=0.3,
            eviction_policy="lru", render=False,
        ) as session:
            for step in (0, 1, 0, 1, 0, 1):
                session.view(step)
            # Two units fit: after the first two loads, all hits.
            assert session.stats.cache_hits == 4


@pytest.fixture(scope="module")
def backforth_dataset(tmp_path_factory):
    """The benchmarks' mid-size shape: scale 0.25, 8 steps, 4 files."""
    return generate_dataset(
        SnapshotSpec(config=TitanConfig.scaled(0.25), n_steps=8,
                     files_per_snapshot=4),
        str(tmp_path_factory.mktemp("backforth")))


def _backforth_views(directory, mem_mb, predictive):
    """20 ``backforth`` views of the medium test without rendering."""
    with ApolloSession(directory, test="medium", mem_mb=mem_mb,
                       render=False, predictive=predictive) as session:
        for step in interactive_trace(8, 20, "backforth"):
            session.view(step)
        return session.stats.cache_hits + session.stats.cache_misses


class TestPredictiveBudgetEdge:
    """ROADMAP 5 (a): predictive prefetch at a budget just above the
    working set. The failing case is pinned as a strict xfail, so the
    change that mends it flips this one marker; the cases beside it
    show where the same trace runs clean."""

    @pytest.mark.xfail(strict=True, raises=ReadFunctionError,
                       reason="ROADMAP 5 (a): MemoryBudgetError ('no "
                              "finished unit is evictable') in the read "
                              "of snap:0002 at view 8")
    def test_predictive_at_1_0_mb(self, backforth_dataset):
        _backforth_views(backforth_dataset.directory, 1.0, True)

    def test_predictive_at_1_5_mb(self, backforth_dataset):
        assert _backforth_views(backforth_dataset.directory, 1.5,
                                True) == 20

    def test_not_predictive_at_1_0_mb(self, backforth_dataset):
        assert _backforth_views(backforth_dataset.directory, 1.0,
                                False) == 20
