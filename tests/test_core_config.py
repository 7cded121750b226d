"""EngineConfig: one budget resolver and one set of engine keywords
behind every tier that hosts an engine.

Table-driven over the entry points that take a budget — ``GBO``,
``GBO.set_mem_space``, ``GodivaService``, ``create_session``,
``AsyncGodivaClient.connect``, ``ShardedGBO``, ``VoyagerConfig``,
``ApolloSession``, ``HoustonConfig`` — so a tier cannot drift from the
others again.
"""

import asyncio
import dataclasses
import pickle

import pytest

from repro import GBO, MB
from repro.api import AsyncGodivaClient, GodivaService
from repro.core.config import EngineConfig, resolve_budget
from repro.errors import MemoryBudgetError
from repro.parallel.sharded import ShardedGBO
from repro.viz.apollo import ApolloSession
from repro.viz.houston import HoustonConfig
from repro.viz.voyager import VoyagerConfig

# Each entry point is ``open(data_dir, **keywords) -> resolved bytes``:
# it spells a budget (plus any engine keywords) at one tier, reads back
# the byte count that tier resolved, and tears the tier down.


def _gbo(_dir, **kw):
    with GBO(**kw) as gbo:
        assert gbo.config.budget_bytes == gbo.mem_budget_bytes
        return gbo.mem_budget_bytes


def _set_mem_space(_dir, **kw):
    with GBO(mem=1024) as gbo:
        gbo.set_mem_space(**kw)
        return gbo.mem_budget_bytes


def _service(_dir, **kw):
    with GodivaService(**kw) as service:
        return service.mem_budget_bytes


def _create_session(_dir, **kw):
    with GodivaService(mem_mb=64) as service:
        with service.create_session("t", **kw) as session:
            return session.carveout_bytes


def _connect(_dir, **kw):
    async def go():
        with GodivaService(mem_mb=64) as service:
            client = await AsyncGodivaClient.connect(service, "t", **kw)
            async with client:
                return client.session.carveout_bytes

    return asyncio.run(go())


def _sharded(data_dir, **kw):
    # Construction alone spawns nothing; one shard's slice is the whole.
    with ShardedGBO(data_dir, 1, **kw) as fleet:
        (spec,) = fleet._specs
        return spec.config.budget_bytes


def _voyager(data_dir, **kw):
    return VoyagerConfig(data_dir, **kw).engine.budget_bytes


def _apollo(data_dir, **kw):
    with ApolloSession(data_dir, **kw) as session:
        return session.gbo.mem_budget_bytes


def _houston(data_dir, mem_mb=None, **kw):
    if mem_mb is not None:
        kw["mem_mb_per_server"] = mem_mb
    return HoustonConfig(data_dir, **kw).engine.budget_bytes


#: Tiers that accept every spelling (``mem=`` and ``mem_mb=``) ...
BOTH_SPELLINGS = {
    "GBO": _gbo,
    "GBO.set_mem_space": _set_mem_space,
    "GodivaService": _service,
    "create_session": _create_session,
    "AsyncGodivaClient.connect": _connect,
}
#: ... and tiers whose budget is ``mem_mb`` only.
MEM_MB_ONLY = {
    "ShardedGBO": _sharded,
    "VoyagerConfig": _voyager,
    "ApolloSession": _apollo,
    "HoustonConfig": _houston,
}
EVERY_TIER = {**BOTH_SPELLINGS, **MEM_MB_ONLY}
#: Tiers that build an engine, so take engine keywords.
ENGINE_TIERS = {
    name: EVERY_TIER[name]
    for name in ("GBO", "GodivaService", "ShardedGBO", "VoyagerConfig",
                 "ApolloSession", "HoustonConfig")
}


def _cases(table):
    return pytest.mark.parametrize(
        "open_tier", list(table.values()), ids=list(table))


class TestBudgetSpellings:
    @_cases(BOTH_SPELLINGS)
    @pytest.mark.parametrize("spelling", [
        {"mem": "8MB"}, {"mem": 8.0}, {"mem": 8 * MB}, {"mem_mb": 8},
    ], ids=repr)
    def test_every_spelling_is_the_same_bytes(self, open_tier, spelling,
                                              small_dataset):
        assert open_tier(small_dataset.directory, **spelling) == 8 * MB

    @_cases(MEM_MB_ONLY)
    def test_mem_mb_is_megabytes(self, open_tier, small_dataset):
        assert open_tier(small_dataset.directory, mem_mb=8) == 8 * MB
        assert open_tier(small_dataset.directory, mem_mb=0.5) == MB // 2

    @_cases(BOTH_SPELLINGS)
    def test_two_spellings_at_once_raise(self, open_tier, small_dataset):
        with pytest.raises(ValueError, match="exactly one"):
            open_tier(small_dataset.directory, mem="8MB", mem_mb=8)

    @_cases(MEM_MB_ONLY)
    def test_mem_is_not_a_spelling_here(self, open_tier, small_dataset):
        with pytest.raises(TypeError, match="mem"):
            open_tier(small_dataset.directory, mem="8MB")

    @_cases(EVERY_TIER)
    def test_negative_amount_raises(self, open_tier, small_dataset):
        with pytest.raises(ValueError, match="non-negative"):
            open_tier(small_dataset.directory, mem_mb=-1)

    @_cases(BOTH_SPELLINGS)
    def test_negative_mem_raises(self, open_tier, small_dataset):
        for mem in (-1, -1.0, "-1MB"):
            with pytest.raises(ValueError, match="non-negative"):
                open_tier(small_dataset.directory, mem=mem)

    def test_tier_defaults(self, small_dataset):
        """The default budget *amount* is each tier's own: 384 MB batch
        and fleet, 64 MB interactive and per Houston server; the engine
        and the service have none."""
        data_dir = small_dataset.directory
        assert _voyager(data_dir) == 384 * MB
        assert _sharded(data_dir) == 384 * MB
        assert _apollo(data_dir) == 64 * MB
        assert _houston(data_dir) == 64 * MB
        for open_tier in (_gbo, _service, _set_mem_space):
            with pytest.raises(ValueError, match="exactly one"):
                open_tier(data_dir)

    def test_paper_positionals_differ_in_unit(self):
        """Pinned, not changed: ``GBO(400)`` is ``mem=400`` — an int, so
        400 **bytes** — while ``set_mem_space(400)`` is the paper's
        ``setMemSpace`` and means 400 **MB**. The paper's ``new
        GBO(400)`` is ``GBO(400.0)`` / ``GBO(mem_mb=400)``."""
        with GBO(400) as gbo:
            assert gbo.mem_budget_bytes == 400
            gbo.set_mem_space(400)
            assert gbo.mem_budget_bytes == 400 * MB
        with GBO(400.0) as gbo:
            assert gbo.mem_budget_bytes == 400 * MB

    def test_zero_budget_is_the_accountants_verdict(self):
        assert resolve_budget(mem_mb=0) == 0
        with pytest.raises(MemoryBudgetError):
            GBO(mem=0)


class TestEngineKeywords:
    @_cases(ENGINE_TIERS)
    def test_unknown_keyword_is_named(self, open_tier, small_dataset):
        with pytest.raises(TypeError, match="io_wrokers"):
            open_tier(small_dataset.directory, mem_mb=8, io_wrokers=2)

    @_cases(ENGINE_TIERS)
    def test_removed_mem_bytes_keyword_is_unknown(self, open_tier,
                                                  small_dataset):
        with pytest.raises(TypeError, match="mem_bytes"):
            open_tier(small_dataset.directory, mem_mb=8,
                      mem_bytes=8 * MB)

    @_cases(ENGINE_TIERS)
    @pytest.mark.parametrize("bad, message", [
        ({"io_workers": 0}, "io_workers must be at least 1"),
        ({"compute_workers": 0}, "compute_workers must be at least 1"),
        ({"compute_backend": "fibers"},
         "compute_backend must be 'thread' or 'process'"),
        ({"eviction_policy": "random"}, "unknown eviction policy"),
    ], ids=lambda v: next(iter(v)) if isinstance(v, dict) else "")
    def test_one_rule_at_every_tier(self, open_tier, bad, message,
                                    small_dataset):
        with pytest.raises(ValueError, match=message):
            open_tier(small_dataset.directory, mem_mb=8, **bad)

    def test_tier_owned_fields_cannot_be_overridden(self, small_dataset):
        """A tier that fixes a field passes it explicitly, so a caller's
        copy is Python's own duplicate-keyword TypeError."""
        data_dir = small_dataset.directory
        for open_tier, field in ((_service, "background_io"),
                                 (_apollo, "background_io"),
                                 (_houston, "background_io"),
                                 (_sharded, "compute_max_threads")):
            with pytest.raises(TypeError, match=field):
                open_tier(data_dir, mem_mb=8, **{field: 1})

    def test_keywords_reach_the_engine(self):
        with GBO(mem_mb=8, io_workers=3, derived_cache=False,
                 compute_workers=2) as gbo:
            assert gbo.io_workers == 3
            assert gbo.derived is None
            assert gbo.compute_workers == 2
        with GodivaService(mem_mb=8, io_workers=2,
                           compute_max_threads=0) as service:
            assert service.io_workers == 2
            assert service._gbo.config.compute_max_threads == 0

    def test_config_hand_off(self):
        config = EngineConfig(8 * MB, io_workers=2)
        with GBO(config=config) as gbo:
            assert gbo.config is config
            assert gbo.io_workers == 2
        for extra in ({"mem_mb": 8}, {"mem": "8MB"}, {"io_workers": 2}):
            with pytest.raises(TypeError, match="config="):
                GBO(config=config, **extra)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig(8 * MB)
        assert dataclasses.asdict(config) == {
            "budget_bytes": 8 * MB, "background_io": True,
            "io_workers": 1, "eviction_policy": "lru",
            "derived_cache": True, "compute_workers": 1,
            "compute_backend": "thread", "compute_max_threads": None,
        }

    def test_pickle_round_trip(self):
        config = EngineConfig(
            resolve_budget("8MB"), io_workers=2, compute_workers=2,
            compute_backend="process", compute_max_threads=1,
        )
        assert pickle.loads(pickle.dumps(config)) == config

    def test_frozen_and_replace_revalidates(self):
        config = EngineConfig(8 * MB)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.io_workers = 2
        assert dataclasses.replace(config, io_workers=2).io_workers == 2
        with pytest.raises(ValueError, match="io_workers"):
            dataclasses.replace(config, io_workers=0)

    def test_pool_factory(self):
        from repro.core.compute import ComputePool
        from repro.core.compute_proc import ProcessComputePool

        for keywords, kind, parallel in (
            ({}, ComputePool, False),
            ({"compute_workers": 2}, ComputePool, True),
            # One worker is inline-serial under either backend.
            ({"compute_backend": "process"}, ComputePool, False),
            ({"compute_workers": 2, "compute_backend": "process"},
             ProcessComputePool, True),
        ):
            config = EngineConfig(8 * MB, **keywords)
            pool = config.make_compute_pool("test-compute")
            try:
                assert type(pool) is kind
                assert pool.parallel is parallel
                assert config.process_compute is (
                    kind is ProcessComputePool)
            finally:
                pool.close()
