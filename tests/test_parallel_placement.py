"""Rendezvous placement: determinism, spread, minimal movement."""

import pytest

from repro.io.readers import snapshot_unit_name
from repro.parallel.placement import (
    PlacementMap,
    rendezvous_score,
    rendezvous_shard,
)

UNITS = [snapshot_unit_name(step) for step in range(200)]


def shard_ids(n):
    return [f"shard{i}" for i in range(n)]


class TestRendezvous:
    def test_deterministic(self):
        shards = shard_ids(4)
        first = [rendezvous_shard(u, shards) for u in UNITS]
        second = [rendezvous_shard(u, shards) for u in UNITS]
        assert first == second

    def test_order_independent(self):
        shards = shard_ids(4)
        reordered = list(reversed(shards))
        assert all(
            rendezvous_shard(u, shards) == rendezvous_shard(u, reordered)
            for u in UNITS
        )

    def test_scores_differ_per_shard(self):
        scores = {
            shard: rendezvous_score("snap:0001", shard)
            for shard in shard_ids(8)
        }
        assert len(set(scores.values())) == len(scores)

    def test_every_shard_gets_work_at_scale(self):
        placement = PlacementMap(shard_ids(8))
        groups = placement.partition(UNITS)
        assert set(groups) == set(shard_ids(8))
        counts = [len(groups[s]) for s in shard_ids(8)]
        assert all(c > 0 for c in counts)
        # Hash spread: nobody hoards (loose bound, deterministic).
        assert max(counts) < 3 * (len(UNITS) // 8)

    def test_partition_is_exact_cover(self):
        placement = PlacementMap(shard_ids(5))
        groups = placement.partition(UNITS)
        flat = sorted(u for group in groups.values() for u in group)
        assert flat == sorted(UNITS)

    def test_steps_follow_the_unit_partition(self):
        placement = PlacementMap(shard_ids(5))
        steps = placement.steps(len(UNITS))
        groups = placement.partition(UNITS)
        assert list(steps) == shard_ids(5)
        for shard, names in groups.items():
            assert steps[shard] == sorted(UNITS.index(n) for n in names)


class TestRebalance:
    def test_growth_moves_about_one_over_n(self):
        placement = PlacementMap(shard_ids(4))
        placement.partition(UNITS)
        moved = placement.rebalance(shard_ids(5), UNITS)
        # Adding a fifth shard should move ~1/5 of the units; allow a
        # wide deterministic band around the expectation.
        assert 0 < len(moved) < len(UNITS) // 2
        assert len(moved) <= 2 * (len(UNITS) // 5)

    def test_moved_units_land_on_the_new_shard_only(self):
        placement = PlacementMap(shard_ids(4))
        before = {u: placement.shard_of(u) for u in UNITS}
        moved = placement.rebalance(shard_ids(5), UNITS)
        for unit in UNITS:
            after = placement.shard_of(unit)
            if unit in moved:
                assert after == "shard4"
            else:
                assert after == before[unit]

    def test_validation(self):
        placement = PlacementMap(shard_ids(2))
        with pytest.raises(ValueError):
            placement.rebalance([], UNITS)
        with pytest.raises(ValueError):
            placement.rebalance(["a", "a"], UNITS)
        with pytest.raises(ValueError):
            PlacementMap([])
