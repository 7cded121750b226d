"""Unit-to-shard placement for the sharded GBO.

Placement answers one question — *which shard host owns a processing
unit?* — and must answer it identically in every process (coordinator,
shard hosts, simulator) with no coordination. We use **rendezvous
(highest-random-weight) hashing**: every ``(unit, shard)`` pair gets a
deterministic score from a keyed blake2b digest and the unit lives on
the highest-scoring shard. Properties that make it the right tool:

* **Deterministic** — pure function of the unit name and the shard-id
  list; any process computes it locally.
* **Uniform** — scores are i.i.d. per pair, so units spread evenly
  (within binomial noise) without a token ring to maintain.
* **Rebalance-aware** — removing a shard moves *only* the units that
  lived on it (each to its runner-up shard); adding a shard steals on
  average ``1/(n+1)`` of the units and moves nothing else. A modulo
  scheme would reshuffle nearly everything.

Cost-aware balance (heterogeneous snapshot weights) composes via
:func:`weighted_assignment`, which delegates to the scheduler's LPT
``"weighted"`` strategy when explicit per-unit costs are known — used
for static batch plans, while hash placement covers the open-ended
case.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Set

from repro.parallel.scheduler import partition_snapshots


def rendezvous_score(unit_name: str, shard_id: str) -> int:
    """The deterministic 64-bit score of a ``(unit, shard)`` pair."""
    digest = hashlib.blake2b(
        unit_name.encode("utf-8"),
        key=shard_id.encode("utf-8")[:64],
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_shard(unit_name: str,
                     shard_ids: Sequence[str]) -> str:
    """The shard that owns ``unit_name`` under rendezvous hashing.

    Ties (vanishingly rare with 64-bit scores) break toward the
    lexically smallest shard id, keeping the function total and
    deterministic.
    """
    if not shard_ids:
        raise ValueError("rendezvous_shard needs at least one shard")
    return max(
        shard_ids,
        key=lambda shard: (rendezvous_score(unit_name, shard), shard),
    )


class PlacementMap:
    """Rendezvous placement over a named shard set.

    A thin, immutable-by-convention convenience over
    :func:`rendezvous_shard` with an internal memo (placement is called
    per unit per frame on the coordinator hot path).
    """

    def __init__(self, shard_ids: Sequence[str]) -> None:
        if not shard_ids:
            raise ValueError("PlacementMap needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError("duplicate shard ids")
        self.shard_ids: List[str] = list(shard_ids)
        self._memo: Dict[str, str] = {}

    def shard_of(self, unit_name: str) -> str:
        """The owning shard id for a unit name."""
        shard = self._memo.get(unit_name)
        if shard is None:
            shard = rendezvous_shard(unit_name, self.shard_ids)
            self._memo[unit_name] = shard
        return shard

    def partition(self, unit_names: Sequence[str]
                  ) -> Dict[str, List[str]]:
        """Group unit names by owning shard (every shard keyed)."""
        groups: Dict[str, List[str]] = {
            shard: [] for shard in self.shard_ids
        }
        for name in unit_names:
            groups[self.shard_of(name)].append(name)
        return groups

    def steps(self, n_steps: int) -> Dict[str, List[int]]:
        """Snapshot steps ``0 .. n_steps-1`` per shard (every shard
        keyed, steps ascending), placed by their unit names."""
        from repro.io.readers import snapshot_unit_name, unit_step

        groups = self.partition(
            [snapshot_unit_name(step) for step in range(n_steps)]
        )
        return {
            shard: sorted(unit_step(name) for name in names)
            for shard, names in groups.items()
        }

    def rebalance(self, new_shard_ids: Sequence[str],
                  unit_names: Sequence[str]) -> Set[str]:
        """Re-target this map at a new shard set; returns moved units.

        The returned set contains exactly the unit names whose owner
        changed — the data that must migrate. Rendezvous hashing keeps
        this minimal: only units of removed shards (plus an ~``1/(n+1)``
        share stolen by each added shard) move.
        """
        if not new_shard_ids:
            raise ValueError("rebalance needs at least one shard")
        if len(set(new_shard_ids)) != len(new_shard_ids):
            raise ValueError("duplicate shard ids")
        old = {name: self.shard_of(name) for name in unit_names}
        self.shard_ids = list(new_shard_ids)
        self._memo.clear()
        return {
            name for name in unit_names
            if self.shard_of(name) != old[name]
        }


def weighted_assignment(n_snapshots: int, shard_ids: Sequence[str],
                        weights: Optional[Sequence[float]] = None
                        ) -> Dict[str, List[int]]:
    """Cost-balanced static assignment of snapshot steps to shards.

    For batch plans where per-snapshot costs are known up front, LPT
    balancing (the scheduler's ``"weighted"`` strategy) beats hash
    placement; the result maps each shard id to its ascending step
    list.
    """
    parts = partition_snapshots(
        n_snapshots, len(shard_ids), strategy="weighted", weights=weights
    )
    return {shard: steps for shard, steps in zip(shard_ids, parts)}
