"""Which worker gets which snapshot — one policy per fleet shape.

**Independent workers** (the launcher, the cluster simulator, and
Houston's split of the data blocks) take :func:`partition_snapshots`'
contiguous *block* ranges: each process owns its own GBO and a
disjoint stretch of the time series, the paper's parallel Voyager
(section 3.3).

**The sharded fleet** (:class:`~repro.parallel.sharded.ShardedGBO`,
the shard simulator) places each unit by **rendezvous
(highest-random-weight) hashing**, which must answer identically in
every process (coordinator, shard hosts, simulator) with no
coordination: every ``(unit, shard)`` pair gets a deterministic score
from a keyed blake2b digest and the unit lives on the highest-scoring
shard. Properties that make it the right tool:

* **Deterministic** — pure function of the unit name and the shard-id
  list; any process computes it locally.
* **Uniform** — scores are i.i.d. per pair, so units spread evenly
  (within binomial noise) without a token ring to maintain.
* **Rebalance-aware** — removing a shard moves *only* the units that
  lived on it (each to its runner-up shard); adding a shard steals on
  average ``1/(n+1)`` of the units and moves nothing else. A modulo
  scheme would reshuffle nearly everything.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Set


def partition_snapshots(n_snapshots: int,
                        n_workers: int) -> List[List[int]]:
    """Contiguous near-equal snapshot ranges, one per worker.

    Every snapshot is assigned exactly once; earlier workers take the
    remainder, and workers receive empty lists when there are more
    workers than snapshots.
    """
    if n_snapshots < 0:
        raise ValueError("negative snapshot count")
    if n_workers < 1:
        raise ValueError("need at least one worker")
    base, extra = divmod(n_snapshots, n_workers)
    assignment: List[List[int]] = []
    start = 0
    for worker in range(n_workers):
        count = base + (1 if worker < extra else 0)
        assignment.append(list(range(start, start + count)))
        start += count
    return assignment


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
