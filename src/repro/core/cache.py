"""Cache-replacement policies for evicting finished processing units.

The paper's implementation "uses the LRU algorithm for cache replacement"
(section 3.3). We make the policy pluggable so the A3 ablation benchmark can
compare LRU against FIFO and MRU under the interactive access patterns the
introduction describes (users "switch back and forth between snapshot images
from two different time-steps").

A policy tracks *evictable* units only — units that are finished with zero
references. The database inserts/removes units as their state changes and
asks for a victim when memory runs low.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from repro.structures.fifoqueue import FifoQueue
from repro.structures.lru import LruList


class EvictionPolicy:
    """Interface for unit-eviction policies. Subclasses track unit names."""

    #: Registry-friendly identifier (e.g. for CLI flags).
    name = "abstract"

    def add(self, unit_name: str) -> None:
        """A unit became evictable."""
        raise NotImplementedError

    def remove(self, unit_name: str) -> bool:
        """A unit stopped being evictable (re-acquired, deleted, evicted)."""
        raise NotImplementedError

    def touch(self, unit_name: str) -> None:
        """The unit's data was accessed while evictable (query hit)."""
        raise NotImplementedError

    def victim(self) -> Optional[str]:
        """Choose and remove the unit to evict next; None if empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, unit_name: str) -> bool:
        raise NotImplementedError

    def __iter__(self) -> Iterator[str]:
        raise NotImplementedError


class LruEvictionPolicy(EvictionPolicy):
    """Evict the least-recently-used finished unit (the paper's policy)."""

    name = "lru"

    def __init__(self) -> None:
        self._list = LruList()

    def add(self, unit_name: str) -> None:
        """Insert at the most-recently-used end of the recency list."""
        self._list.touch(unit_name)

    def remove(self, unit_name: str) -> bool:
        """Drop the unit from the recency list if present."""
        return self._list.discard(unit_name)

    def touch(self, unit_name: str) -> None:
        """Move an evictable unit to the most-recently-used end."""
        if unit_name in self._list:
            self._list.touch(unit_name)

    def victim(self) -> Optional[str]:
        """Pop and return the least-recently-used unit; None if empty."""
        if not self._list:
            return None
        return self._list.pop_lru()

    def __len__(self) -> int:
        return len(self._list)

    def __contains__(self, unit_name: str) -> bool:
        return unit_name in self._list

    def __iter__(self) -> Iterator[str]:
        return iter(self._list)


class MruEvictionPolicy(EvictionPolicy):
    """Evict the most-recently-used unit — optimal for pure sequential
    scans with wraparound, pathological for revisit locality. Included for
    the eviction-policy ablation."""

    name = "mru"

    def __init__(self) -> None:
        self._list = LruList()

    def add(self, unit_name: str) -> None:
        """Insert at the most-recently-used end of the recency list."""
        self._list.touch(unit_name)

    def remove(self, unit_name: str) -> bool:
        """Drop the unit from the recency list if present."""
        return self._list.discard(unit_name)

    def touch(self, unit_name: str) -> None:
        """Move an evictable unit to the most-recently-used end."""
        if unit_name in self._list:
            self._list.touch(unit_name)

    def victim(self) -> Optional[str]:
        """Pop and return the most-recently-used unit; None if empty."""
        if not self._list:
            return None
        # MRU = the tail of the recency list.
        candidates = list(self._list)
        name = candidates[-1]
        self._list.discard(name)
        return name

    def __len__(self) -> int:
        return len(self._list)

    def __contains__(self, unit_name: str) -> bool:
        return unit_name in self._list

    def __iter__(self) -> Iterator[str]:
        return iter(self._list)


class FifoEvictionPolicy(EvictionPolicy):
    """Evict units in the order they first became evictable, ignoring
    subsequent accesses."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue = FifoQueue()

    def add(self, unit_name: str) -> None:
        """Append to the back of the queue (first add wins on re-adds)."""
        if unit_name not in self._queue:
            self._queue.push(unit_name)

    def remove(self, unit_name: str) -> bool:
        """Drop the unit from the queue if present."""
        return self._queue.remove(unit_name)

    def touch(self, unit_name: str) -> None:
        # FIFO ignores recency by definition.
        pass

    def victim(self) -> Optional[str]:
        """Pop and return the oldest evictable unit; None if empty."""
        if not self._queue:
            return None
        return self._queue.pop()

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, unit_name: str) -> bool:
        return unit_name in self._queue

    def __iter__(self) -> Iterator[str]:
        return iter(self._queue)


def make_policy(policy: Union[str, EvictionPolicy]) -> EvictionPolicy:
    """The paper's ``'lru'`` policy by name; any other policy is passed
    as a ready instance, which passes through."""
    if isinstance(policy, EvictionPolicy):
        return policy
    if policy != LruEvictionPolicy.name:
        raise ValueError(
            f"unknown eviction policy {policy!r}; the one name is "
            f"'lru' — pass any other policy as an instance"
        )
    return LruEvictionPolicy()
