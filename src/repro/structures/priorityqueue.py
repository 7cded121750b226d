"""A priority queue with FIFO tie-breaking, membership, and removal.

The worker-pool prefetch list generalizes the paper's FIFO (section 3.3):
``add_unit`` may attach a *priority*, pending entries pop highest-priority
first with FIFO order among equals, ``wait_unit`` boosts the waited-on
entry to the very front, and queued entries can be cancelled before a
worker picks them up.

Implementation: a binary heap of entries with lazy invalidation — removing
or re-prioritizing an item marks its heap entry dead and (for
re-prioritization) pushes a fresh one, so all operations are amortized
O(log n) with O(1) membership tests.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, Iterator, List


class _Entry:
    __slots__ = ("key", "item", "dead")

    def __init__(self, key, item):
        self.key = key
        self.item = item
        self.dead = False

    def __lt__(self, other: "_Entry") -> bool:
        return self.key < other.key


class PriorityQueue:
    """Max-priority queue of unique hashable items.

    Higher ``priority`` pops first; among equal priorities the earliest
    ``push`` wins (FIFO). ``to_front`` places an item ahead of everything
    currently queued — repeated boosts stack, with the latest boost
    winning, which is the semantics ``wait_unit`` needs: the unit being
    waited on *right now* goes first.
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._entries: Dict[Any, _Entry] = {}
        #: Arrival stamps: preserved across re-prioritization so ties
        #: keep FIFO order.
        self._arrival: Dict[Any, int] = {}
        self._pushes = itertools.count()
        #: Decreasing stamps for to_front boosts — later boost, smaller
        #: stamp, earlier pop.
        self._boosts = itertools.count(-1, -1)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, item: Any) -> bool:
        return item in self._entries

    def __iter__(self) -> Iterator[Any]:
        """Yield live items in pop order (non-destructive)."""
        for entry in sorted(e for e in self._heap if not e.dead):
            yield entry.item

    def push(self, item: Any, priority: float = 0.0) -> None:
        """Enqueue ``item``; re-pushing a queued item is an error."""
        if item in self._entries:
            raise ValueError(f"item already queued: {item!r}")
        arrival = next(self._pushes)
        self._arrival[item] = arrival
        self._place(item, (-priority, arrival))

    def _place(self, item: Any, key) -> None:
        entry = _Entry(key, item)
        self._entries[item] = entry
        heapq.heappush(self._heap, entry)

    def pop(self) -> Any:
        """Remove and return the highest-priority (then oldest) item."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.dead:
                continue
            del self._entries[entry.item]
            del self._arrival[entry.item]
            return entry.item
        raise IndexError("pop from empty PriorityQueue")

    def remove(self, item: Any) -> bool:
        """Cancel a queued item; returns whether it was queued."""
        if item not in self._entries:
            return False
        self._entries.pop(item).dead = True
        del self._arrival[item]
        # Opportunistically drain dead entries at the front.
        while self._heap and self._heap[0].dead:
            heapq.heappop(self._heap)
        return True

    def reprioritize(self, item: Any, priority: float) -> bool:
        """Change a queued item's priority, keeping its arrival order
        among the new priority's ties. Returns whether it was queued."""
        if item not in self._entries:
            return False
        arrival = self._arrival[item]
        self._entries.pop(item).dead = True
        self._place(item, (-priority, arrival))
        return True

    def to_front(self, item: Any) -> bool:
        """Boost a queued item ahead of everything currently queued
        (later boosts pop before earlier ones). Returns whether it was
        queued."""
        if item not in self._entries:
            return False
        self._entries.pop(item).dead = True
        self._place(item, (float("-inf"), next(self._boosts)))
        return True

    def clear(self) -> None:
        """Drop every queued item."""
        self._heap.clear()
        self._entries.clear()
        self._arrival.clear()
