"""Foundational data structures used by the GODIVA core.

The paper's implementation (section 3.3) keeps the prefetch queue as a
FIFO and evicts with LRU. The worker-pool build generalizes the prefetch
list to a priority queue with FIFO tie-breaking, the one structure the
standard library does not give and this package builds. The eviction
order is a ``collections.OrderedDict`` in :mod:`repro.core.cache`, and
the section's STL ``map`` record index is a ``dict`` per type in
:mod:`repro.core.index`.
"""

from repro.structures.priorityqueue import PriorityQueue

__all__ = ["PriorityQueue"]
