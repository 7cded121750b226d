"""Foundational data structures used by the GODIVA core.

The paper's implementation (section 3.3) keeps the prefetch queue as a
FIFO and evicts with LRU. The worker-pool build generalizes the prefetch
list to a priority queue with FIFO tie-breaking. This package provides
from-scratch Python implementations of all three so the library has no
dependency beyond the standard library and numpy. (The section's STL
``map`` record index is a ``dict`` per type in :mod:`repro.core.index`.)
"""

from repro.structures.fifoqueue import FifoQueue
from repro.structures.lru import LruList
from repro.structures.priorityqueue import PriorityQueue

__all__ = ["FifoQueue", "LruList", "PriorityQueue"]
