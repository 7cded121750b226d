"""Global lock-order graph and potential-deadlock (cycle) detection.

Every time a thread acquires a tracked lock *B* while already holding a
tracked lock *A*, the primitives record a directed edge ``A -> B`` here,
together with an exemplar: the thread that did it and the acquisition
stacks of both locks. A cycle in this graph means two code paths take
the same locks in opposite orders — the classic lost-update-free but
deadlock-prone pattern — even if the runs observed so far never actually
interleaved fatally. This is the static half of the sanitizer: it turns
"the stress test happened not to hang" into "no conflicting order was
ever executed".

Typical use (the pytest fixture does this automatically)::

    from repro.analysis import lockorder, primitives

    primitives.enable()
    ...  # run the workload with TrackedLock-built objects
    lockorder.GLOBAL_GRAPH.check()   # raises LockOrderViolation on cycles
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import LockOrderViolation


class LockOrderEdge:
    """First-observed exemplar of ``first -> second`` nesting."""

    __slots__ = ("first", "second", "first_stack", "second_stack",
                 "thread_name", "count")

    def __init__(self, first: str, second: str, first_stack: str,
                 second_stack: str, thread_name: str):
        self.first = first
        self.second = second
        self.first_stack = first_stack
        self.second_stack = second_stack
        self.thread_name = thread_name
        self.count = 1

    def describe(self) -> str:
        return (
            f"{self.first} -> {self.second} "
            f"(thread {self.thread_name!r}, seen {self.count}x)\n"
            f"  held {self.first!r} acquired at:\n"
            f"{_indent(self.first_stack)}"
            f"  then acquired {self.second!r} at:\n"
            f"{_indent(self.second_stack)}"
        )


def _indent(stack: str, prefix: str = "    | ") -> str:
    return "".join(
        prefix + line + "\n" for line in stack.rstrip().splitlines()
    )


class LockOrderGraph:
    """Directed graph of observed lock-nesting orders."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: Dict[Tuple[str, str], LockOrderEdge] = {}

    def record(self, first: str, second: str, *, first_stack: str,
               second_stack: str, thread_name: str) -> None:
        """Note that ``second`` was acquired while ``first`` was held."""
        key = (first, second)
        with self._lock:
            edge = self._edges.get(key)
            if edge is None:
                self._edges[key] = LockOrderEdge(
                    first, second, first_stack, second_stack, thread_name
                )
            else:
                edge.count += 1

    def edges(self) -> List[LockOrderEdge]:
        with self._lock:
            return list(self._edges.values())

    def reset(self) -> None:
        with self._lock:
            self._edges.clear()

    def after_fork_in_child(self) -> None:
        """Replace the lock, which a vanished thread may hold."""
        self._lock = threading.Lock()

    def find_cycles(self) -> List[List[LockOrderEdge]]:
        """All elementary cycles, each as its list of edges.

        The graphs involved are tiny (one node per distinct lock name),
        so a straightforward DFS with a visit state per node is plenty.
        """
        with self._lock:
            adjacency: Dict[str, List[LockOrderEdge]] = {}
            for edge in self._edges.values():
                adjacency.setdefault(edge.first, []).append(edge)

        cycles: List[List[LockOrderEdge]] = []
        seen_cycle_keys = set()

        def visit(node: str, path: List[LockOrderEdge],
                  on_path: Dict[str, int]) -> None:
            for edge in adjacency.get(node, ()):
                if edge.second in on_path:
                    cycle = path[on_path[edge.second]:] + [edge]
                    key = frozenset(
                        (e.first, e.second) for e in cycle
                    )
                    if key not in seen_cycle_keys:
                        seen_cycle_keys.add(key)
                        cycles.append(cycle)
                    continue
                on_path[edge.second] = len(path) + 1
                visit(edge.second, path + [edge], on_path)
                del on_path[edge.second]

        for start in list(adjacency):
            visit(start, [], {start: 0})
        return cycles

    def format_cycles(
        self, cycles: Optional[List[List[LockOrderEdge]]] = None
    ) -> str:
        """Human-readable potential-deadlock report with both stacks."""
        if cycles is None:
            cycles = self.find_cycles()
        if not cycles:
            return "lock-order graph is acyclic: no potential deadlock"
        parts = [
            f"POTENTIAL DEADLOCK: {len(cycles)} lock-order cycle(s)"
        ]
        for index, cycle in enumerate(cycles, 1):
            order = " -> ".join(
                [cycle[0].first] + [edge.second for edge in cycle]
            )
            parts.append(f"\ncycle {index}: {order}")
            for edge in cycle:
                parts.append(edge.describe())
        return "\n".join(parts)

    def check(self) -> None:
        """Raise :class:`LockOrderViolation` if any cycle exists."""
        cycles = self.find_cycles()
        if cycles:
            raise LockOrderViolation(self.format_cycles(cycles))


#: Process-wide graph that every tracked lock reports into.
GLOBAL_GRAPH = LockOrderGraph()
if hasattr(os, "register_at_fork"):
    # A forked child has only the forking thread; a lock another thread
    # held at the fork would stay held there forever.
    os.register_at_fork(after_in_child=GLOBAL_GRAPH.after_fork_in_child)
