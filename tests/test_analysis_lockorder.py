"""Lock-order graph: potential-deadlock (cycle) detection.

The graph records every observed "acquired B while holding A" nesting;
a cycle means two code paths take the same locks in opposite orders —
a deadlock that is real even if the observed runs never interleaved
fatally. Exercised both directly (synthetic edges) and end-to-end
through tracked locks in two threads.
"""

import threading

import pytest

from repro.analysis import primitives
from repro.analysis.lockorder import GLOBAL_GRAPH, LockOrderGraph
from repro.errors import LockOrderViolation


def record(graph, first, second, thread="T"):
    graph.record(
        first, second,
        first_stack=f"  at acquire({first})\n",
        second_stack=f"  at acquire({second})\n",
        thread_name=thread,
    )


class TestGraphMechanics:
    def test_consistent_order_is_acyclic(self):
        graph = LockOrderGraph()
        record(graph, "A", "B")
        record(graph, "A", "B")
        record(graph, "B", "C")
        assert graph.find_cycles() == []
        assert "acyclic" in graph.format_cycles()
        graph.check()  # must not raise

    def test_repeated_edge_counts_one_exemplar(self):
        graph = LockOrderGraph()
        record(graph, "A", "B")
        record(graph, "A", "B")
        edges = graph.edges()
        assert len(edges) == 1
        assert edges[0].count == 2
        assert "seen 2x" in edges[0].describe()

    def test_abba_cycle_detected_with_both_stacks(self):
        graph = LockOrderGraph()
        record(graph, "A", "B", thread="t-forward")
        record(graph, "B", "A", thread="t-backward")
        cycles = graph.find_cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 2
        report = graph.format_cycles(cycles)
        assert "POTENTIAL DEADLOCK" in report
        assert "acquire(A)" in report and "acquire(B)" in report
        assert "t-forward" in report and "t-backward" in report
        with pytest.raises(LockOrderViolation, match="POTENTIAL DEADLOCK"):
            graph.check()

    def test_cycle_not_reported_twice_from_different_starts(self):
        graph = LockOrderGraph()
        record(graph, "A", "B")
        record(graph, "B", "A")
        # The DFS visits from every node; the A->B->A cycle must be
        # deduplicated, not reported once per starting point.
        assert len(graph.find_cycles()) == 1

    def test_three_lock_cycle(self):
        graph = LockOrderGraph()
        record(graph, "A", "B")
        record(graph, "B", "C")
        record(graph, "C", "A")
        cycles = graph.find_cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 3
        assert "A -> B -> C -> A" in graph.format_cycles(cycles)

    def test_reset_clears_edges(self):
        graph = LockOrderGraph()
        record(graph, "A", "B")
        record(graph, "B", "A")
        graph.reset()
        assert graph.edges() == []
        graph.check()  # must not raise


class TestTrackedLockIntegration:
    """End-to-end: TrackedLock feeds GLOBAL_GRAPH automatically."""

    @pytest.fixture
    def analysis_on(self):
        was_enabled = primitives.analysis_enabled()
        primitives.enable()
        GLOBAL_GRAPH.reset()
        try:
            yield
        finally:
            if not was_enabled:
                primitives.disable()
            GLOBAL_GRAPH.reset()

    def test_nested_acquire_records_edge(self, analysis_on):
        first = primitives.TrackedLock("io.first")
        second = primitives.TrackedLock("io.second")
        with first:
            with second:
                pass
        edges = {(e.first, e.second) for e in GLOBAL_GRAPH.edges()}
        assert ("io.first", "io.second") in edges
        GLOBAL_GRAPH.check()  # one order only: acyclic

    def test_opposite_orders_in_two_threads_flagged(self, analysis_on):
        lock_a = primitives.TrackedLock("order.a")
        lock_b = primitives.TrackedLock("order.b")

        def forward():
            with lock_a:
                with lock_b:
                    pass

        def backward():
            with lock_b:
                with lock_a:
                    pass

        # Run sequentially: the sanitizer's whole point is that the
        # conflicting order is caught without the fatal interleaving.
        for target in (forward, backward):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join()

        with pytest.raises(LockOrderViolation) as excinfo:
            GLOBAL_GRAPH.check()
        message = str(excinfo.value)
        assert "POTENTIAL DEADLOCK" in message
        assert "order.a" in message and "order.b" in message
        assert "then acquired" in message  # both stacks shown


def report_sanitizer_state(conn):
    from repro.analysis.races import TRACKER

    conn.send((GLOBAL_GRAPH.edges(), TRACKER.reports()))


def test_a_forked_child_does_not_inherit_a_held_sanitizer_lock():
    """A thread inside the lock-order graph or the lockset tracker at
    the moment a supervised child forks must not leave that lock held
    in the child, whose first sanitizer call would then hang."""
    from repro.analysis.races import TRACKER
    from repro.core.child import Child, ready

    held, release = threading.Event(), threading.Event()

    def hold_both():
        with GLOBAL_GRAPH._lock, TRACKER._lock:
            held.set()
            release.wait()

    holder = threading.Thread(target=hold_both)
    holder.start()
    held.wait()
    child = None
    try:
        child = Child(report_sanitizer_state, name="sanitizer-fork",
                      start_method="fork")
        assert ready([child], 10.0) == [child]
        edges, reports = child.recv()
        assert isinstance(edges, list) and isinstance(reports, list)
    finally:
        release.set()
        holder.join(10.0)
        if child is not None:
            child.close()
    assert not holder.is_alive()
