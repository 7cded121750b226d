"""The prefetch priority queue: ordering, boosts, removal, invariants."""

import pytest

from repro.structures import PriorityQueue


def drain(q):
    out = []
    while q:
        out.append(q.pop())
    return out


def test_fifo_among_equal_priorities():
    q = PriorityQueue()
    for name in ("a", "b", "c", "d"):
        q.push(name)
    assert drain(q) == ["a", "b", "c", "d"]


def test_higher_priority_pops_first():
    q = PriorityQueue()
    q.push("low", priority=0.0)
    q.push("high", priority=5.0)
    q.push("mid", priority=1.0)
    q.push("high2", priority=5.0)
    assert drain(q) == ["high", "high2", "mid", "low"]


def test_negative_priorities_sort_below_default():
    q = PriorityQueue()
    q.push("later", priority=-1.0)
    q.push("normal")
    assert drain(q) == ["normal", "later"]


def test_push_duplicate_raises():
    q = PriorityQueue()
    q.push("a")
    with pytest.raises(ValueError, match="already queued"):
        q.push("a")


def test_pop_empty_raises():
    q = PriorityQueue()
    with pytest.raises(IndexError):
        q.pop()
    q.push("a")
    q.pop()
    with pytest.raises(IndexError):
        q.pop()


def test_membership_and_len():
    q = PriorityQueue()
    q.push("a")
    q.push("b")
    assert "a" in q and "b" in q and "c" not in q
    assert len(q) == 2
    q.pop()
    assert len(q) == 1


def test_remove():
    q = PriorityQueue()
    q.push("a")
    q.push("b")
    q.push("c")
    assert q.remove("b") is True
    assert q.remove("b") is False
    assert q.remove("zzz") is False
    assert drain(q) == ["a", "c"]


def test_remove_front_then_pop():
    q = PriorityQueue()
    q.push("a")
    q.push("b")
    assert q.remove("a") is True
    assert q.pop() == "b"
    assert len(q) == 0


def test_to_front_overrides_priority():
    q = PriorityQueue()
    q.push("a", priority=9.0)
    q.push("b", priority=0.0)
    assert q.to_front("b") is True
    assert drain(q) == ["b", "a"]


def test_latest_boost_wins():
    q = PriorityQueue()
    for name in ("a", "b", "c"):
        q.push(name)
    q.to_front("b")
    q.to_front("c")
    assert drain(q) == ["c", "b", "a"]


def test_to_front_unknown_item():
    q = PriorityQueue()
    assert q.to_front("ghost") is False


def test_reprioritize_reorders():
    q = PriorityQueue()
    q.push("a")
    q.push("b")
    assert q.reprioritize("b", 10.0) is True
    assert q.reprioritize("nope", 1.0) is False
    assert drain(q) == ["b", "a"]


def test_reprioritize_preserves_fifo_arrival():
    q = PriorityQueue()
    q.push("a")
    q.push("b")
    q.push("c")
    # Lower then restore: arrival stamp keeps 'b' between 'a' and 'c'
    # when the priorities are equal again.
    q.reprioritize("b", -1.0)
    q.reprioritize("b", 0.0)
    assert drain(q) == ["a", "b", "c"]


def test_iter_yields_pop_order_nondestructively():
    q = PriorityQueue()
    q.push("a")
    q.push("b", priority=2.0)
    q.push("c")
    q.to_front("c")
    assert list(q) == ["c", "b", "a"]
    assert len(q) == 3


def test_clear_empties_the_queue():
    q = PriorityQueue()
    q.push("a", priority=1.5)
    q.push("b", priority=-2.0)
    q.to_front("b")
    q.clear()
    assert len(q) == 0
    assert not q
    assert list(q) == []
    q.push("a")
    assert drain(q) == ["a"]


def test_interleaved_operations_stay_consistent():
    q = PriorityQueue()
    for step in range(50):
        q.push(step, priority=float(step % 5))
    for step in range(0, 50, 3):
        q.remove(step)
    q.to_front(49)
    order = drain(q)
    assert order[0] == 49
    live = [s for s in range(50) if s % 3 != 0 and s != 49]
    # Remaining items pop by descending priority, FIFO within ties.
    expected = sorted(live, key=lambda s: (-(s % 5), s))
    assert order[1:] == expected
