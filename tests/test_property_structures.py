"""Property-based tests (hypothesis) for the foundational structures.

Each structure is driven with random operation sequences against a plain
Python model; the red-black tree (the record index's oracle,
``tests/reference_rbtree.py``) additionally re-verifies its five
invariants after every mutation.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from reference_rbtree import RedBlackTree

from repro.structures.fifoqueue import FifoQueue
from repro.structures.lru import LruList

keys = st.integers(min_value=-50, max_value=50)
values = st.integers()


@given(st.lists(st.tuples(keys, values)))
def test_rbtree_matches_dict_on_inserts(pairs):
    tree = RedBlackTree()
    model = {}
    for key, value in pairs:
        tree.insert(key, value)
        model[key] = value
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())
    tree.check_invariants()


@given(
    st.lists(st.tuples(keys, values)),
    st.lists(keys),
)
def test_rbtree_matches_dict_with_deletes(pairs, deletions):
    tree = RedBlackTree()
    model = {}
    for key, value in pairs:
        tree.insert(key, value)
        model[key] = value
    for key in deletions:
        assert tree.delete(key) == (key in model)
        model.pop(key, None)
        tree.check_invariants()
    assert list(tree.items()) == sorted(model.items())


@given(st.lists(st.tuples(keys, values), min_size=1),
       keys, keys)
def test_rbtree_range_matches_model(pairs, low, high):
    if low > high:
        low, high = high, low
    tree = RedBlackTree()
    model = {}
    for key, value in pairs:
        tree.insert(key, value)
        model[key] = value
    expected = sorted(
        (k, v) for k, v in model.items() if low <= k <= high
    )
    assert list(tree.range(low, high)) == expected


class RbTreeMachine(RuleBasedStateMachine):
    """Stateful interleaving of inserts/deletes/pops with invariants."""

    def __init__(self):
        super().__init__()
        self.tree = RedBlackTree()
        self.model = {}

    @rule(key=keys, value=values)
    def insert(self, key, value):
        created = self.tree.insert(key, value)
        assert created == (key not in self.model)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        assert self.tree.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule()
    def pop_minimum(self):
        if self.model:
            key, value = self.tree.pop_minimum()
            assert key == min(self.model)
            assert self.model.pop(key) == value

    @rule(key=keys)
    def lookup(self, key):
        assert self.tree.find(key) == self.model.get(key)

    @invariant()
    def check(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.model)


TestRbTreeStateful = RbTreeMachine.TestCase
TestRbTreeStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class LruMachine(RuleBasedStateMachine):
    """LruList against an OrderedDict model (move_to_end semantics)."""

    items = st.integers(min_value=0, max_value=20)

    def __init__(self):
        super().__init__()
        self.lru = LruList()
        self.model = OrderedDict()

    @rule(item=items)
    def touch(self, item):
        self.lru.touch(item)
        self.model.pop(item, None)
        self.model[item] = True

    @rule(item=items)
    def discard(self, item):
        assert self.lru.discard(item) == (item in self.model)
        self.model.pop(item, None)

    @rule()
    def pop_lru(self):
        if self.model:
            expected = next(iter(self.model))
            assert self.lru.pop_lru() == expected
            del self.model[expected]

    @invariant()
    def check(self):
        assert list(self.lru) == list(self.model)
        assert len(self.lru) == len(self.model)


TestLruStateful = LruMachine.TestCase
TestLruStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class FifoMachine(RuleBasedStateMachine):
    """FifoQueue against a plain list model, covering the tombstone
    remove/re-push cycle."""

    items = st.integers(min_value=0, max_value=10)

    def __init__(self):
        super().__init__()
        self.queue = FifoQueue()
        self.model = []

    @rule(item=items)
    def push(self, item):
        if item in self.model:
            return  # duplicate live push is rejected; not interesting
        self.queue.push(item)
        self.model.append(item)

    @rule()
    def pop(self):
        if self.model:
            assert self.queue.pop() == self.model.pop(0)

    @rule(item=items)
    def remove(self, item):
        assert self.queue.remove(item) == (item in self.model)
        if item in self.model:
            self.model.remove(item)

    @rule()
    def peek(self):
        if self.model:
            assert self.queue.peek() == self.model[0]

    @invariant()
    def check(self):
        assert list(self.queue) == self.model
        assert len(self.queue) == len(self.model)
        for item in self.model:
            assert item in self.queue


TestFifoStateful = FifoMachine.TestCase
TestFifoStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
