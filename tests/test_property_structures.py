"""Property-based tests (hypothesis) for the foundational structures.

Each structure is driven with random operation sequences against a plain
Python model; the red-black tree (the record index's oracle,
``tests/reference_rbtree.py``) additionally re-verifies its five
invariants after every mutation. The eviction policies' model is a
plain list, not an ordered dict, because an ordered dict is their
implementation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from reference_rbtree import RedBlackTree

from repro.core.cache import (
    FifoEvictionPolicy,
    LruEvictionPolicy,
    MruEvictionPolicy,
)

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


class EvictionPolicyMachine(RuleBasedStateMachine):
    """Eviction policies driven through one add / remove / touch /
    victim sequence, each against a plain list model in iteration order
    (least recent, or first added, first). Subclasses name the policies."""

    names = st.sampled_from("abcdef")
    policy_classes = ()

    def __init__(self):
        super().__init__()
        self.pairs = [(cls(), []) for cls in self.policy_classes]

    @rule(name=names)
    def add(self, name):
        for policy, model in self.pairs:
            policy.add(name)
            if name in model and policy.name != "fifo":
                model.remove(name)  # re-adding refreshes recency
            if name not in model:
                model.append(name)

    @rule(name=names)
    def touch(self, name):
        for policy, model in self.pairs:
            policy.touch(name)
            if name in model and policy.name != "fifo":
                model.remove(name)
                model.append(name)

    @rule(name=names)
    def remove(self, name):
        for policy, model in self.pairs:
            assert policy.remove(name) == (name in model)
            if name in model:
                model.remove(name)

    @rule()
    def victim(self):
        for policy, model in self.pairs:
            expected = None
            if model:
                expected = model.pop(-1 if policy.name == "mru" else 0)
            assert policy.victim() == expected

    @invariant()
    def check(self):
        for policy, model in self.pairs:
            assert list(policy) == model
            assert len(policy) == len(model)
            for name in "abcdef":
                assert (name in policy) == (name in model)


class LruMachine(EvictionPolicyMachine):
    """LRU and MRU share one recency order; only the victim's end differs."""

    policy_classes = (LruEvictionPolicy, MruEvictionPolicy)


class FifoMachine(EvictionPolicyMachine):
    policy_classes = (FifoEvictionPolicy,)


TestLruStateful = LruMachine.TestCase
TestLruStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)

TestFifoStateful = FifoMachine.TestCase
TestFifoStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
