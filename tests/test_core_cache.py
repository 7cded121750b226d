"""Unit tests for the eviction policies (section 3.3: LRU default)."""

import pytest

from repro.core.cache import (
    FifoEvictionPolicy,
    LruEvictionPolicy,
    MruEvictionPolicy,
    make_policy,
)

ALL_POLICIES = [LruEvictionPolicy, FifoEvictionPolicy, MruEvictionPolicy]


@pytest.fixture(params=ALL_POLICIES, ids=lambda cls: cls.name)
def policy(request):
    return make_policy(request.param())


def test_make_policy_names():
    assert isinstance(make_policy("lru"), LruEvictionPolicy)
    for cls in (FifoEvictionPolicy, MruEvictionPolicy):
        instance = cls()
        assert make_policy(instance) is instance


def test_make_policy_unknown():
    for name in ("clock", "fifo", "mru"):
        with pytest.raises(ValueError, match="unknown eviction policy"):
            make_policy(name)


class TestCommonBehaviour:
    def test_empty_victim_is_none(self, policy):
        assert policy.victim() is None
        assert len(policy) == 0

    def test_add_and_victim(self, policy):
        policy.add("a")
        assert "a" in policy
        assert policy.victim() == "a"
        assert "a" not in policy
        assert policy.victim() is None

    def test_remove(self, policy):
        policy.add("a")
        assert policy.remove("a")
        assert not policy.remove("a")
        assert policy.victim() is None

    def test_victim_is_removed(self, policy):
        policy.add("a")
        policy.add("b")
        victim = policy.victim()
        assert victim not in policy
        assert len(policy) == 1

    def test_iteration(self, policy):
        for name in ("a", "b", "c"):
            policy.add(name)
        assert set(policy) == {"a", "b", "c"}

    def test_readd_after_victim(self, policy):
        policy.add("a")
        policy.victim()
        policy.add("a")
        assert policy.victim() == "a"


class TestLruSpecifics:
    def test_victim_is_least_recently_touched(self):
        policy = LruEvictionPolicy()
        for name in ("a", "b", "c"):
            policy.add(name)
        policy.touch("a")
        assert policy.victim() == "b"
        assert policy.victim() == "c"
        assert policy.victim() == "a"

    def test_touch_absent_is_noop(self):
        policy = LruEvictionPolicy()
        policy.touch("ghost")
        assert len(policy) == 0


class TestMruSpecifics:
    def test_victim_is_most_recently_touched(self):
        policy = MruEvictionPolicy()
        for name in ("a", "b", "c"):
            policy.add(name)
        assert policy.victim() == "c"
        policy.touch("a")
        assert policy.victim() == "a"

    def test_touch_absent_is_noop(self):
        policy = MruEvictionPolicy()
        policy.touch("ghost")
        assert len(policy) == 0


class TestFifoSpecifics:
    def test_victim_order_ignores_touches(self):
        policy = FifoEvictionPolicy()
        for name in ("a", "b", "c"):
            policy.add(name)
        policy.touch("a")   # FIFO ignores recency
        assert policy.victim() == "a"
        assert policy.victim() == "b"

    def test_double_add_is_noop(self):
        policy = FifoEvictionPolicy()
        policy.add("a")
        policy.add("a")
        assert len(policy) == 1

    def test_remove_readd_cycle(self):
        policy = FifoEvictionPolicy()
        policy.add("a")
        policy.add("b")
        policy.remove("a")
        policy.add("a")
        assert policy.victim() == "b"
        assert policy.victim() == "a"
        assert policy.victim() is None
