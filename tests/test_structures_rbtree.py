"""Unit tests for the red-black tree (``tests/reference_rbtree.py``, the
record index's oracle: it has to be right to be one)."""

import pytest
from reference_rbtree import RedBlackTree


@pytest.fixture
def tree():
    return RedBlackTree()


class TestBasics:
    def test_empty(self, tree):
        assert len(tree) == 0
        assert not tree
        assert "missing" not in tree
        assert list(tree.items()) == []

    def test_insert_and_get(self, tree):
        assert tree.insert("b", 2)
        assert tree["b"] == 2
        assert "b" in tree
        assert len(tree) == 1

    def test_insert_overwrites(self, tree):
        tree.insert("k", 1)
        assert not tree.insert("k", 2)  # replacement, not new node
        assert tree["k"] == 2
        assert len(tree) == 1

    def test_getitem_missing_raises(self, tree):
        with pytest.raises(KeyError):
            tree["missing"]

    def test_find_default(self, tree):
        assert tree.find("x") is None
        assert tree.find("x", 42) == 42
        assert tree.get("x", "d") == "d"

    def test_setitem_delitem(self, tree):
        tree["a"] = 1
        assert tree["a"] == 1
        del tree["a"]
        assert "a" not in tree
        with pytest.raises(KeyError):
            del tree["a"]

    def test_bool(self, tree):
        assert not tree
        tree.insert(1, 1)
        assert tree


class TestOrdering:
    def test_items_sorted(self, tree):
        for key in [5, 3, 8, 1, 4, 7, 9, 2, 6]:
            tree.insert(key, key * 10)
        assert list(tree.keys()) == list(range(1, 10))
        assert list(tree.values()) == [k * 10 for k in range(1, 10)]

    def test_minimum_maximum(self, tree):
        for key in [5, 3, 8]:
            tree.insert(key, str(key))
        assert tree.minimum() == (3, "3")
        assert tree.maximum() == (8, "8")

    def test_minimum_empty_raises(self, tree):
        with pytest.raises(KeyError):
            tree.minimum()
        with pytest.raises(KeyError):
            tree.maximum()

    def test_range_scan(self, tree):
        for key in range(20):
            tree.insert(key, key)
        assert [k for k, _v in tree.range(5, 9)] == [5, 6, 7, 8, 9]
        assert [k for k, _v in tree.range(18, 30)] == [18, 19]
        assert list(tree.range(25, 30)) == []

    def test_range_on_tuple_keys(self, tree):
        keys = [(b"b", b"1"), (b"a", b"2"), (b"b", b"0"), (b"a", b"1")]
        for key in keys:
            tree.insert(key, None)
        selected = [k for k, _v in tree.range((b"a", b""), (b"a", b"~"))]
        assert selected == [(b"a", b"1"), (b"a", b"2")]

    def test_pop_minimum(self, tree):
        for key in [3, 1, 2]:
            tree.insert(key, key)
        assert tree.pop_minimum() == (1, 1)
        assert tree.pop_minimum() == (2, 2)
        assert len(tree) == 1

    def test_pop_minimum_empty_raises(self, tree):
        with pytest.raises(KeyError):
            tree.pop_minimum()


class TestDeletion:
    def test_delete_present(self, tree):
        for key in range(10):
            tree.insert(key, key)
        assert tree.delete(5)
        assert 5 not in tree
        assert len(tree) == 9
        assert list(tree.keys()) == [0, 1, 2, 3, 4, 6, 7, 8, 9]

    def test_delete_absent(self, tree):
        assert not tree.delete("nope")

    def test_delete_all_ascending(self, tree):
        for key in range(50):
            tree.insert(key, key)
        for key in range(50):
            assert tree.delete(key)
            tree.check_invariants()
        assert len(tree) == 0

    def test_delete_root_repeatedly(self, tree):
        for key in range(20):
            tree.insert(key, key)
        while tree:
            key, _value = tree.minimum()
            tree.delete(key)
            tree.check_invariants()

    def test_clear(self, tree):
        for key in range(10):
            tree.insert(key, key)
        tree.clear()
        assert len(tree) == 0
        assert list(tree.items()) == []
        tree.insert(1, 1)  # usable after clear
        assert tree[1] == 1


class TestInvariants:
    def test_invariants_after_sequential_inserts(self, tree):
        for key in range(200):
            tree.insert(key, key)
            tree.check_invariants()

    def test_invariants_after_reverse_inserts(self, tree):
        for key in reversed(range(200)):
            tree.insert(key, key)
        tree.check_invariants()

    def test_invariants_interleaved(self, tree):
        for key in range(100):
            tree.insert((key * 37) % 100, key)
        for key in range(0, 100, 3):
            tree.delete(key)
        tree.check_invariants()
        survivors = [k for k in range(100) if k % 3 != 0]
        assert list(tree.keys()) == survivors

    def test_large_tree_depth_is_logarithmic(self, tree):
        # Black height of a 2^k-node red-black tree is at most ~k.
        for key in range(4096):
            tree.insert(key, None)
        black_height = tree.check_invariants()
        assert black_height <= 13
