"""A classic red-black tree mapping ordered keys to values — the record
index's spec, kept as a test oracle.

The paper stores committed records in a C++ STL ``map`` "indexed with the key
field values in a RB-tree" (section 3.3). This module reimplements that
structure from scratch: an ordered map with O(log n) insert, delete and
lookup, in-order iteration, and range scans. It was
``repro.structures.rbtree`` and backed :class:`repro.core.index.RecordIndex`
until the index became a ``dict`` per record type (nothing range-scans, and
the interpreted descent was a measurable share of every commit and lookup);
it moved here verbatim, and ``tests/test_core_index.py`` drives the index
against it.

Keys may be any mutually comparable Python values (the GODIVA index uses
tuples of ``bytes``). Values are arbitrary objects.

The implementation follows the CLRS formulation with a single shared
sentinel NIL node. Every public operation preserves the red-black
invariants, which :meth:`RedBlackTree.check_invariants` verifies (used by
the property-based test suite):

1. every node is red or black;
2. the root is black;
3. every leaf (NIL) is black;
4. a red node has two black children;
5. all root-to-leaf paths contain the same number of black nodes.
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

RED = 0
BLACK = 1


class _Node:
    """Internal tree node. ``key``/``value`` are None only for the NIL
    sentinel."""

    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key: Any = None, value: Any = None, color: int = BLACK):
        self.key = key
        self.value = value
        self.color = color
        self.left: "_Node" = None  # type: ignore[assignment]
        self.right: "_Node" = None  # type: ignore[assignment]
        self.parent: "_Node" = None  # type: ignore[assignment]


class RedBlackTree:
    """An ordered key/value map backed by a red-black tree.

    Supports the mapping protocol (``tree[key]``, ``key in tree``,
    ``len(tree)``, iteration in key order) plus :meth:`insert`,
    :meth:`delete`, :meth:`find`, :meth:`minimum`, :meth:`maximum`, and
    :meth:`range` scans.
    """

    def __init__(self) -> None:
        self._nil = _Node(color=BLACK)
        self._nil.left = self._nil
        self._nil.right = self._nil
        self._nil.parent = self._nil
        self._root = self._nil
        self._size = 0

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Any) -> bool:
        return self._find_node(key) is not self._nil

    def __getitem__(self, key: Any) -> Any:
        node = self._find_node(key)
        if node is self._nil:
            raise KeyError(key)
        return node.value

    def __setitem__(self, key: Any, value: Any) -> None:
        self.insert(key, value)

    def __delitem__(self, key: Any) -> None:
        if not self.delete(key):
            raise KeyError(key)

    def __iter__(self) -> Iterator[Any]:
        for key, _value in self.items():
            yield key

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(self, key: Any, default: Any = None) -> Any:
        """Return the value stored under ``key``, or ``default``."""
        node = self._find_node(key)
        return default if node is self._nil else node.value

    def get(self, key: Any, default: Any = None) -> Any:
        """Alias of :meth:`find` for dict familiarity."""
        return self.find(key, default)

    def minimum(self) -> Tuple[Any, Any]:
        """Return the ``(key, value)`` pair with the smallest key."""
        if self._root is self._nil:
            raise KeyError("minimum of empty tree")
        node = self._subtree_min(self._root)
        return node.key, node.value

    def maximum(self) -> Tuple[Any, Any]:
        """Return the ``(key, value)`` pair with the largest key."""
        if self._root is self._nil:
            raise KeyError("maximum of empty tree")
        node = self._root
        while node.right is not self._nil:
            node = node.right
        return node.key, node.value

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs in ascending key order."""
        # Iterative in-order traversal; recursion would overflow on
        # adversarial (large) trees.
        stack = []
        node = self._root
        while stack or node is not self._nil:
            while node is not self._nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> Iterator[Any]:
        for key, _value in self.items():
            yield key

    def values(self) -> Iterator[Any]:
        for _key, value in self.items():
            yield value

    def range(self, low: Any, high: Any) -> Iterator[Tuple[Any, Any]]:
        """Yield pairs with ``low <= key <= high`` in ascending order."""
        stack = []
        node = self._root
        while stack or node is not self._nil:
            while node is not self._nil:
                # Prune subtrees entirely below the range.
                if node.key < low:
                    node = node.right
                    continue
                stack.append(node)
                node = node.left
            if not stack:
                break
            node = stack.pop()
            if node.key > high:
                break
            yield node.key, node.value
            node = node.right

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> bool:
        """Insert ``key -> value``; overwrite on duplicate key.

        Returns True if a new node was created, False if an existing key's
        value was replaced.
        """
        parent = self._nil
        node = self._root
        while node is not self._nil:
            parent = node
            if key == node.key:
                node.value = value
                return False
            node = node.left if key < node.key else node.right

        new = _Node(key, value, RED)
        new.left = self._nil
        new.right = self._nil
        new.parent = parent
        if parent is self._nil:
            self._root = new
        elif key < parent.key:
            parent.left = new
        else:
            parent.right = new
        self._size += 1
        self._insert_fixup(new)
        return True

    def delete(self, key: Any) -> bool:
        """Remove ``key``; return True if it was present."""
        node = self._find_node(key)
        if node is self._nil:
            return False
        self._delete_node(node)
        self._size -= 1
        return True

    def pop_minimum(self) -> Tuple[Any, Any]:
        """Remove and return the smallest ``(key, value)`` pair."""
        if self._root is self._nil:
            raise KeyError("pop_minimum of empty tree")
        node = self._subtree_min(self._root)
        pair = (node.key, node.value)
        self._delete_node(node)
        self._size -= 1
        return pair

    def clear(self) -> None:
        """Drop every entry."""
        self._root = self._nil
        self._size = 0

    # ------------------------------------------------------------------
    # Invariant checking (test support)
    # ------------------------------------------------------------------
    def check_invariants(self) -> int:
        """Verify all five red-black properties plus BST ordering.

        Returns the tree's black-height. Raises ``AssertionError`` on any
        violation; used heavily by the hypothesis test suite.
        """
        assert self._root.color == BLACK, "root must be black"
        assert self._nil.color == BLACK, "sentinel must be black"
        black_height, count = self._check_subtree(self._root, None, None)
        assert count == self._size, f"size {self._size} != node count {count}"
        return black_height

    def _check_subtree(self, node, low, high) -> Tuple[int, int]:
        if node is self._nil:
            return 1, 0
        if low is not None:
            assert node.key > low, "BST order violated (left)"
        if high is not None:
            assert node.key < high, "BST order violated (right)"
        if node.color == RED:
            assert node.left.color == BLACK and node.right.color == BLACK, (
                "red node with red child"
            )
        left_bh, left_n = self._check_subtree(node.left, low, node.key)
        right_bh, right_n = self._check_subtree(node.right, node.key, high)
        assert left_bh == right_bh, "unequal black heights"
        return left_bh + (1 if node.color == BLACK else 0), left_n + right_n + 1

    # ------------------------------------------------------------------
    # Internals (CLRS)
    # ------------------------------------------------------------------
    def _find_node(self, key: Any) -> _Node:
        node = self._root
        while node is not self._nil:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return self._nil

    def _subtree_min(self, node: _Node) -> _Node:
        while node.left is not self._nil:
            node = node.left
        return node

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self._nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self._nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent.color == RED:
            if z.parent is z.parent.parent.left:
                uncle = z.parent.parent.right
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = z.parent.parent.left
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self._root.color = BLACK

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _delete_node(self, z: _Node) -> None:
        y = z
        y_original_color = y.color
        if z.left is self._nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self._nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._subtree_min(z.right)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_original_color == BLACK:
            self._delete_fixup(x)

    def _delete_fixup(self, x: _Node) -> None:
        while x is not self._root and x.color == BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color == BLACK and w.right.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color == BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self._root
            else:
                w = x.parent.left
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color == BLACK and w.left.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color == BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self._root
        x.color = BLACK
