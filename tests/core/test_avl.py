"""AVL tree tests: unit behaviour plus model-based property checks."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import avl
from repro.core.avl import AvlTree


class TestBasics:
    def test_insert_and_get(self):
        tree = AvlTree()
        tree.insert("b", 2)
        tree.insert("a", 1)
        assert tree.get("a") == [1]
        assert tree.get("b") == [2]
        assert tree.get("c") == []

    def test_duplicate_keys_accumulate(self):
        tree = AvlTree()
        tree.insert("k", 1)
        tree.insert("k", 2)
        assert tree.get("k") == [1, 2]
        assert len(tree) == 2
        assert tree.key_count == 1

    def test_contains(self):
        tree = AvlTree()
        tree.insert("x", 1)
        assert "x" in tree
        assert "y" not in tree

    def test_remove(self):
        tree = AvlTree()
        tree.insert("k", 1)
        tree.insert("k", 2)
        assert tree.remove("k", 1) is True
        assert tree.get("k") == [2]
        assert tree.remove("k", 2) is True
        assert tree.get("k") == []
        assert tree.key_count == 0

    def test_remove_missing_returns_false(self):
        tree = AvlTree()
        tree.insert("k", 1)
        assert tree.remove("k", 99) is False
        assert tree.remove("missing", 1) is False

    def test_items_in_key_order(self):
        tree = AvlTree()
        for key in ["d", "a", "c", "b"]:
            tree.insert(key, key.upper())
        assert [k for k, _v in tree.items()] == ["a", "b", "c", "d"]

    def test_keys(self):
        tree = AvlTree()
        for key in [5, 3, 8, 1]:
            tree.insert(key, None)
        assert list(tree.keys()) == [1, 3, 5, 8]

    def test_min_max(self):
        tree = AvlTree()
        assert tree.minimum() is None
        assert tree.maximum() is None
        for key in [5, 3, 8, 1]:
            tree.insert(key, None)
        assert tree.minimum() == 1
        assert tree.maximum() == 8

    def test_range_scan(self):
        tree = AvlTree()
        for key in range(20):
            tree.insert(key, key * 10)
        result = [(k, v) for k, v in tree.range(5, 9)]
        assert result == [(5, 50), (6, 60), (7, 70), (8, 80), (9, 90)]

    def test_range_empty(self):
        tree = AvlTree()
        tree.insert(1, "a")
        assert list(tree.range(5, 9)) == []


class TestBalance:
    def test_sequential_insert_stays_logarithmic(self):
        tree = AvlTree()
        for key in range(1024):
            tree.insert(key, key)
        # A perfectly balanced tree of 1024 keys has height 11; AVL
        # guarantees at most ~1.44 * log2(n).
        assert tree.height <= 15
        tree.check_invariants()

    def test_reverse_insert_balanced(self):
        tree = AvlTree()
        for key in range(512, 0, -1):
            tree.insert(key, key)
        assert tree.height <= 14
        tree.check_invariants()


def _fibonacci_keys(height):
    """Keys of a minimal (Fibonacci) AVL tree of *height* in level order:
    every node's left subtree is one taller than its right, and
    inserting in level order builds exactly that tree."""

    def build(height, next_key):
        if height <= 0:
            return None
        left = build(height - 1, next_key)
        key = next_key[0]
        next_key[0] += 1
        return key, left, build(height - 2, next_key)

    keys, level = [], [build(height, [0])]
    while level:
        keys.extend(node[0] for node in level)
        level = [child for node in level for child in node[1:] if child]
    return keys


def _count_rotations(monkeypatch):
    count = [0]
    for name in ("_rotate_left", "_rotate_right"):
        rotate = getattr(avl, name)

        def counted(node, rotate=rotate):
            count[0] += 1
            return rotate(node)

        monkeypatch.setattr(avl, name, counted)
    return count


class TestRetrace:
    def test_remove_retraces_through_several_rotations(self, monkeypatch):
        tree = AvlTree()
        for key in _fibonacci_keys(10):
            tree.insert(key, key)
        assert tree.height == 10
        rotations = _count_rotations(monkeypatch)
        maximum = tree.maximum()
        assert tree.remove(maximum, maximum)
        # Every node on the right spine was left-heavy: each rotation
        # shortens its subtree, so the retrace continues upward.
        assert rotations[0] >= 3
        assert tree.height == 9
        tree.check_invariants()

    def test_remove_node_with_two_children(self):
        tree = AvlTree()
        keys = _fibonacci_keys(8)
        for key in keys:
            tree.insert(key, key)
        root = keys[0]
        assert tree.remove(root, root)
        tree.check_invariants()
        assert list(tree.keys()) == sorted(set(keys) - {root})
        assert tree.key_count == len(keys) - 1

    def test_insert_stops_after_one_rotation(self, monkeypatch):
        tree = AvlTree()
        for key in range(1, 200):
            tree.insert(key, key)
        rotations = _count_rotations(monkeypatch)
        for key in range(200, 400):
            before = rotations[0]
            tree.insert(key, key)
            assert rotations[0] - before <= 2  # at most one double rotation
        tree.check_invariants()

    def test_move_to_maximum_stays_logarithmic(self):
        """The by-last-modified index pattern: every sighting removes a
        record's key and re-inserts it as the new maximum."""
        rng = random.Random(7)
        size = 2000
        tree = AvlTree()
        stamps = list(range(size))
        for record, stamp in enumerate(stamps):
            tree.insert(stamp, record)
        clock = size
        for step in range(6000):
            record = rng.randrange(size)
            assert tree.remove(stamps[record], record)
            stamps[record] = clock
            tree.insert(clock, record)
            clock += 1
            assert tree.height <= 1.45 * math.log2(size + 2)
            if step % 1000 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert len(tree) == tree.key_count == size
        assert [record for _stamp, record in tree.items()] == sorted(
            range(size), key=stamps.__getitem__
        )


@st.composite
def operations(draw):
    """Inserts, removes of arbitrary pairs, and removes of pairs known
    to be present (so deep nodes with two children get unlinked)."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "remove_present"]),
                st.integers(min_value=0, max_value=200),  # key
                st.integers(min_value=0, max_value=3),    # value
            ),
            min_size=100,
            max_size=300,
        )
    )
    return ops


class TestModelBased:
    @settings(max_examples=60, deadline=None)
    @given(operations())
    def test_matches_dict_of_lists_model(self, ops):
        tree = AvlTree()
        model = {}
        for op, key, value in ops:
            if op == "remove_present" and model:
                keys = sorted(model)
                key = keys[key % len(keys)]
                value = model[key][value % len(model[key])]
                op = "remove"
            if op == "insert":
                tree.insert(key, value)
                model.setdefault(key, []).append(value)
            elif op == "remove":
                expected = key in model and value in model[key]
                assert tree.remove(key, value) == expected
                if expected:
                    model[key].remove(value)
                    if not model[key]:
                        del model[key]
            tree.check_invariants()
            assert tree.key_count == len(model)
        for key in range(201):
            assert sorted(tree.get(key)) == sorted(model.get(key, []))
        assert len(tree) == sum(len(v) for v in model.values())
        assert list(tree.keys()) == sorted(model)

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(min_value=0, max_value=100), max_size=80),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_range_matches_filter(self, keys, low, high):
        if low > high:
            low, high = high, low
        tree = AvlTree()
        for key in keys:
            tree.insert(key, key)
        expected = sorted(k for k in keys if low <= k <= high)
        assert [k for k, _v in tree.range(low, high)] == expected
