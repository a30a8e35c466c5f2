"""Tests for the knowledge-base store abstraction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boxes import box_contains, pbox_from_bits
from repro.core.stores import ListStore
from repro.core.tetris import BoxSetOracle, TetrisEngine
from tests.helpers import brute_force_uncovered, random_boxes


def ivs(max_depth=3):
    # All packed marker-bit intervals of length <= max_depth.
    return st.integers(1, (1 << (max_depth + 1)) - 1)


class TestListStore:
    def test_basics(self):
        store = ListStore(2)
        b = pbox_from_bits("1", "0")
        assert store.add(b)
        assert not store.add(b)
        assert b in store
        assert len(store) == 1
        assert list(store) == [b]

    def test_bad_ndim(self):
        with pytest.raises(ValueError):
            ListStore(0)

    def test_arity_check(self):
        with pytest.raises(ValueError):
            ListStore(2).add(pbox_from_bits("1"))

    def test_find_container(self):
        store = ListStore(2)
        big = pbox_from_bits("1", "")
        store.add(big)
        assert store.find_container(pbox_from_bits("10", "01")) == big
        assert store.find_container(pbox_from_bits("0", "")) is None

    @settings(max_examples=100)
    @given(
        st.lists(st.tuples(ivs(), ivs()), max_size=10),
        st.tuples(ivs(), ivs()),
    )
    def test_agrees_with_dyadic_tree(self, stored, query):
        from repro.core.dyadic_tree import MultilevelDyadicTree

        lst = ListStore(2)
        tree = MultilevelDyadicTree(2)
        for b in stored:
            assert lst.add(b) == tree.add(b)
        expected = {b for b in stored if box_contains(b, query)}
        for found in (lst.find_container(query), tree.find_container(query)):
            assert found in expected if expected else found is None


class TestEngineWithListStore:
    def test_same_outputs(self):
        for seed in range(3):
            boxes = random_boxes(seed, 25, 3, 4)
            expected = brute_force_uncovered(boxes, 3, 4)
            engine = TetrisEngine(3, 4, knowledge_base=ListStore(3))
            got = engine.run(BoxSetOracle(boxes, 3), preload=True)
            assert sorted(got) == expected
