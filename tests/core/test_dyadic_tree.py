"""Tests for the multilevel dyadic tree knowledge-base store (packed)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boxes import box_contains, pbox_from_bits
from repro.core.intervals import PLAMBDA
from repro.core.dyadic_tree import MultilevelDyadicTree
from tests.helpers import random_boxes

DEPTH = 4


def ivs(max_depth=DEPTH):
    # All packed marker-bit intervals of length <= max_depth.
    return st.integers(1, (1 << (max_depth + 1)) - 1)


def box_tuples(ndim=2):
    return st.tuples(*([ivs()] * ndim))


class TestBasics:
    def test_empty(self):
        tree = MultilevelDyadicTree(2)
        assert len(tree) == 0
        assert tree.find_container((PLAMBDA,) * 2) is None

    def test_bad_ndim(self):
        with pytest.raises(ValueError):
            MultilevelDyadicTree(0)

    def test_add_and_contains(self):
        tree = MultilevelDyadicTree(2)
        b = pbox_from_bits("10", "0")
        assert tree.add(b)
        assert b in tree
        assert len(tree) == 1

    def test_duplicate_add(self):
        tree = MultilevelDyadicTree(2)
        b = pbox_from_bits("10", "0")
        assert tree.add(b)
        assert not tree.add(b)
        assert len(tree) == 1

    def test_arity_mismatch(self):
        tree = MultilevelDyadicTree(2)
        with pytest.raises(ValueError):
            tree.add(pbox_from_bits("1"))

    def test_not_contains_prefix(self):
        tree = MultilevelDyadicTree(1)
        tree.add(pbox_from_bits("10"))
        assert pbox_from_bits("1") not in tree

    def test_iteration(self):
        tree = MultilevelDyadicTree(2)
        items = {
            pbox_from_bits("10", "0"),
            pbox_from_bits("", "11"),
            pbox_from_bits("10", ""),
        }
        for b in items:
            tree.add(b)
        assert set(tree) == items


class TestFindContainer:
    def test_finds_exact(self):
        tree = MultilevelDyadicTree(2)
        b = pbox_from_bits("10", "0")
        tree.add(b)
        assert tree.find_container(b) == b

    def test_finds_strict_container(self):
        tree = MultilevelDyadicTree(2)
        big = pbox_from_bits("1", "")
        tree.add(big)
        small = pbox_from_bits("101", "0011")
        assert tree.find_container(small) == big

    def test_lambda_component_matches_everything(self):
        tree = MultilevelDyadicTree(3)
        b = pbox_from_bits("", "01", "")
        tree.add(b)
        q = pbox_from_bits("1111", "0110", "0000")
        assert tree.find_container(q) == b

    def test_no_false_positive(self):
        tree = MultilevelDyadicTree(2)
        tree.add(pbox_from_bits("10", "0"))
        assert tree.find_container(pbox_from_bits("11", "0")) is None
        assert tree.find_container(pbox_from_bits("1", "0")) is None

    def test_find_all_containers(self):
        tree = MultilevelDyadicTree(2)
        a = pbox_from_bits("1", "")
        b = pbox_from_bits("", "0")
        c = pbox_from_bits("0", "0")
        for x in (a, b, c):
            tree.add(x)
        point = pbox_from_bits("1111", "0000")
        found = set(map(tuple, tree.find_all_containers(point)))
        assert found == {a, b}

    @settings(max_examples=200)
    @given(st.lists(box_tuples(), max_size=12), box_tuples())
    def test_matches_linear_scan(self, stored, query):
        tree = MultilevelDyadicTree(2)
        for b in stored:
            tree.add(b)
        expected = {b for b in stored if box_contains(b, query)}
        found = tree.find_container(query)
        if expected:
            assert found in expected
        else:
            assert found is None
        assert set(tree.find_all_containers(query)) == expected

    def test_randomized_bulk(self):
        rng = random.Random(7)
        stored = random_boxes(1, 200, 3, 5)
        tree = MultilevelDyadicTree(3)
        for b in stored:
            tree.add(b)
        for _ in range(100):
            q = tuple(
                (1 << 5) | rng.getrandbits(5) for _ in range(3)
            )
            expected = {b for b in stored if box_contains(b, q)}
            assert set(tree.find_all_containers(q)) == expected
