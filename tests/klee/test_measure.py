"""Tests for Klee's measure problem over the Boolean semiring."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boxes import pbox_from_bits
from repro.klee.measure import (
    klee_covers_space,
    klee_measure_sweep,
    klee_uncovered_count,
)
from tests.helpers import brute_force_uncovered, random_boxes

DEPTH = 3


def ivs(max_depth=DEPTH):
    return st.integers(0, max_depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )


def box_tuples(ndim=3):
    return st.tuples(*([ivs()] * ndim))


class TestMeasureSweep:
    def test_empty(self):
        assert klee_measure_sweep([], 2, DEPTH) == 0

    def test_single_box(self):
        box = pbox_from_bits("1", "01")
        assert klee_measure_sweep([box], 2, DEPTH) == 4 * 2

    def test_overlap_counted_once(self):
        a = pbox_from_bits("0", "")
        b = pbox_from_bits("", "0")
        # |A ∪ B| = 32 + 32 - 16 = 48
        assert klee_measure_sweep([a, b], 2, DEPTH) == 48

    @settings(max_examples=60, deadline=None)
    @given(st.lists(box_tuples(), max_size=8))
    def test_matches_brute_force(self, boxes):
        uncovered = len(brute_force_uncovered(boxes, 3, DEPTH))
        total = 1 << (3 * DEPTH)
        assert klee_measure_sweep(boxes, 3, DEPTH) == total - uncovered
        assert klee_uncovered_count(boxes, 3, DEPTH) == uncovered


class TestBooleanKlee:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(box_tuples(), max_size=8))
    def test_cover_decision_consistent(self, boxes):
        expected = not brute_force_uncovered(boxes, 3, DEPTH)
        assert klee_covers_space(
            boxes, 3, DEPTH, use_load_balancing=True
        ) == expected
        assert klee_covers_space(
            boxes, 3, DEPTH, use_load_balancing=False
        ) == expected

    def test_full_cover(self):
        halves = [pbox_from_bits("0", "", ""),
                  pbox_from_bits("1", "", "")]
        assert klee_covers_space(halves, 3, DEPTH)
        assert klee_measure_sweep(halves, 3, DEPTH) == 1 << (3 * DEPTH)
