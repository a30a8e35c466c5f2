"""Tests for gap extraction from sorted value lists."""

import pytest
from hypothesis import given, strategies as st

from repro.core import intervals as dy
from repro.indexes.btree import BTreeIndex
from repro.indexes.gaps import complement_ranges, pdyadic_gaps
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema
from tests.helpers import pcovers_point

DEPTH = 5
DOMAIN = 1 << DEPTH


def gap_piece_containing(values, point, depth):
    """The gap interval a unary B-tree returns around ``point``, or
    ``None`` when ``point`` is stored — the lazy one-column probe."""
    relation = Relation(
        RelationSchema("R", ("A",)), [(v,) for v in values], Domain(depth)
    )
    found = BTreeIndex(relation, ("A",)).gap_boxes_containing((point,))
    return found[0][0] if found else None


class TestComplementRanges:
    def test_empty_values(self):
        assert complement_ranges([], 3) == [(0, 7)]

    def test_full_values(self):
        assert complement_ranges(list(range(8)), 3) == []

    def test_interior_gaps(self):
        assert complement_ranges([2, 5], 3) == [(0, 1), (3, 4), (6, 7)]

    def test_edges(self):
        assert complement_ranges([0, 7], 3) == [(1, 6)]


class TestDyadicGaps:
    @given(st.sets(st.integers(0, DOMAIN - 1), max_size=12))
    def test_cover_exact_complement(self, values):
        gaps = pdyadic_gaps(values, DEPTH)
        covered = set()
        for g in gaps:
            lo, hi = dy.pto_range(g, DEPTH)
            covered.update(range(lo, hi + 1))
        assert covered == set(range(DOMAIN)) - values

    @given(st.sets(st.integers(0, DOMAIN - 1), max_size=12))
    def test_gaps_disjoint(self, values):
        gaps = pdyadic_gaps(values, DEPTH)
        total = 0
        for g in gaps:
            lo, hi = dy.pto_range(g, DEPTH)
            total += hi - lo + 1
        assert total == DOMAIN - len(values)

    @given(st.sets(st.integers(0, DOMAIN - 1), min_size=1, max_size=12))
    def test_size_linear_in_values(self, values):
        # Each of the ≤ |values|+1 gaps decomposes into ≤ 2d pieces.
        gaps = pdyadic_gaps(values, DEPTH)
        assert len(gaps) <= (len(values) + 1) * 2 * DEPTH

    def test_unsorted_input_ok(self):
        assert pdyadic_gaps([5, 1, 5], 3) == pdyadic_gaps([1, 5], 3)


class TestGapPieceContaining:
    def test_stored_value_returns_none(self):
        assert gap_piece_containing([3], 3, 3) is None

    @given(
        st.sets(st.integers(0, DOMAIN - 1), max_size=10),
        st.integers(0, DOMAIN - 1),
    )
    def test_piece_matches_full_decomposition(self, values, point):
        ordered = sorted(values)
        piece = gap_piece_containing(ordered, point, DEPTH)
        if point in values:
            assert piece is None
        else:
            assert piece is not None
            assert pcovers_point(piece, point, DEPTH)
            # It must be one of the globally computed gap pieces.
            assert piece in pdyadic_gaps(values, DEPTH)
