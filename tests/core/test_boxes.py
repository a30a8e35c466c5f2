"""Unit and property tests for dyadic boxes (tuples of packed intervals)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import intervals as dy
from repro.core.boxes import box_contains, box_overlaps, pbox_from_bits
from repro.core.intervals import PLAMBDA
from repro.relational.hypergraph import Hypergraph
from tests.helpers import (
    box_points,
    pcovers_point,
    pfrom_point,
    pis_unit,
    pmeet,
    pwidth,
)

DEPTH = 4
NDIM = 3


def ivs(max_depth=DEPTH):
    return st.integers(0, max_depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )


def boxes(ndim=NDIM, max_depth=DEPTH):
    return st.tuples(*([ivs(max_depth)] * ndim))


def volume(box, depth):
    vol = 1
    for p in box:
        vol *= pwidth(p, depth)
    return vol


class TestBoxBasics:
    def test_from_bits(self):
        b = pbox_from_bits("10", "", "0")
        assert b == (dy.pmake(2, 2), PLAMBDA, dy.pmake(0, 1))

    def test_from_bits_wildcards(self):
        assert pbox_from_bits("λ", "*", "") == (PLAMBDA,) * 3

    def test_point(self):
        unit = tuple(pfrom_point(c, 3) for c in (1, 2))
        assert unit == pbox_from_bits("001", "010")

    def test_universe(self):
        universe = pbox_from_bits("", "")
        assert universe == (PLAMBDA, PLAMBDA)
        assert volume(universe, 3) == 64

    def test_equality_and_hash(self):
        assert pbox_from_bits("1", "0") == pbox_from_bits("1", "0")
        assert hash(pbox_from_bits("1", "0")) == hash(pbox_from_bits("1", "0"))
        assert pbox_from_bits("1", "0") != pbox_from_bits("0", "1")

    def test_repr(self):
        box = pbox_from_bits("10", "")
        assert ", ".join(map(dy.pto_bits, box)) == "10, λ"

    def test_ndim(self):
        assert len(pbox_from_bits("", "", "", "")) == 4


class TestContainment:
    def test_universe_contains_all(self):
        u = pbox_from_bits("", "")
        assert box_contains(u, pbox_from_bits("101", "0"))

    def test_componentwise(self):
        outer = pbox_from_bits("1", "")
        inner = pbox_from_bits("10", "11")
        assert box_contains(outer, inner)
        assert not box_contains(inner, outer)

    @given(boxes(), boxes())
    def test_contains_iff_point_subset(self, a, b):
        pa = set(box_points(a, DEPTH))
        pb = set(box_points(b, DEPTH))
        assert box_contains(a, b) == (pb <= pa)

    @given(boxes(), boxes())
    def test_overlaps_iff_points_intersect(self, a, b):
        pa = set(box_points(a, DEPTH))
        pb = set(box_points(b, DEPTH))
        assert box_overlaps(a, b) == bool(pa & pb)

    @given(boxes(), boxes())
    def test_intersect_matches_point_intersection(self, a, b):
        pa = set(box_points(a, DEPTH))
        pb = set(box_points(b, DEPTH))
        if box_overlaps(a, b):
            meet = tuple(map(pmeet, a, b))
            assert set(box_points(meet, DEPTH)) == pa & pb
        else:
            with pytest.raises(ValueError):
                tuple(map(pmeet, a, b))

    def test_raw_tuple_helpers(self):
        a = pbox_from_bits("1", "")
        b = pbox_from_bits("10", "1")
        assert box_contains(a, b)
        assert box_overlaps(a, b)
        assert not box_contains(b, a)

    def test_packed_roundtrip(self):
        b = pbox_from_bits("10", "", "0")
        assert b == (0b110, 0b1, 0b10)
        assert pbox_from_bits(*map(dy.pto_bits, b)) == b


class TestSupportAndPoints:
    # A box's support (Definition 3.7) is its non-λ positions; the
    # supporting hypergraph has one edge per support.
    def test_support_indices(self):
        b = pbox_from_bits("1", "", "01")
        assert Hypergraph.of_boxes([b], (0, 1, 2)).edges == [frozenset({0, 2})]

    def test_support_names(self):
        b = pbox_from_bits("1", "", "01")
        h = Hypergraph.of_boxes([b], ("A", "B", "C"))
        assert h.edges == [frozenset({"A", "C"})]

    def test_unit_box(self):
        assert all(pis_unit(p, 3) for p in pbox_from_bits("001", "010"))
        assert not all(pis_unit(p, 3) for p in pbox_from_bits("1", "10"))

    def test_to_point(self):
        unit = pbox_from_bits("001", "010")
        assert tuple(map(dy.pvalue, unit)) == (1, 2)

    def test_covers_point(self):
        b = pbox_from_bits("1", "")
        assert all(map(pcovers_point, b, (5, 0), (3, 3)))
        assert not all(map(pcovers_point, b, (3, 0), (3, 3)))

    def test_volume(self):
        assert volume(pbox_from_bits("", ""), 3) == 64
        assert volume(pbox_from_bits("1", "01"), 3) == 4 * 2

    @given(boxes())
    def test_volume_matches_point_count(self, b):
        assert volume(b, DEPTH) == len(list(box_points(b, DEPTH)))
