"""Edge cases and reference parity of the packed marker-bit encoding.

Covers the edge cases the encoding must get right — λ (packed ``1``),
unit-depth intervals, and the degenerate depth-0 domain — plus
hypothesis-driven parity of every packed operation and identity (halves
``2p`` / ``2p + 1``, parent ``p >> 1``, siblings ``a ^ b == 1``) with the
point sets of :func:`tests.helpers.interval_range`, which reads the
bitstring without going through :mod:`repro.core.intervals`.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import intervals as dy
from repro.core.boxes import pbox_from_bits
from repro.core.intervals import PLAMBDA
from repro.core.resolution import resolve_tuples
from tests.helpers import (
    interval_range,
    pcovers_point,
    pfrom_point,
    pis_prefix,
    pis_unit,
    plength,
    pmeet,
    pwidth,
)

DEPTH = 6


def ivs(max_depth=DEPTH):
    return st.integers(0, max_depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )


def points(p, depth=DEPTH):
    return set(interval_range(p, depth))


class TestPackUnpack:
    @given(ivs())
    def test_roundtrip(self, p):
        assert dy.pmake(dy.pvalue(p), plength(p)) == p

    @given(st.integers(0, DEPTH).flatmap(
        lambda length: st.tuples(
            st.integers(0, (1 << length) - 1), st.just(length)
        )
    ))
    def test_value_length_accessors(self, value_length):
        value, length = value_length
        p = dy.pmake(value, length)
        assert dy.pvalue(p) == value
        assert plength(p) == length

    def test_lambda(self):
        assert dy.pmake(0, 0) == PLAMBDA
        assert plength(PLAMBDA) == 0
        assert dy.pvalue(PLAMBDA) == 0

    def test_examples(self):
        assert dy.pmake(5, 3) == 0b1101
        assert dy.pmake(0, 1) == 0b10
        assert dy.pmake(1, 1) == 0b11

    def test_bits_roundtrip(self):
        assert dy.pfrom_bits("101") == 0b1101
        assert dy.pto_bits(0b1101) == "101"
        assert dy.pto_bits(PLAMBDA) == "λ"
        assert dy.pfrom_bits("") == PLAMBDA
        with pytest.raises(ValueError):
            dy.pfrom_bits("10x")

    def test_pmake_validates(self):
        assert dy.pmake(5, 3) == 0b1101
        with pytest.raises(ValueError):
            dy.pmake(8, 3)
        with pytest.raises(ValueError):
            dy.pmake(0, -1)


class TestPackedOrder:
    @given(ivs(), ivs())
    def test_prefix_parity(self, a, b):
        assert pis_prefix(a, b) == (points(b) <= points(a))

    @given(ivs(), ivs())
    def test_overlap_parity(self, a, b):
        comparable = pis_prefix(a, b) or pis_prefix(b, a)
        assert comparable == bool(points(a) & points(b))

    @given(ivs(), ivs())
    def test_meet_parity(self, a, b):
        common = points(a) & points(b)
        if common:
            assert points(pmeet(a, b)) == common
        else:
            with pytest.raises(ValueError):
                pmeet(a, b)

    @given(ivs(), ivs())
    def test_sibling_parity(self, a, b):
        pa, pb = points(a), points(b)
        union = pa | pb
        siblings = (
            len(pa) == len(pb) < len(union)
            # The union of x·0 and x·1 is the dyadic interval x.
            and min(union) % len(union) == 0
            and max(union) - min(union) + 1 == len(union)
        )
        assert (a ^ b == 1) == siblings

    def test_lambda_is_prefix_of_all(self):
        assert pis_prefix(PLAMBDA, 0b1101)
        assert pis_prefix(PLAMBDA, PLAMBDA)
        assert not pis_prefix(0b10, PLAMBDA)


class TestPackedStructure:
    @given(ivs(max_depth=DEPTH - 1))
    def test_split_parity(self, a):
        left, right = 2 * a, 2 * a + 1
        lo, hi = min(points(a)), max(points(a))
        mid = (lo + hi + 1) // 2
        assert points(left) == set(range(lo, mid))
        assert points(right) == set(range(mid, hi + 1))

    def test_split_lambda(self):
        assert (2 * PLAMBDA, 2 * PLAMBDA + 1) == (0b10, 0b11)

    @given(ivs(max_depth=DEPTH - 1), st.integers(0, 1))
    def test_extend_parent_roundtrip(self, p, bit):
        child = (p << 1) | bit
        assert child >> 1 == p
        assert child & 1 == bit

    def test_parent_of_lambda_raises(self):
        # λ has no sibling, so no resolution forms its parent.
        with pytest.raises(ValueError):
            resolve_tuples((PLAMBDA,), (PLAMBDA,))

    @given(ivs())
    def test_prefixes_parity(self, a):
        # The prefixes of a are exactly the intervals containing it,
        # from λ (the smallest packed int) down to a itself.
        containing = [
            q for q in range(1, 2 << DEPTH) if points(a) <= points(q)
        ]
        assert [a >> k for k in range(plength(a), -1, -1)] == containing


class TestPackedGeometry:
    @given(ivs())
    def test_to_range_parity(self, a):
        assert dy.pto_range(a, DEPTH) == (min(points(a)), max(points(a)))

    @given(ivs())
    def test_width_parity(self, a):
        assert pwidth(a, DEPTH) == len(points(a))

    @given(ivs(), st.integers(-2, (1 << DEPTH) + 2))
    def test_covers_point_parity(self, a, point):
        assert pcovers_point(a, point, DEPTH) == (point in points(a))

    @given(
        st.integers(0, (1 << DEPTH) - 1),
        st.integers(0, (1 << DEPTH) - 1),
    )
    def test_decompose_parity(self, a, b):
        lo, hi = min(a, b), max(a, b)
        pieces = dy.pdecompose_range(lo, hi, DEPTH)
        covered = [x for p in pieces for x in interval_range(p, DEPTH)]
        assert covered == list(range(lo, hi + 1))
        # Canonical: no two neighbouring pieces merge into one interval.
        assert not any(
            x ^ y == 1 for x, y in zip(pieces, pieces[1:])
        )


class TestUnitAndDepthEdges:
    def test_unit_at_depth(self):
        p = pfrom_point(5, 3)
        assert p == 0b1101
        assert pis_unit(p, 3)
        assert not pis_unit(p >> 1, 3)

    def test_unit_out_of_domain(self):
        with pytest.raises(ValueError):
            pfrom_point(16, 4)

    def test_depth_zero_domain(self):
        # On a depth-0 domain λ IS the unit interval of the only point.
        assert pis_unit(PLAMBDA, 0)
        assert pfrom_point(0, 0) == PLAMBDA
        assert dy.pto_range(PLAMBDA, 0) == (0, 0)
        assert pcovers_point(PLAMBDA, 0, 0)
        assert dy.pdecompose_range(0, 0, 0) == [PLAMBDA]

    def test_unit_depth_split_is_below_domain(self):
        # Splitting a unit interval leaves the domain; pis_unit must not
        # confuse the child with a unit of the same depth.
        p = pfrom_point(2, 2)
        child = (p << 1) | 1
        assert not pis_unit(child, 2)
        assert pis_unit(child, 3)


class TestBoxHelpers:
    def test_pbox_from_bits(self):
        assert pbox_from_bits("10", "", "0") == (0b110, 1, 0b10)
        assert pbox_from_bits("λ", "*") == (1, 1)

    @given(st.lists(ivs(), min_size=1, max_size=4))
    def test_box_packed_roundtrip(self, components):
        box = tuple(components)
        assert pbox_from_bits(*map(dy.pto_bits, box)) == box
