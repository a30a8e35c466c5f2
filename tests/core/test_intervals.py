"""Unit and property tests for dyadic intervals (packed marker-bit ints).

Splitting, parents, siblings and prefixes have no helper: code applies the
identities of :mod:`repro.core.intervals` inline, so the tests here pin
those identities themselves.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import intervals as dy
from repro.core.intervals import PLAMBDA
from tests.helpers import (
    pcovers_point,
    pfrom_point,
    pis_prefix,
    plength,
    pmeet,
    pwidth,
    resolve_tuples,
)


DEPTH = 6


def ivs(max_depth=DEPTH):
    """Hypothesis strategy for packed dyadic intervals up to a depth."""
    return st.integers(0, max_depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )


class TestConstruction:
    def test_make_valid(self):
        assert dy.pmake(5, 3) == 0b1101

    def test_make_lambda(self):
        assert dy.pmake(0, 0) == PLAMBDA

    def test_make_rejects_oversized_value(self):
        with pytest.raises(ValueError):
            dy.pmake(8, 3)

    def test_make_rejects_negative_length(self):
        with pytest.raises(ValueError):
            dy.pmake(0, -1)

    def test_make_rejects_nonzero_lambda(self):
        with pytest.raises(ValueError):
            dy.pmake(1, 0)

    def test_from_bits_roundtrip(self):
        assert dy.pfrom_bits("101") == 0b1101
        assert dy.pto_bits(0b1101) == "101"

    def test_from_bits_empty_is_lambda(self):
        assert dy.pfrom_bits("") == PLAMBDA
        assert dy.pto_bits(PLAMBDA) == "λ"

    def test_from_bits_rejects_garbage(self):
        with pytest.raises(ValueError):
            dy.pfrom_bits("10x")

    def test_from_point(self):
        assert pfrom_point(3, 4) == dy.pfrom_bits("0011")

    def test_from_point_out_of_domain(self):
        with pytest.raises(ValueError):
            pfrom_point(16, 4)


class TestPrefixOrder:
    def test_lambda_is_prefix_of_all(self):
        assert pis_prefix(PLAMBDA, dy.pfrom_bits("101"))
        assert pis_prefix(PLAMBDA, PLAMBDA)

    def test_prefix_basic(self):
        assert pis_prefix(dy.pfrom_bits("1"), dy.pfrom_bits("101"))
        assert not pis_prefix(dy.pfrom_bits("0"), dy.pfrom_bits("101"))

    def test_prefix_not_symmetric(self):
        assert not pis_prefix(dy.pfrom_bits("101"), dy.pfrom_bits("1"))

    @given(ivs())
    def test_prefix_reflexive(self, a):
        assert pis_prefix(a, a)

    @given(ivs(), ivs(), ivs())
    def test_prefix_transitive(self, a, b, c):
        if pis_prefix(a, b) and pis_prefix(b, c):
            assert pis_prefix(a, c)

    @given(ivs(), ivs())
    def test_prefix_antisymmetric(self, a, b):
        if pis_prefix(a, b) and pis_prefix(b, a):
            assert a == b

    @given(ivs(), ivs())
    def test_overlap_iff_ranges_intersect(self, a, b):
        # Two dyadic segments intersect iff one prefixes the other.
        ra = set(range(*_span(a)))
        rb = set(range(*_span(b)))
        assert (pis_prefix(a, b) or pis_prefix(b, a)) == bool(ra & rb)


def _span(p, depth=DEPTH):
    lo, hi = dy.pto_range(p, depth)
    return lo, hi + 1


class TestMeetSplit:
    def test_meet_takes_longer(self):
        one, five = dy.pfrom_bits("1"), dy.pfrom_bits("101")
        assert pmeet(one, five) == five
        assert pmeet(five, one) == five

    def test_meet_disjoint_raises(self):
        with pytest.raises(ValueError):
            pmeet(dy.pfrom_bits("0"), dy.pfrom_bits("1"))

    def test_split(self):
        # The dyadic halves of p are 2p and 2p + 1.
        one = dy.pfrom_bits("1")
        assert 2 * one == dy.pfrom_bits("10")
        assert 2 * one + 1 == dy.pfrom_bits("11")

    def test_split_lambda(self):
        assert (2 * PLAMBDA, 2 * PLAMBDA + 1) == (
            dy.pfrom_bits("0"), dy.pfrom_bits("1")
        )

    @given(ivs(max_depth=DEPTH - 1))
    def test_split_partitions(self, a):
        left, right = 2 * a, 2 * a + 1
        la = set(range(*_span(left)))
        ra = set(range(*_span(right)))
        assert la | ra == set(range(*_span(a)))
        assert not la & ra

    def test_parent_inverts_extend(self):
        # Appending bit b is (p << 1) | b; the parent is p >> 1.
        one = dy.pfrom_bits("1")
        assert ((one << 1) | 0) >> 1 == one
        assert ((one << 1) | 1) >> 1 == one

    def test_parent_of_lambda_raises(self):
        # A parent is formed only by resolving two siblings, and λ has
        # no sibling: resolution refuses it.
        with pytest.raises(ValueError):
            resolve_tuples((PLAMBDA,), (PLAMBDA,))

    def test_last_bit(self):
        assert dy.pfrom_bits("101") & 1 == 1
        assert dy.pfrom_bits("100") & 1 == 0

    def test_siblings(self):
        # x·0 and x·1 differ in the last bit only: one XOR.
        b = dy.pfrom_bits
        assert b("100") ^ b("101") == 1
        assert b("100") ^ b("110") != 1
        assert b("100") ^ b("0101") != 1
        assert PLAMBDA ^ PLAMBDA != 1

    @given(ivs(max_depth=DEPTH - 1))
    def test_split_makes_siblings(self, a):
        assert (2 * a) ^ (2 * a + 1) == 1


def _prefixes(p):
    """The prefixes of ``p`` from λ down to ``p``: ``p >> k``."""
    return [p >> k for k in range(plength(p), -1, -1)]


class TestPrefixEnumeration:
    def test_prefixes_of_101(self):
        assert _prefixes(dy.pfrom_bits("101")) == [
            dy.pfrom_bits(bits) for bits in ("", "1", "10", "101")
        ]

    @given(ivs())
    def test_prefix_count(self, a):
        prefixes = _prefixes(a)
        assert prefixes[0] == PLAMBDA
        assert len(set(prefixes)) == plength(a) + 1

    @given(ivs())
    def test_all_prefixes_contain(self, a):
        for p in _prefixes(a):
            assert pis_prefix(p, a)


class TestRanges:
    def test_to_range(self):
        assert dy.pto_range(dy.pfrom_bits("1"), 3) == (4, 7)
        assert dy.pto_range(PLAMBDA, 3) == (0, 7)

    def test_to_range_too_deep(self):
        with pytest.raises(ValueError):
            dy.pto_range(dy.pfrom_bits("0000"), 3)

    def test_width(self):
        assert pwidth(PLAMBDA, 5) == 32
        assert pwidth(pfrom_point(0, 5), 5) == 1

    def test_covers_point(self):
        assert pcovers_point(dy.pfrom_bits("1"), 5, 3)
        assert not pcovers_point(dy.pfrom_bits("1"), 3, 3)

    def test_covers_point_outside_domain(self):
        # A point past the domain's top is in no interval: its overflow
        # bit must not be absorbed by the marker bit.
        assert not pcovers_point(0b101, 5, 2)
        assert not pcovers_point(0b11, 6, 2)
        assert not pcovers_point(PLAMBDA, 4, 2)
        assert not pcovers_point(PLAMBDA, -1, 2)


class TestDecomposeRange:
    def test_empty(self):
        assert dy.pdecompose_range(5, 4, 3) == []

    def test_full_domain(self):
        assert dy.pdecompose_range(0, 7, 3) == [PLAMBDA]

    def test_single_point(self):
        assert dy.pdecompose_range(5, 5, 3) == [pfrom_point(5, 3)]

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            dy.pdecompose_range(0, 8, 3)

    @given(
        st.integers(0, (1 << DEPTH) - 1),
        st.integers(0, (1 << DEPTH) - 1),
    )
    def test_decomposition_is_exact_partition(self, a, b):
        lo, hi = min(a, b), max(a, b)
        pieces = dy.pdecompose_range(lo, hi, DEPTH)
        covered = []
        for piece in pieces:
            plo, phi = dy.pto_range(piece, DEPTH)
            covered.extend(range(plo, phi + 1))
        assert sorted(covered) == list(range(lo, hi + 1))
        assert len(covered) == len(set(covered))

    @given(
        st.integers(0, (1 << DEPTH) - 1),
        st.integers(0, (1 << DEPTH) - 1),
    )
    def test_decomposition_size_bound(self, a, b):
        # Proposition B.14: at most 2d dyadic segments per interval.
        lo, hi = min(a, b), max(a, b)
        assert len(dy.pdecompose_range(lo, hi, DEPTH)) <= 2 * DEPTH
