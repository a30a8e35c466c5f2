"""Unit and property tests for dyadic intervals (packed marker-bit ints)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import intervals as dy
from repro.core.intervals import PLAMBDA


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
        assert dy.pfrom_point(3, 4) == dy.pfrom_bits("0011")

    def test_from_point_out_of_domain(self):
        with pytest.raises(ValueError):
            dy.pfrom_point(16, 4)


class TestPrefixOrder:
    def test_lambda_is_prefix_of_all(self):
        assert dy.pis_prefix(PLAMBDA, dy.pfrom_bits("101"))
        assert dy.pis_prefix(PLAMBDA, PLAMBDA)

    def test_prefix_basic(self):
        assert dy.pis_prefix(dy.pfrom_bits("1"), dy.pfrom_bits("101"))
        assert not dy.pis_prefix(dy.pfrom_bits("0"), dy.pfrom_bits("101"))

    def test_prefix_not_symmetric(self):
        assert not dy.pis_prefix(dy.pfrom_bits("101"), dy.pfrom_bits("1"))

    def test_contains_alias(self):
        assert dy.pcontains is dy.pis_prefix

    @given(ivs())
    def test_prefix_reflexive(self, a):
        assert dy.pis_prefix(a, a)

    @given(ivs(), ivs(), ivs())
    def test_prefix_transitive(self, a, b, c):
        if dy.pis_prefix(a, b) and dy.pis_prefix(b, c):
            assert dy.pis_prefix(a, c)

    @given(ivs(), ivs())
    def test_prefix_antisymmetric(self, a, b):
        if dy.pis_prefix(a, b) and dy.pis_prefix(b, a):
            assert a == b

    @given(ivs(), ivs())
    def test_overlap_iff_ranges_intersect(self, a, b):
        ra = set(range(*_span(a)))
        rb = set(range(*_span(b)))
        assert dy.poverlaps(a, b) == bool(ra & rb)


def _span(p, depth=DEPTH):
    lo, hi = dy.pto_range(p, depth)
    return lo, hi + 1


class TestMeetSplit:
    def test_meet_takes_longer(self):
        one, five = dy.pfrom_bits("1"), dy.pfrom_bits("101")
        assert dy.pmeet(one, five) == five
        assert dy.pmeet(five, one) == five

    def test_meet_disjoint_raises(self):
        with pytest.raises(ValueError):
            dy.pmeet(dy.pfrom_bits("0"), dy.pfrom_bits("1"))

    def test_split(self):
        left, right = dy.psplit(dy.pfrom_bits("1"))
        assert left == dy.pfrom_bits("10")
        assert right == dy.pfrom_bits("11")

    def test_split_lambda(self):
        assert dy.psplit(PLAMBDA) == (dy.pfrom_bits("0"), dy.pfrom_bits("1"))

    @given(ivs(max_depth=DEPTH - 1))
    def test_split_partitions(self, a):
        left, right = dy.psplit(a)
        la = set(range(*_span(left)))
        ra = set(range(*_span(right)))
        assert la | ra == set(range(*_span(a)))
        assert not la & ra

    def test_parent_inverts_extend(self):
        one = dy.pfrom_bits("1")
        assert dy.pparent(dy.pextend(one, 0)) == one

    def test_parent_of_lambda_raises(self):
        with pytest.raises(ValueError):
            dy.pparent(PLAMBDA)

    def test_last_bit(self):
        assert dy.plast_bit(dy.pfrom_bits("101")) == 1
        assert dy.plast_bit(dy.pfrom_bits("100")) == 0

    def test_last_bit_of_lambda_raises(self):
        with pytest.raises(ValueError):
            dy.plast_bit(PLAMBDA)

    def test_siblings(self):
        b = dy.pfrom_bits
        assert dy.pare_siblings(b("100"), b("101"))
        assert not dy.pare_siblings(b("100"), b("110"))
        assert not dy.pare_siblings(b("100"), b("0101"))
        assert not dy.pare_siblings(PLAMBDA, PLAMBDA)

    @given(ivs(max_depth=DEPTH - 1))
    def test_split_makes_siblings(self, a):
        left, right = dy.psplit(a)
        assert dy.pare_siblings(left, right)


class TestPrefixEnumeration:
    def test_prefixes_of_101(self):
        assert list(dy.pprefixes(dy.pfrom_bits("101"))) == [
            dy.pfrom_bits(bits) for bits in ("", "1", "10", "101")
        ]

    @given(ivs())
    def test_prefix_count(self, a):
        assert len(list(dy.pprefixes(a))) == dy.plength(a) + 1

    @given(ivs())
    def test_all_prefixes_contain(self, a):
        for p in dy.pprefixes(a):
            assert dy.pis_prefix(p, a)


class TestRanges:
    def test_to_range(self):
        assert dy.pto_range(dy.pfrom_bits("1"), 3) == (4, 7)
        assert dy.pto_range(PLAMBDA, 3) == (0, 7)

    def test_to_range_too_deep(self):
        with pytest.raises(ValueError):
            dy.pto_range(dy.pfrom_bits("0000"), 3)

    def test_width(self):
        assert dy.pwidth(PLAMBDA, 5) == 32
        assert dy.pwidth(dy.pfrom_point(0, 5), 5) == 1

    def test_covers_point(self):
        assert dy.pcovers_point(dy.pfrom_bits("1"), 5, 3)
        assert not dy.pcovers_point(dy.pfrom_bits("1"), 3, 3)

    def test_covers_point_outside_domain(self):
        # A point past the domain's top is in no interval: its overflow
        # bit must not be absorbed by the marker bit.
        assert not dy.pcovers_point(0b101, 5, 2)
        assert not dy.pcovers_point(0b11, 6, 2)
        assert not dy.pcovers_point(PLAMBDA, 4, 2)
        assert not dy.pcovers_point(PLAMBDA, -1, 2)


class TestDecomposeRange:
    def test_empty(self):
        assert dy.pdecompose_range(5, 4, 3) == []

    def test_full_domain(self):
        assert dy.pdecompose_range(0, 7, 3) == [PLAMBDA]

    def test_single_point(self):
        assert dy.pdecompose_range(5, 5, 3) == [dy.pfrom_point(5, 3)]

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
