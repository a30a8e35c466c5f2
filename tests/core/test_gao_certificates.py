"""Tests for GAO-consistent certificates and arbitrary-box decomposition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.certificates import is_gao_consistent, minimal_certificate
from repro.core.boxes import pbox_from_bits
from repro.core.intervals import PLAMBDA
from repro.indexes.gaps import dyadic_boxes_from_ranges
from tests.helpers import (
    box_points,
    brute_force_uncovered,
    gao_consistent_certificate,
    pfrom_point,
)

DEPTH = 3


class TestGaoConsistency:
    def test_single_nontrivial_ok(self):
        # ⟨unit, gap-piece, λ⟩ in order (0,1,2).
        box = pbox_from_bits("101", "1", "")
        assert is_gao_consistent(box, (0, 1, 2), DEPTH)

    def test_nontrivial_then_nonlambda_rejected(self):
        box = pbox_from_bits("1", "101", "")
        assert not is_gao_consistent(box, (0, 1, 2), DEPTH)

    def test_order_dependence(self):
        box = pbox_from_bits("1", "101", "")
        # Under the order (1, 0, 2) the unit comes first: consistent.
        assert is_gao_consistent(box, (1, 0, 2), DEPTH)

    def test_all_lambda_or_units_consistent(self):
        assert is_gao_consistent(
            pbox_from_bits("", "101"), (0, 1), DEPTH
        )

    def test_two_nontrivial_rejected(self):
        box = pbox_from_bits("1", "1")
        assert not is_gao_consistent(box, (0, 1), DEPTH)


class TestGaoCertificate:
    def test_matches_union(self):
        # Two σ-consistent halves plus an inconsistent redundant box.
        boxes = [
            pbox_from_bits("0", ""),
            pbox_from_bits("1", ""),
            pbox_from_bits("1", "1"),  # inconsistent but covered by the halves
        ]
        cert = gao_consistent_certificate(boxes, (0, 1), 2, DEPTH)
        assert brute_force_uncovered(cert, 2, DEPTH) == []
        assert all(is_gao_consistent(b, (0, 1), DEPTH) for b in cert)

    def test_raises_when_consistent_subset_insufficient(self):
        # Only box is inconsistent: no σ-consistent certificate.
        boxes = [pbox_from_bits("1", "1")]
        with pytest.raises(ValueError, match="σ-consistent"):
            gao_consistent_certificate(boxes, (0, 1), 2, DEPTH)

    def test_proposition_b6_gap(self):
        """|C| can be far below |C_gao| (Proposition B.6): coarse
        2-D boxes beat σ-consistent strips."""
        # Cover the whole space with two 'quadtree style' boxes that are
        # NOT (0,1)-consistent, plus the Θ(2^d) consistent strips.
        coarse = [pbox_from_bits("0", ""), pbox_from_bits("1", "")]
        strips = [
            (pfrom_point(v, DEPTH), PLAMBDA) for v in range(1 << DEPTH)
        ]
        both = coarse + strips
        general = minimal_certificate(both, 2, DEPTH)
        consistent = gao_consistent_certificate(both, (0, 1), 2, DEPTH)
        assert len(general) == 2
        assert len(consistent) >= (1 << DEPTH) / (2 * DEPTH)


class TestRangeBoxDecomposition:
    def test_empty_range(self):
        assert dyadic_boxes_from_ranges([(3, 2), (0, 7)], DEPTH) == []

    def test_full_space(self):
        boxes = dyadic_boxes_from_ranges([(0, 7), (0, 7)], DEPTH)
        assert boxes == [(PLAMBDA, PLAMBDA)]

    @settings(max_examples=60)
    @given(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
    )
    def test_exact_cover(self, xr, yr):
        xlo, xhi = min(xr), max(xr)
        ylo, yhi = min(yr), max(yr)
        boxes = dyadic_boxes_from_ranges([(xlo, xhi), (ylo, yhi)], DEPTH)
        points = set()
        for b in boxes:
            pts = set(box_points(b, DEPTH))
            assert not pts & points, "pieces must be disjoint"
            points |= pts
        expected = {
            (x, y)
            for x in range(xlo, xhi + 1)
            for y in range(ylo, yhi + 1)
        }
        assert points == expected

    @settings(max_examples=30)
    @given(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
    )
    def test_count_bound(self, xr, yr):
        boxes = dyadic_boxes_from_ranges(
            [(min(xr), max(xr)), (min(yr), max(yr))], DEPTH
        )
        assert len(boxes) <= (2 * DEPTH) ** 2
