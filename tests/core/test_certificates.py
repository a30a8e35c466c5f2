"""Tests for box certificates: complements, redundancy, minimality."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boxes import pbox_from_bits
from repro.core.certificates import (
    certificate_size,
    covers,
    is_redundant,
    minimal_certificate,
    minimum_certificate,
    pcomplement_boxes,
)
from tests.helpers import (
    box_points,
    brute_force_uncovered,
    pfrom_point,
    random_boxes,
)

DEPTH = 3


def ivs(max_depth=DEPTH):
    return st.integers(0, max_depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )


def box_tuples(ndim=2):
    return st.tuples(*([ivs()] * ndim))


class TestComplement:
    @settings(max_examples=60)
    @given(box_tuples())
    def test_complement_is_exact(self, box):
        pieces = pcomplement_boxes(box)
        inside = set(box_points(box, DEPTH))
        outside = set()
        for p in pieces:
            outside.update(box_points(p, DEPTH))
        all_points = {
            (a, b)
            for a in range(1 << DEPTH)
            for b in range(1 << DEPTH)
        }
        assert outside == all_points - inside

    def test_universe_has_empty_complement(self):
        assert pcomplement_boxes(pbox_from_bits("", "")) == []

    def test_piece_count_bound(self):
        # At most n·d pieces.
        box = pbox_from_bits("101", "010")
        assert len(pcomplement_boxes(box)) <= 2 * DEPTH


class TestCovers:
    def test_direct_containment(self):
        target = pbox_from_bits("10", "0")
        assert covers([pbox_from_bits("1", "")], target, 2, DEPTH)

    def test_cover_by_two_halves(self):
        target = pbox_from_bits("1", "")
        halves = [pbox_from_bits("10", ""), pbox_from_bits("11", "")]
        assert covers(halves, target, 2, DEPTH)

    def test_not_covered(self):
        target = pbox_from_bits("1", "")
        assert not covers([pbox_from_bits("10", "")], target, 2, DEPTH)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(box_tuples(), max_size=6), box_tuples())
    def test_matches_point_semantics(self, candidate, target):
        got = covers(candidate, target, 2, DEPTH)
        target_pts = set(box_points(target, DEPTH))
        covered = set()
        for b in candidate:
            covered.update(box_points(b, DEPTH))
        assert got == (target_pts <= covered)


class TestRedundancy:
    def test_contained_box_is_redundant(self):
        boxes = [pbox_from_bits("1", ""), pbox_from_bits("10", "0")]
        assert is_redundant(boxes, 1, 2, DEPTH)
        assert not is_redundant(boxes, 0, 2, DEPTH)

    def test_union_covered_box(self):
        boxes = [
            pbox_from_bits("0", ""),
            pbox_from_bits("1", ""),
            pbox_from_bits("", "01"),  # inside the union of the halves
        ]
        assert is_redundant(boxes, 2, 2, DEPTH)


class TestMinimalCertificate:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(box_tuples(), max_size=8))
    def test_same_union(self, boxes):
        cert = minimal_certificate(boxes, 2, DEPTH)
        assert brute_force_uncovered(cert, 2, DEPTH) == \
            brute_force_uncovered(boxes, 2, DEPTH)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(box_tuples(), max_size=7))
    def test_irredundant(self, boxes):
        cert = minimal_certificate(boxes, 2, DEPTH)
        for i in range(len(cert)):
            assert not is_redundant(cert, i, 2, DEPTH)

    def test_duplicates_removed(self):
        b = pbox_from_bits("1", "0")
        assert minimal_certificate([b, b, b], 2, DEPTH) == [b]

    def test_certificate_can_be_much_smaller(self):
        """Thin slices covered by one big box: |C| = 1 despite many inputs."""
        big = pbox_from_bits("0", "")
        thin = [
            pbox_from_bits(format(v, "03b"), "") for v in range(4)
        ]
        cert = minimal_certificate(thin + [big], 2, DEPTH)
        assert cert == [big]


class TestMinimumCertificate:
    def test_exact_beats_or_ties_greedy(self):
        for seed in range(4):
            boxes = random_boxes(seed, 8, 2, DEPTH)
            exact = minimum_certificate(boxes, 2, DEPTH)
            greedy = minimal_certificate(boxes, 2, DEPTH)
            assert len(exact) <= len(greedy)
            assert brute_force_uncovered(exact, 2, DEPTH) == \
                brute_force_uncovered(boxes, 2, DEPTH)

    def test_limit_enforced(self):
        # Unit boxes on the diagonal are pairwise incomparable, so all of
        # them survive the maximality filter and trip the limit.
        boxes = [(pfrom_point(v, DEPTH),) * 2 for v in range(8)]
        with pytest.raises(ValueError):
            minimum_certificate(boxes, 2, DEPTH, limit=5)

    def test_certificate_size_helper(self):
        b = pbox_from_bits("1", "0")
        assert certificate_size([b, b], 2, DEPTH) == 1
        assert certificate_size([b, b], 2, DEPTH, exact=True) == 1
