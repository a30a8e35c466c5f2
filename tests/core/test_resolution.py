"""Tests for geometric resolution: soundness, completeness of the rule shape."""

import pytest
from hypothesis import given, strategies as st

from repro.core import resolution as res
from repro.core.boxes import pbox_from_bits
from repro.core.resolution import ResolutionStats
from tests.helpers import box_points, resolve_tuples

DEPTH = 4


def ivs(max_depth=DEPTH):
    # All packed marker-bit intervals of length <= max_depth.
    return st.integers(1, (1 << (max_depth + 1)) - 1)


def box_tuples(ndim=3):
    return st.tuples(*([ivs()] * ndim))


class TestPaperExamples:
    def test_figure_7(self):
        # Resolution between ⟨λ, 00⟩ and ⟨10, 01⟩ yields ⟨10, 0⟩.
        w1 = pbox_from_bits("", "00")
        w2 = pbox_from_bits("10", "01")
        assert resolve_tuples(w1, w2) == pbox_from_bits("10", "0")

    def test_example_4_4_step(self):
        # Resolving ⟨01, 10⟩ with ⟨λ, 11⟩ gives ⟨01, 1⟩.
        w1 = pbox_from_bits("01", "10")
        w2 = pbox_from_bits("", "11")
        assert resolve_tuples(w1, w2) == pbox_from_bits("01", "1")

    def test_example_4_4_final_chain(self):
        # ⟨λ, 0⟩ with ⟨01, 1⟩ gives ⟨01, λ⟩.
        w1 = pbox_from_bits("", "0")
        w2 = pbox_from_bits("01", "1")
        assert resolve_tuples(w1, w2) == pbox_from_bits("01", "")


class TestPreconditions:
    def test_not_resolvable_two_sibling_axes(self):
        w1 = pbox_from_bits("0", "0")
        w2 = pbox_from_bits("1", "1")
        assert res.find_resolvable_dimension(w1, w2) is None

    def test_not_resolvable_disjoint_axis(self):
        w1 = pbox_from_bits("00", "0")
        w2 = pbox_from_bits("11", "1")
        assert res.find_resolvable_dimension(w1, w2) is None

    def test_not_resolvable_identical(self):
        w = pbox_from_bits("0", "1")
        assert res.find_resolvable_dimension(w, w) is None

    def test_resolve_raises_when_impossible(self):
        with pytest.raises(ValueError):
            resolve_tuples(
                pbox_from_bits("0", "0"), pbox_from_bits("1", "1")
            )

    def test_resolvable_single_axis(self):
        w1 = pbox_from_bits("10", "0")
        w2 = pbox_from_bits("11", "01")
        assert res.find_resolvable_dimension(w1, w2) == 0
        assert res.resolvable(w1, w2)


class TestSoundness:
    @given(box_tuples(), box_tuples())
    def test_resolvent_covered_by_union(self, w1, w2):
        """Soundness: every point of the resolvent lies in w1 ∪ w2."""
        axis = res.find_resolvable_dimension(w1, w2)
        if axis is None:
            return
        w = resolve_tuples(w1, w2)
        union = set(box_points(w1, DEPTH)) | set(box_points(w2, DEPTH))
        assert set(box_points(w, DEPTH)) <= union

    @given(box_tuples(), box_tuples())
    def test_resolvent_is_maximal_box_in_union(self, w1, w2):
        """The resolvent strictly contains both inputs' shadow on the axis."""
        axis = res.find_resolvable_dimension(w1, w2)
        if axis is None:
            return
        w = resolve_tuples(w1, w2)
        # Axis component is the common parent of the two siblings.
        assert w[axis] == w1[axis] >> 1
        # Other components are the meet (the longer string).
        for i, p in enumerate(w):
            if i != axis:
                assert p in (w1[i], w2[i])
                assert p.bit_length() == max(
                    w1[i].bit_length(), w2[i].bit_length()
                )


class TestOrderedShape:
    def test_ordered_pair_accepts_staircase(self):
        w1 = pbox_from_bits("1010", "0110", "00")
        w2 = pbox_from_bits("1010", "01", "01")
        assert res.is_ordered_pair(w1, w2, 2)

    def test_ordered_pair_rejects_tail(self):
        # Non-λ after the resolved axis breaks the Definition 4.3 shape.
        w1 = pbox_from_bits("00", "1", "1")
        w2 = pbox_from_bits("01", "1", "1")
        assert not res.is_ordered_pair(w1, w2, 0)

    def test_ordered_pair_requires_siblings(self):
        w1 = pbox_from_bits("00", "", "")
        w2 = pbox_from_bits("10", "", "")
        assert not res.is_ordered_pair(w1, w2, 0)


def _resolve(stats, w1, w2, axis):
    """One resolution step as the engine takes it: record, then resolve."""
    stats.record(axis, ordered=res.is_ordered_pair(w1, w2, axis))
    return res.resolve_on_axis(w1, w2, axis)


class TestResolverStats:
    def test_counts(self):
        stats = ResolutionStats()
        w1 = pbox_from_bits("0", "0")
        w2 = pbox_from_bits("1", "0")
        out = _resolve(stats, w1, w2, 0)
        assert out == pbox_from_bits("", "0")
        assert stats.resolutions == 1
        assert stats.by_axis == {0: 1}

    def test_ordered_counted_separately(self):
        stats = ResolutionStats()
        # ordered pair
        _resolve(stats, pbox_from_bits("0", ""), pbox_from_bits("1", ""), 0)
        # unordered pair (non-λ after axis)
        _resolve(stats, pbox_from_bits("0", "1"), pbox_from_bits("1", "1"), 0)
        assert stats.resolutions == 2
        assert stats.ordered_resolutions == 1

    def test_reset(self):
        stats = ResolutionStats()
        _resolve(stats, pbox_from_bits("0", ""), pbox_from_bits("1", ""), 0)
        stats.reset()
        assert stats.resolutions == 0
        assert stats.by_axis == {}

    def test_summary_mentions_counts(self):
        stats = ResolutionStats()
        assert "resolutions=0" in stats.summary()
