"""Tests for balanced partitions, the Balance map, and Tetris-LB."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import intervals as dy
from repro.core.balance import (
    BalanceMap,
    balanced_partition,
    split_by_partition,
    strictly_inside_count,
    tetris_preloaded_lb,
    tetris_reloaded_lb,
)
from repro.core.resolution import ResolutionStats
from repro.core.tetris import solve_bcp
from tests.helpers import (
    brute_force_uncovered,
    pcovers_point,
    pis_prefix,
    plength,
    random_boxes,
)

DEPTH = 3


def ivs(max_depth=DEPTH):
    return st.integers(0, max_depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )


def box_tuples(ndim=3):
    return st.tuples(*([ivs()] * ndim))


class TestBalancedPartition:
    def test_empty_boxes(self):
        assert balanced_partition([], 0, DEPTH) == (dy.PLAMBDA,)

    def test_is_complete_prefix_free_code(self):
        boxes = random_boxes(0, 40, 3, DEPTH)
        parts = balanced_partition(boxes, 0, DEPTH)
        # Prefix-free.
        for a in parts:
            for b in parts:
                if a != b:
                    assert not pis_prefix(a, b)
        # Complete: every point has a part prefixing it.
        for point in range(1 << DEPTH):
            assert any(
                pcovers_point(p, point, DEPTH) for p in parts
            )

    def test_no_heavy_part(self):
        """Definition 4.13: every part has ≤ √|C| boxes strictly inside
        (unless the part is already a unit interval)."""
        boxes = random_boxes(1, 50, 3, DEPTH)
        threshold = len(boxes) ** 0.5
        parts = balanced_partition(boxes, 0, DEPTH)
        components = [b[0] for b in boxes]
        for p in parts:
            if plength(p) < DEPTH:
                assert strictly_inside_count(components, p) <= threshold

    def test_example_f1_shape(self):
        """Example F.1 (n=3, d=6): the partition refines inside the loaded
        halves but stays coarse elsewhere."""
        d = 6
        boxes = []
        # C1: ⟨0x, λ, 0⟩ for x ∈ {0,1}^{d-2} plus ⟨0, y, 1⟩.
        for x in range(1 << (d - 2)):
            boxes.append(
                (dy.pmake(x, d - 1), dy.PLAMBDA, dy.pmake(0, 1))
            )
        for y in range(1 << (d - 2)):
            boxes.append(
                (dy.pmake(0, 1), dy.pmake(y, d - 2), dy.pmake(1, 1))
            )
        parts = balanced_partition(boxes, 0, d)
        # Parts under '0' must be fine; '1' stays one part.
        one = dy.pmake(1, 1)
        assert one in parts
        assert all(p == one or plength(p) > 1 for p in parts)


class TestSplitByPartition:
    # Code {'0', '10', '11'} in packed form.
    PARTS = (dy.pfrom_bits("0"), dy.pfrom_bits("10"), dy.pfrom_bits("11"))

    def test_prefix_of_code(self):
        parts = self.PARTS
        assert split_by_partition(dy.PLAMBDA, parts) == \
            (dy.PLAMBDA, dy.PLAMBDA)
        assert split_by_partition(dy.pfrom_bits("1"), parts) == \
            (dy.pfrom_bits("1"), dy.PLAMBDA)

    def test_extension_of_code(self):
        parts = self.PARTS
        # '011': code element '0' prefixes it; suffix '11'.
        assert split_by_partition(dy.pfrom_bits("011"), parts) == \
            (dy.pfrom_bits("0"), dy.pfrom_bits("11"))

    def test_code_element_itself(self):
        parts = self.PARTS
        assert split_by_partition(dy.pfrom_bits("10"), parts) == \
            (dy.pfrom_bits("10"), dy.PLAMBDA)

    def test_inconsistent_raises(self):
        with pytest.raises(ValueError):
            split_by_partition(
                dy.pfrom_bits("1"), (dy.pfrom_bits("0"),)
            )


class TestBalanceMapRoundtrip:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(box_tuples(), min_size=1, max_size=12))
    def test_lift_preserves_point_coverage(self, boxes):
        mapping = BalanceMap(boxes, 3, DEPTH)
        for box in boxes:
            lifted = mapping.lift_box(box)
            assert len(lifted) == mapping.lifted_ndim

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(box_tuples(), min_size=1, max_size=8),
        st.tuples(
            st.integers(0, (1 << DEPTH) - 1),
            st.integers(0, (1 << DEPTH) - 1),
            st.integers(0, (1 << DEPTH) - 1),
        ),
    )
    def test_point_roundtrip(self, boxes, point):
        """A point is covered by a box iff its lift is covered by the
        lifted box — and lowering the lifted unit recovers the point."""
        mapping = BalanceMap(boxes, 3, DEPTH)
        # Lift the point as a (degenerate) box of unit components.
        unit = tuple((1 << DEPTH) | v for v in point)
        lifted_unit = mapping.lift_box(unit)
        assert mapping.lower_point(lifted_unit) == point
        from repro.core.boxes import box_contains

        for box in boxes:
            covered = box_contains(box, unit)
            lifted_box = mapping.lift_box(box)
            assert box_contains(lifted_box, lifted_unit) == covered

    def test_ndim_too_small(self):
        with pytest.raises(ValueError):
            BalanceMap([], 1, DEPTH)


class TestTetrisLB:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(box_tuples(), max_size=10))
    def test_matches_brute_force(self, boxes):
        expected = brute_force_uncovered(boxes, 3, DEPTH)
        assert tetris_preloaded_lb(boxes, 3, DEPTH) == expected
        assert tetris_reloaded_lb(boxes, 3, DEPTH) == expected

    @settings(max_examples=15, deadline=None)
    @given(st.lists(box_tuples(), max_size=8))
    def test_online_matches_brute_force(self, boxes):
        expected = brute_force_uncovered(boxes, 3, DEPTH)
        assert tetris_reloaded_lb(boxes, 3, DEPTH) == expected

    def test_low_dimension_fallback(self):
        boxes = random_boxes(2, 10, 2, DEPTH)
        expected = brute_force_uncovered(boxes, 2, DEPTH)
        assert sorted(tetris_preloaded_lb(boxes, 2, DEPTH)) == expected
        assert sorted(tetris_reloaded_lb(boxes, 2, DEPTH)) == expected

    def test_4d_instance(self):
        boxes = random_boxes(5, 25, 4, 2)
        expected = brute_force_uncovered(boxes, 4, 2)
        assert tetris_preloaded_lb(boxes, 4, 2) == expected

    def test_online_4d_instance(self):
        """Two primed/double-primed pairs: the lifted oracle joins both."""
        boxes = random_boxes(5, 25, 4, 2)
        expected = brute_force_uncovered(boxes, 4, 2)
        assert tetris_reloaded_lb(boxes, 4, 2) == expected
        for seed in range(6):
            boxes = random_boxes(seed, 30, 4, 2)
            expected = brute_force_uncovered(boxes, 4, 2)
            assert tetris_reloaded_lb(boxes, 4, 2) == expected, seed

    def test_online_restarts_and_asks_only_container(self, monkeypatch):
        """Online LB runs rounds of Tetris-Reloaded on the kernel, each
        restarted with a fresh map once its loaded boxes pass the
        budget, and asks the input's oracle one thing: ``container``."""
        import repro.core.balance as balance
        from repro.core.tetris import BoxSetOracle
        from repro.workloads.hard_instances import example_f1

        asked = []

        class RecordingOracle(BoxSetOracle):
            def __getattribute__(self, name):
                if not name.startswith("_"):
                    asked.append(name)
                return super().__getattribute__(name)

        monkeypatch.setattr(balance, "BoxSetOracle", RecordingOracle)
        stats = ResolutionStats()
        assert tetris_reloaded_lb(example_f1(6), 3, 6, stats=stats) == []
        assert stats.skeleton_calls >= 2  # one kernel run per round
        assert set(asked) == {"container"}
        assert not hasattr(BoxSetOracle, "containing")

    @pytest.mark.parametrize(
        "depth,resolutions", [(4, 71), (5, 131), (6, 277)]
    )
    def test_online_resolutions_match_the_interpreted_loop(
        self, depth, resolutions
    ):
        """The counts the interpreted restart-per-point loop took on
        Example F.1; each kernel round resumes instead of restarting
        per point, and the resolutions stay the same."""
        from repro.workloads.hard_instances import example_f1

        stats = ResolutionStats()
        tetris_reloaded_lb(example_f1(depth), 3, depth, stats=stats)
        assert stats.resolutions == resolutions

    @pytest.mark.parametrize(
        "solve", [tetris_preloaded_lb, tetris_reloaded_lb]
    )
    def test_pair_form_rejected(self, solve):
        # A (value, length) pair per component is refused at the entry.
        with pytest.raises(TypeError, match="packed"):
            solve([((0, 1), (0, 0), (1, 1))], 3, DEPTH)

    def test_stats_collected(self):
        stats = ResolutionStats()
        boxes = random_boxes(7, 20, 3, DEPTH)
        tetris_preloaded_lb(boxes, 3, DEPTH, stats=stats)
        assert stats.skeleton_calls >= 1
        online = ResolutionStats()
        tetris_reloaded_lb(boxes, 3, DEPTH, stats=online)
        assert online.skeleton_calls >= 1
        assert online.oracle_queries > 0
