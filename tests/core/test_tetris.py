"""Tests for the Tetris engine: correctness against brute force, variants."""

import itertools
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.tetris as tetris_module
from repro.core.boxes import check_packed, pbox_from_bits
from repro.core.dyadic_tree import MultilevelDyadicTree
from repro.core.intervals import PLAMBDA
from repro.core.resolution import ResolutionStats
from repro.core.tetris import (
    MODES,
    BoxSetOracle,
    TetrisEngine,
    boolean_box_cover,
    solve_bcp,
    tetris_preloaded,
    tetris_reloaded,
)
from tests.helpers import brute_force_uncovered, random_boxes

DEPTH = 3
NDIM = 2


def ivs(max_depth=DEPTH):
    return st.integers(0, max_depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )


def box_tuples(ndim=NDIM, depth=DEPTH):
    return st.tuples(*([ivs(depth)] * ndim))


ALL_VARIANTS = list(
    itertools.product([True, False], MODES, [True, False])
)


class TestSmallInstances:
    def test_no_boxes_lists_everything(self):
        out = solve_bcp([], ndim=1, depth=2)
        assert sorted(out) == [(0,), (1,), (2,), (3,)]

    def test_full_cover_single_box(self):
        out = solve_bcp([(PLAMBDA,) * 2], ndim=2, depth=2)
        assert out == []

    def test_figure_10_example(self):
        """Example 4.4: B = {⟨λ,0⟩, ⟨00,λ⟩, ⟨λ,11⟩, ⟨10,1⟩}, outputs
        ⟨01,10⟩ and ⟨11,10⟩."""
        boxes = [
            pbox_from_bits("", "0"),
            pbox_from_bits("00", ""),
            pbox_from_bits("", "11"),
            pbox_from_bits("10", "1"),
        ]
        out = solve_bcp(boxes, ndim=2, depth=2)
        assert sorted(out) == [(1, 2), (3, 2)]

    def test_figure_5_triangle_empty(self):
        """Figure 5: MSB-complement triangle instance has empty output."""
        d = 3
        boxes = [
            pbox_from_bits("0", "0", ""),
            pbox_from_bits("1", "1", ""),
            pbox_from_bits("", "0", "0"),
            pbox_from_bits("", "1", "1"),
            pbox_from_bits("0", "", "0"),
            pbox_from_bits("1", "", "1"),
        ]
        assert solve_bcp(boxes, ndim=3, depth=d) == []
        assert boolean_box_cover(boxes, ndim=3, depth=d)

    def test_figure_6_triangle_nonempty(self):
        """Figure 6: T' has same-MSB pairs; output is non-empty."""
        d = 2
        boxes = [
            pbox_from_bits("0", "0", ""),
            pbox_from_bits("1", "1", ""),
            pbox_from_bits("", "0", "0"),
            pbox_from_bits("", "1", "1"),
            pbox_from_bits("0", "", "1"),
            pbox_from_bits("1", "", "0"),
        ]
        out = solve_bcp(boxes, ndim=3, depth=d)
        # Output tuples: MSB(a) != MSB(b), MSB(b) != MSB(c), MSB(a) = MSB(c)
        # — impossible, wait: gaps of T' are MSB(a) != MSB(c)... the output
        # is tuples avoiding all gaps: MSB(a)!=MSB(b), MSB(b)!=MSB(c),
        # MSB(a)==MSB(c) is excluded by T' gaps ⟨0,λ,1⟩,⟨1,λ,0⟩ meaning
        # a,c must share MSB. So outputs: a,c share MSB, b differs.
        expected = [
            (a, b, c)
            for a in range(4)
            for b in range(4)
            for c in range(4)
            if (a >> 1) != (b >> 1)
            and (b >> 1) != (c >> 1)
            and (a >> 1) == (c >> 1)
        ]
        assert sorted(out) == sorted(expected)
        assert not boolean_box_cover(boxes, ndim=3, depth=d)


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(box_tuples(), max_size=10))
    def test_default_config_matches_brute_force(self, boxes):
        expected = brute_force_uncovered(boxes, NDIM, DEPTH)
        assert sorted(solve_bcp(boxes, NDIM, DEPTH)) == expected

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(box_tuples(ndim=3, depth=2), max_size=6),
        st.permutations(range(3)),
    )
    def test_all_variants_agree_3d(self, boxes, sao):
        expected = brute_force_uncovered(boxes, 3, 2)
        for preload, mode, cache in ALL_VARIANTS:
            got = solve_bcp(
                boxes, 3, 2, sao=tuple(sao), preload=preload,
                mode=mode, cache_resolvents=cache,
            )
            assert sorted(got) == expected, (preload, mode, cache)

    def test_randomized_bigger(self):
        for seed in range(5):
            boxes = random_boxes(seed, 30, 3, 4)
            expected = brute_force_uncovered(boxes, 3, 4)
            assert sorted(tetris_preloaded(boxes, 3, 4)) == expected
            assert sorted(tetris_reloaded(boxes, 3, 4)) == expected


class TestEngineAPI:
    def test_bad_sao_rejected(self):
        with pytest.raises(ValueError):
            TetrisEngine(2, 3, sao=(0, 0))

    def test_bad_ndim(self):
        with pytest.raises(ValueError):
            TetrisEngine(0, 3)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            TetrisEngine(2, -1)

    def test_sao_translation_roundtrip(self):
        eng = TetrisEngine(3, 4, sao=(2, 0, 1))
        b = pbox_from_bits("10", "0", "111")
        assert eng.to_external(eng.to_internal(b)) == b

    def test_max_outputs_truncates(self):
        eng = TetrisEngine(1, 3)
        out = eng.run(BoxSetOracle([], 1), max_outputs=3)
        assert len(out) == 3

    def test_stats_populated(self):
        stats = ResolutionStats()
        boxes = [pbox_from_bits("0", ""), pbox_from_bits("1", "0")]
        solve_bcp(boxes, 2, 3, stats=stats)
        assert stats.skeleton_calls >= 1
        assert stats.containment_queries > 0

    def test_oracle_dedups(self):
        b = pbox_from_bits("0", "")
        oracle = BoxSetOracle([b, b], 2)
        assert len(oracle) == 1

    def test_outputs_in_space_order_with_sao(self):
        # One gap box; sao reverses axes — outputs must come back in
        # the original attribute order.
        boxes = [pbox_from_bits("0", "")]  # removes x in [0,1]
        out = solve_bcp(boxes, 2, 1, sao=(1, 0))
        assert sorted(out) == [(1, 0), (1, 1)]


class PerBoxOracle(BoxSetOracle):
    """The box-at-a-time load ``BoxSetOracle`` replaced with one
    ``add_many``: check, insert, keep the box if it was new."""

    def __init__(self, boxes, ndim):
        self.ndim = ndim
        self._tree = MultilevelDyadicTree(ndim)
        self._boxes = []
        for box in boxes:
            box = check_packed(box)
            if self._tree.add(box):
                self._boxes.append(box)


class TestBoxSetOracleLoad:
    def test_boxes_are_first_seen_distinct(self):
        boxes = random_boxes(5, 30, 3, 3)
        stream = boxes + boxes[::-1] + boxes[:7]
        oracle = BoxSetOracle(stream, 3)
        assert list(oracle.boxes()) == list(dict.fromkeys(boxes))
        assert len(oracle) == len(set(boxes))
        assert list(oracle._tree) == list(PerBoxOracle(stream, 3)._tree)

    def test_pair_form_refused_before_any_box_is_stored(self, monkeypatch):
        stored = []

        class RecordingTree(MultilevelDyadicTree):
            __slots__ = ()

            def add(self, box):
                stored.append(box)
                return super().add(box)

            def add_many(self, boxes):
                boxes = list(boxes)
                stored.extend(boxes)
                return super().add_many(boxes)

        monkeypatch.setattr(tetris_module, "MultilevelDyadicTree", RecordingTree)
        with pytest.raises(TypeError, match="packed"):
            BoxSetOracle([pbox_from_bits("0", ""), ((0, 1), (0, 0))], 2)
        assert stored == []

    @pytest.mark.parametrize("seed", range(20))
    def test_solve_bcp_matches_the_per_box_load(self, seed, monkeypatch):
        boxes = random_boxes(seed, 14, 3, 3)
        boxes += boxes[:3]
        runs = []
        for oracle_class in (BoxSetOracle, PerBoxOracle):
            monkeypatch.setattr(tetris_module, "BoxSetOracle", oracle_class)
            run = []
            for sao in itertools.permutations(range(3)):
                for preload, mode in itertools.product((True, False), MODES):
                    stats = ResolutionStats()
                    points = solve_bcp(
                        boxes, 3, 3, sao=sao, preload=preload, stats=stats,
                        mode=mode,
                    )
                    run.append((points, asdict(stats)))
            runs.append(run)
        assert runs[0] == runs[1]


class TestResolutionAccounting:
    def test_no_cache_means_more_resolutions(self):
        """Dropping resolvent caching can only increase work (Thm 5.2 flavor)."""
        boxes = random_boxes(3, 25, 3, 4)
        s_cache = ResolutionStats()
        s_nocache = ResolutionStats()
        solve_bcp(boxes, 3, 4, cache_resolvents=True, stats=s_cache)
        solve_bcp(boxes, 3, 4, cache_resolvents=False, stats=s_nocache)
        assert s_nocache.resolutions >= s_cache.resolutions

    def test_all_skeleton_resolutions_are_ordered(self):
        """Lemma C.1: with a universal target every resolution is ordered."""
        for seed in range(4):
            boxes = random_boxes(seed, 20, 3, 4)
            stats = ResolutionStats()
            solve_bcp(boxes, 3, 4, stats=stats)
            assert stats.resolutions == stats.ordered_resolutions
