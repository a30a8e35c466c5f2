"""Parity matrix for the Tetris traversal modes and kernel hot-path features.

The one-pass frontier-resuming skeleton (``mode="resume"``) and the
faithful restart-per-output loop (``mode="faithful"``) must emit
identical output sets on every instance — over random packed box sets,
every dimensionality 1–4, uniform and generalized (per-axis depth)
spaces, both knowledge-base stores.
"""

import itertools

import pytest

from repro.core.resolution import ResolutionStats
from repro.core.stores import ListStore
from repro.core.tetris import (
    MODES,
    BoxSetOracle,
    FixedDepth,
    TetrisEngine,
)
from tests.helpers import brute_force_uncovered, random_boxes

MODE_IDS = list(MODES)


def run_mode(boxes, ndim, depth, mode, preload, store=None, sao=None):
    oracle = BoxSetOracle(boxes, ndim)
    kb = store(ndim) if store is not None else None
    engine = TetrisEngine(ndim, depth, sao=sao, knowledge_base=kb)
    return sorted(engine.run(oracle, preload=preload, mode=mode))


class TestModeParityUniform:
    @pytest.mark.parametrize("ndim,depth", [(1, 5), (2, 4), (3, 3), (4, 2)])
    @pytest.mark.parametrize("preload", [True, False])
    def test_modes_match_brute_force(self, ndim, depth, preload):
        for seed in range(6):
            boxes = random_boxes(seed, 4 * ndim, ndim, depth)
            expected = brute_force_uncovered(boxes, ndim, depth)
            for mode in MODES:
                got = run_mode(boxes, ndim, depth, mode, preload)
                assert got == expected, (mode, preload, seed)

    @pytest.mark.parametrize("mode", MODE_IDS)
    def test_sao_permutations_agree(self, mode):
        ndim, depth = 3, 3
        boxes = random_boxes(11, 12, ndim, depth)
        expected = brute_force_uncovered(boxes, ndim, depth)
        for sao in itertools.permutations(range(ndim)):
            got = run_mode(boxes, ndim, depth, mode, True, sao=sao)
            assert got == expected, (mode, sao)

    @pytest.mark.parametrize("mode", MODE_IDS)
    @pytest.mark.parametrize("preload", [True, False])
    def test_list_store_parity(self, mode, preload):
        ndim, depth = 3, 3
        for seed in range(4):
            boxes = random_boxes(seed, 10, ndim, depth)
            expected = brute_force_uncovered(boxes, ndim, depth)
            got = run_mode(
                boxes, ndim, depth, mode, preload, store=ListStore
            )
            assert got == expected, (mode, preload, seed)

    def test_dense_and_empty_instances(self):
        # Full cover and empty box set, every mode.
        for mode in MODES:
            assert run_mode([(1, 1)], 2, 2, mode, True) == []
            assert (
                run_mode([], 2, 2, mode, False)
                == brute_force_uncovered([], 2, 2)
            )


class TestModeParityGeneralized:
    """Per-axis FixedDepth specs exercise the generalized-dims path."""

    @pytest.mark.parametrize("preload", [True, False])
    def test_mixed_depths_match_reference(self, preload):
        depths = (2, 3, 1)
        ndim = len(depths)
        top = max(depths)
        for seed in range(4):
            # Boxes of the shallowest axis' depth fit every axis' budget.
            boxes = random_boxes(seed, 10, ndim, min(depths))
            # Reference: enumerate the mixed-depth product space.
            covered = []
            points = itertools.product(*[range(1 << d) for d in depths])
            for point in points:
                hit = any(
                    all(
                        ((1 << depths[i]) | point[i])
                        >> (depths[i] + 1 - p.bit_length()) == p
                        for i, p in enumerate(box)
                    )
                    for box in boxes
                )
                if not hit:
                    covered.append(point)
            expected = sorted(covered)
            dims = [FixedDepth(d) for d in depths]
            results = {}
            for mode in MODES:
                oracle = BoxSetOracle(boxes, ndim)
                engine = TetrisEngine(ndim, top, dims=dims)
                results[mode] = sorted(
                    engine.run(oracle, preload=preload, mode=mode)
                )
            for mode in MODES:
                assert results[mode] == expected, (mode, preload, seed)


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        engine = TetrisEngine(2, 3)
        with pytest.raises(ValueError):
            engine.run(BoxSetOracle([], 2), mode="bogus")


class TestResumeInstrumentation:
    def test_resume_counters_populated(self):
        boxes = random_boxes(9, 20, 3, 4)
        stats = ResolutionStats()
        oracle = BoxSetOracle(boxes, 3)
        engine = TetrisEngine(3, 4, stats=stats)
        engine.run(oracle, preload=False, mode="resume")
        assert stats.resumes > 0
        # Gap-loading resumes record witness depths; reloaded runs with
        # any gap box must have seen at least one.
        assert stats.witness_depth_sum > 0
        assert stats.mean_witness_depth > 0

    def test_faithful_mode_never_resumes(self):
        boxes = random_boxes(9, 20, 3, 4)
        stats = ResolutionStats()
        oracle = BoxSetOracle(boxes, 3)
        engine = TetrisEngine(3, 4, stats=stats)
        engine.run(oracle, preload=False, mode="faithful")
        assert stats.resumes == 0


class TestMaxOutputsAcrossModes:
    @pytest.mark.parametrize("mode", MODE_IDS)
    def test_cap_truncates(self, mode):
        engine = TetrisEngine(2, 3)
        out = engine.run(BoxSetOracle([], 2), mode=mode, max_outputs=5)
        assert len(out) == 5
