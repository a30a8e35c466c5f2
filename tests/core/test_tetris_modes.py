"""Parity matrix for the Tetris traversal modes and kernel hot-path features.

The one-pass frontier-resuming skeleton (``mode="resume"``) and the
faithful restart-per-output loop (``mode="faithful"``) must emit
identical output sets on every instance — over random packed box sets,
every dimensionality 1–4, uniform and generalized (per-axis depth)
spaces, both knowledge-base stores, with and without the bounded
resolvent-admission policy.
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
    solve_bcp,
)
from tests.helpers import brute_force_uncovered, random_boxes

MODE_IDS = list(MODES)


def run_mode(boxes, ndim, depth, mode, preload, store=None, sao=None,
             resolvent_limit=None):
    oracle = BoxSetOracle(boxes, ndim)
    kb = store(ndim) if store is not None else None
    engine = TetrisEngine(
        ndim, depth, sao=sao, knowledge_base=kb,
        resolvent_limit=resolvent_limit,
    )
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


class TestBoundedResolventAdmission:
    def test_eviction_preserves_output(self):
        # Faithful re-derives every evicted resolvent on each restart:
        # on resume's instance one cell is 7 s, so its cells run on one
        # small enough to take 0.2 s and still evict at every limit
        # (17038 / 16325 / 7399 evictions for 168 output points).
        instances = {
            "resume": (7, 40, 3, 4),
            "faithful": (7, 8, 3, 3),
        }
        assert set(instances) == set(MODES)
        for mode, (seed, count, ndim, depth) in instances.items():
            boxes = random_boxes(seed, count, ndim, depth)
            expected = sorted(solve_bcp(boxes, ndim, depth))
            assert expected
            for limit in (1, 4, 64):
                got = run_mode(
                    boxes, ndim, depth, mode, True, resolvent_limit=limit
                )
                assert got == expected, (mode, limit)

    def test_evictions_counted_and_kb_bounded(self):
        # Resume admits only resolvents wider than their frame, so it
        # takes the tightest bound to overflow (2 evictions here);
        # faithful caches every resolvent and re-derives the evicted
        # ones on each restart, so a small instance evicts >1000 times.
        cases = [
            ("resume", 1, (3, 30, 3, 4)),
            ("faithful", 8, (3, 12, 3, 3)),
        ]
        for mode, limit, (seed, count, ndim, depth) in cases:
            boxes = random_boxes(seed, count, ndim, depth)
            stats = ResolutionStats()
            oracle = BoxSetOracle(boxes, ndim)
            engine = TetrisEngine(
                ndim, depth, stats=stats, resolvent_limit=limit
            )
            baseline = len(oracle)
            got = engine.run(oracle, preload=True, mode=mode)
            assert sorted(got) == brute_force_uncovered(boxes, ndim, depth)
            assert stats.evictions > 0, mode
            # Inputs + outputs + at most `limit` cached resolvents.
            assert len(engine.knowledge_base) <= baseline + limit + (
                stats.boxes_loaded
            ), mode

    def test_list_store_eviction(self):
        ndim, depth = 2, 4
        boxes = random_boxes(5, 25, ndim, depth)
        expected = sorted(solve_bcp(boxes, ndim, depth))
        got = run_mode(
            boxes, ndim, depth, "resume", True, store=ListStore,
            resolvent_limit=2,
        )
        assert got == expected

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            TetrisEngine(2, 3, resolvent_limit=0)


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
