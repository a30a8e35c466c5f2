"""Parity matrix for the Tetris loop against Algorithms 1 and 2 as printed.

The one loop in ``src/`` — the generated frontier-resuming kernel
(``"resume"``) — and the printed restart-per-output Algorithm 2 kept in
``tests/helpers.py`` (``"faithful"``) must emit identical output sets
on every instance: over random packed box sets, every dimensionality
1–4, uniform and generalized (per-axis depth) spaces, both
knowledge-base stores.
"""

import itertools

import pytest

from repro.core.resolution import ResolutionStats
from repro.core.stores import ListStore
from repro.core.tetris import BoxSetOracle, FixedDepth, TetrisEngine
from repro.joins.tetris_join import join_tetris
from repro.workloads.generators import graph_triangle_db, random_graph_edges
from tests.helpers import (
    LOOPS,
    brute_force_uncovered,
    random_boxes,
    tetris_loop,
)


def run_mode(boxes, ndim, depth, mode, preload, store=None, sao=None):
    oracle = BoxSetOracle(boxes, ndim)
    kb = store(ndim) if store is not None else None
    engine = TetrisEngine(ndim, depth, sao=sao, knowledge_base=kb)
    with tetris_loop(mode):
        return sorted(engine.run(oracle, preload=preload))


class TestModeParityUniform:
    @pytest.mark.parametrize("ndim,depth", [(1, 5), (2, 4), (3, 3), (4, 2)])
    @pytest.mark.parametrize("preload", [True, False])
    def test_modes_match_brute_force(self, ndim, depth, preload):
        for seed in range(6):
            boxes = random_boxes(seed, 4 * ndim, ndim, depth)
            expected = brute_force_uncovered(boxes, ndim, depth)
            for mode in LOOPS:
                got = run_mode(boxes, ndim, depth, mode, preload)
                assert got == expected, (mode, preload, seed)

    @pytest.mark.parametrize("mode", LOOPS)
    def test_sao_permutations_agree(self, mode):
        ndim, depth = 3, 3
        boxes = random_boxes(11, 12, ndim, depth)
        expected = brute_force_uncovered(boxes, ndim, depth)
        for sao in itertools.permutations(range(ndim)):
            got = run_mode(boxes, ndim, depth, mode, True, sao=sao)
            assert got == expected, (mode, sao)

    @pytest.mark.parametrize("mode", LOOPS)
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
        for mode in LOOPS:
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
            for mode in LOOPS:
                oracle = BoxSetOracle(boxes, ndim)
                engine = TetrisEngine(ndim, top, dims=dims)
                with tetris_loop(mode):
                    results[mode] = sorted(
                        engine.run(oracle, preload=preload)
                    )
            for mode in LOOPS:
                assert results[mode] == expected, (mode, preload, seed)


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        """There is one loop: no entry point takes a ``mode``."""
        engine = TetrisEngine(2, 3)
        with pytest.raises(TypeError, match="mode"):
            engine.run(BoxSetOracle([], 2), mode="faithful")
        with pytest.raises(TypeError, match="mode"):
            join_tetris(*graph_triangle_db([(0, 1)]), mode="resume")
        with pytest.raises(ValueError, match="unknown Tetris loop"):
            tetris_loop("bogus")


class TestResumeInstrumentation:
    def test_resume_counters_populated(self):
        boxes = random_boxes(9, 20, 3, 4)
        stats = ResolutionStats()
        oracle = BoxSetOracle(boxes, 3)
        engine = TetrisEngine(3, 4, stats=stats)
        engine.run(oracle, preload=False)
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
        with tetris_loop("faithful"):
            engine.run(oracle, preload=False)
        assert stats.resumes == 0
        assert stats.skeleton_calls > 1  # one restart per loaded point


class TestMaxOutputsAcrossModes:
    @pytest.mark.parametrize("mode", LOOPS)
    def test_cap_truncates(self, mode):
        with tetris_loop(mode):
            engine = TetrisEngine(2, 3)
            out = engine.run(BoxSetOracle([], 2), max_outputs=5)
            assert len(out) == 5
            # A zero cap returns nothing; a negative one is refused.
            assert TetrisEngine(2, 3).run(
                BoxSetOracle([], 2), max_outputs=0
            ) == []
            with pytest.raises(ValueError, match="non-negative"):
                TetrisEngine(2, 3).run(BoxSetOracle([], 2), max_outputs=-1)
            query, db = graph_triangle_db(random_graph_edges(30, 90, seed=4))
            for variant in ("preloaded", "reloaded"):
                assert join_tetris(
                    query, db, variant=variant, max_outputs=0,
                ).tuples == []
                assert len(join_tetris(
                    query, db, variant=variant, max_outputs=3,
                ).tuples) == 3
