"""Tests for workload generators and hard instances."""

from collections import Counter

import pytest

from repro.core.certificates import minimal_certificate
from repro.core.resolution import ResolutionStats
from repro.core.tetris import boolean_box_cover, solve_bcp
from repro.joins.tetris_join import join_tetris, make_oracle
from repro.relational.query import evaluate_reference
from repro.workloads.generators import (
    agm_tight_triangle,
    chained_path_db,
    dense_cycle_db,
    graph_triangle_db,
    power_law_graph_edges,
    random_graph_edges,
    random_path_db,
    split_cycle_instance,
    split_path_instance,
)
from repro.workloads.hard_instances import (
    covering_pair_instance,
    example_f1,
    msb_join,
    msb_relation,
    msb_triangle,
    shared_suffix_instance,
    staircase_instance,
)
from tests.helpers import brute_force_uncovered


class TestHardInstances:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_example_f1_covers_space(self, d):
        boxes = example_f1(d)
        assert len(boxes) == 6 * (1 << (d - 2))
        assert boolean_box_cover(boxes, 3, d)

    def test_example_f1_too_shallow(self):
        with pytest.raises(ValueError):
            example_f1(2)

    def test_example_f1_exact_complement(self):
        # Independently verify that C1 covers ⟨0,λ,λ⟩ etc. at d=3.
        boxes = example_f1(3)
        assert brute_force_uncovered(boxes, 3, 3) == []

    def test_msb_triangle_empty(self):
        boxes = msb_triangle(3)
        assert boolean_box_cover(boxes, 3, 3)

    @pytest.mark.parametrize("nonempty", [False, True])
    def test_msb_join_is_msb_triangle(self, nonempty):
        """The relations' dyadic gap boxes, lifted, are the hand-written
        Figure 5 / 6 boxes: two per relation at every d."""
        for d in (1, 3, 5):
            query, db = msb_join(d, nonempty=nonempty)
            oracle, _ = make_oracle(query, db, index_kind="dyadic")
            assert sorted(oracle.boxes()) == sorted(msb_triangle(d, nonempty))
            assert set(db["R"]) == set(msb_relation(d))
            assert len(db["R"]) == 1 << (2 * d - 1)

    def test_msb_triangle_nonempty(self):
        boxes = msb_triangle(2, nonempty=True)
        out = solve_bcp(boxes, 3, 2)
        assert out  # Figure 6 has output tuples
        for a, b, c in out:
            assert (a >> 1) != (b >> 1)
            assert (b >> 1) != (c >> 1)
            assert (a >> 1) == (c >> 1)

    def test_shared_suffix_cache_separation(self):
        """Caching collapses the (B,C) proof; no caching rebuilds per a."""
        d = 2
        boxes = shared_suffix_instance(d)
        cached = ResolutionStats()
        uncached = ResolutionStats()
        assert solve_bcp(boxes, 3, d, stats=cached) == []
        assert solve_bcp(
            boxes, 3, d, cache_resolvents=False, stats=uncached
        ) == []
        # The separation must be at least a factor of ~2^{d-1}.
        assert uncached.resolutions >= 2 * cached.resolutions

    def test_staircase_shape(self):
        boxes = staircase_instance(3, 3)
        assert all(len(b) == 3 for b in boxes)
        assert not boolean_box_cover(boxes, 3, 3)

    def test_staircase_needs_two_dims(self):
        with pytest.raises(ValueError):
            staircase_instance(1, 3)

    def test_covering_pair_certificate(self):
        boxes = covering_pair_instance(4, n=2)
        cert = minimal_certificate(boxes, 2, 4)
        assert len(cert) == 2


class TestGenerators:
    def test_agm_tight_output_size(self):
        query, db = agm_tight_triangle(3)
        out = evaluate_reference(query, db)
        assert len(out) == 27  # m³ = N^{3/2}
        assert db.total_tuples == 3 * 9

    def test_agm_tight_tetris_agrees(self):
        query, db = agm_tight_triangle(2)
        assert join_tetris(query, db).tuples == \
            evaluate_reference(query, db)

    def test_graph_triangle(self):
        # A single triangle 0-1-2 plus a dangling edge.
        query, db = graph_triangle_db([(0, 1), (1, 2), (0, 2), (2, 3)])
        out = join_tetris(query, db).tuples
        # All 6 orientations of the triangle appear.
        assert (0, 1, 2) in out and (2, 1, 0) in out
        assert len(out) == 6

    def test_random_graph_edges(self):
        edges = random_graph_edges(10, 15, seed=1)
        assert len(edges) == 15
        assert all(a < b for a, b in edges)

    def test_power_law_edges(self):
        edges = power_law_graph_edges(30, 2, seed=1)
        assert len(edges) == (30 - 2) * 2
        assert all(a < b for a, b in edges)  # no self-loop
        assert len(set(edges)) == len(edges)  # no duplicate
        assert power_law_graph_edges(30, 2, seed=1) == edges
        assert power_law_graph_edges(30, 2, seed=2) != edges
        n = 2000
        degree = Counter(v for edge in power_law_graph_edges(n, 3, seed=5)
                         for v in edge)
        # Preferential attachment reads 18-24x here; uniform attachment
        # of the same edge count reads 4-6x.
        assert max(degree.values()) >= 10 * (sum(degree.values()) / n)

    def test_random_path_db(self):
        query, db = random_path_db(3, 10, seed=0, depth=5)
        assert len(query.atoms) == 3
        assert db.total_tuples <= 30

    def test_chained_path_output(self):
        query, db = chained_path_db(3, chain_values=5)
        out = evaluate_reference(query, db)
        assert out == [(v,) * 4 for v in range(5)]

    def test_split_path_empty_join_small_cert(self):
        query, db, gao = split_path_instance(50, depth=6, seed=3)
        result = join_tetris(query, db, variant="reloaded", gao=gao)
        assert result.tuples == []
        # The whole point: only O(1) boxes needed from the oracle.
        assert result.stats.boxes_loaded <= 8

    def test_split_cycle_empty_join(self):
        query, db, gao = split_cycle_instance(30, depth=5, seed=2)
        result = join_tetris(query, db, variant="reloaded", gao=gao)
        assert result.tuples == []

    def test_dense_cycle(self):
        query, db = dense_cycle_db(4, 20, depth=4, seed=0)
        got = join_tetris(query, db).tuples
        assert got == evaluate_reference(query, db)
