"""Satellite coverage: box-level oracle probes, galloping Leapfrog seeks,
and join-level parity with Algorithms 1 and 2 as printed."""

from array import array

import pytest

from repro.core.tetris import BoxSetOracle
from repro.engine.codegen import _seek
from repro.joins.hashjoin import join_hash
from repro.joins.leapfrog import iter_leapfrog, join_leapfrog
from repro.joins.tetris_join import join_tetris, make_oracle
from repro.workloads.generators import (
    graph_triangle_db,
    random_graph_edges,
    random_path_db,
)
from tests.helpers import (
    LOOPS,
    check_container_answer,
    random_boxes,
    tetris_loop,
)


class TestOracleContainer:
    def test_box_set_container_is_a_stored_container(self):
        boxes = random_boxes(8, 40, 3, 4)
        oracle = BoxSetOracle(boxes, 3)
        for probe in random_boxes(4, 60, 3, 4):
            found = oracle.container(probe)
            check_container_answer(found, probe, boxes)
            assert found is None or found in boxes

    def test_query_gap_oracle_container(self):
        query, db = graph_triangle_db(random_graph_edges(40, 120, seed=2))
        oracle, _ = make_oracle(query, db)
        depth = db.domain.depth
        gap_boxes = oracle.boxes()
        for probe in random_boxes(9, 60, len(oracle.attrs), depth):
            found = oracle.container(probe)
            check_container_answer(found, probe, gap_boxes)
            assert found is None or found in gap_boxes


class TestLeapfrogGallop:
    def test_seek_boundaries(self):
        col = array("q", [1, 1, 2, 5, 5, 5, 9, 12])
        assert _seek(col, 0, len(col), 0) == 0
        assert _seek(col, 0, len(col), 1) == 0
        assert _seek(col, 0, len(col), 2) == 2
        assert _seek(col, 0, len(col), 3) == 3
        assert _seek(col, 0, len(col), 5) == 3
        assert _seek(col, 0, len(col), 6) == 6
        assert _seek(col, 0, len(col), 13) == len(col)
        # Restricted window.
        assert _seek(col, 2, 6, 5) == 3
        assert _seek(col, 4, 6, 9) == 6

    def test_triangle_parity_with_hash(self):
        query, db = graph_triangle_db(random_graph_edges(60, 200, seed=5))
        assert join_leapfrog(query, db) == sorted(set(join_hash(query, db)))

    def test_skewed_instance_parity(self):
        # One hub node with a long sorted run — the galloping seek's
        # target shape.
        edges = [(0, i) for i in range(1, 200)]
        edges += [(i, i + 1) for i in range(1, 199)]
        query, db = graph_triangle_db(edges)
        assert join_leapfrog(query, db) == sorted(set(join_hash(query, db)))

    def test_path_parity_and_streaming(self):
        query, db = random_path_db(3, 400, seed=8, depth=9)
        expected = sorted(set(join_hash(query, db)))
        assert join_leapfrog(query, db) == expected
        # Streaming prefix agrees with the materialized output as a set.
        it = iter_leapfrog(query, db)
        prefix = [next(it) for _ in range(min(5, len(expected)))]
        assert all(row in set(expected) for row in prefix)

    def test_empty_relation(self):
        query, db = random_path_db(2, 0, seed=1, depth=4)
        assert join_leapfrog(query, db) == []

    def test_explicit_gao(self):
        query, db = graph_triangle_db(random_graph_edges(30, 80, seed=7))
        expected = sorted(set(join_hash(query, db)))
        for gao in (("x", "y", "z"), ("z", "y", "x"), ("y", "x", "z")):
            try:
                got = join_leapfrog(query, db, gao=gao)
            except ValueError:
                continue  # not a permutation of this query's variables
            assert got == expected


class TestJoinModeKnob:
    @pytest.mark.parametrize("variant", ["preloaded", "reloaded"])
    def test_all_modes_agree_at_join_level(self, variant):
        query, db = graph_triangle_db(random_graph_edges(50, 150, seed=6))
        results = {}
        for mode in LOOPS:
            with tetris_loop(mode):
                results[mode] = join_tetris(query, db, variant=variant).tuples
        assert results["resume"] == results["faithful"]
        assert results["resume"]
