"""Tests for Boolean and counting joins.

A Tetris existence test or count is the any-backend cursor aggregate
with the backend forced: ``any_rows`` runs the engine capped at one
output, ``count_rows`` drains the full enumeration.
"""

import pytest

from repro.engine import execute_cursor
from repro.joins.aggregates import any_rows, count_rows, triangle_count
from repro.joins.tetris_join import join_tetris
from repro.relational.query import evaluate_reference
from repro.workloads.generators import (
    agm_tight_triangle,
    graph_triangle_db,
    split_path_instance,
)

TETRIS = "tetris-preloaded"


def cursor_stats(query, db, **kwargs):
    """The ``ResolutionStats`` of a drained forced-Tetris cursor."""
    with execute_cursor(query, db, algorithm=TETRIS, **kwargs) as cursor:
        rows = cursor.fetchall()
    return rows, cursor.stats


class TestJoinExists:
    def test_true_on_nonempty(self):
        query, db = agm_tight_triangle(2)
        assert any_rows(query, db, algorithm=TETRIS)

    def test_false_on_empty(self):
        query, db, gao = split_path_instance(40, depth=8, seed=0)
        assert not any_rows(query, db, algorithm=TETRIS, gao=gao)

    def test_early_exit_cheaper_than_enumeration(self):
        """The Boolean join must do less work than full enumeration."""
        query, db = agm_tight_triangle(8)  # Z = 512
        assert count_rows(query, db, algorithm=TETRIS) == 512
        first, s_bool = cursor_stats(query, db, limit=1)
        rows, s_full = cursor_stats(query, db)
        assert len(first) == 1 and len(rows) == 512
        assert s_bool.containment_queries < s_full.containment_queries / 4

    @pytest.mark.parametrize("index_kind", ("btree", "dyadic", "kdtree"))
    def test_callers_stats_are_the_tetris_runs(self, index_kind):
        """A forced-Tetris cursor runs the engine ``join_tetris`` runs,
        so its stats read field for field like the join's — capped at
        one output under ``limit=1``."""
        query, db = agm_tight_triangle(4)
        gao = ("B", "A", "C")
        kwargs = dict(index_kind=index_kind, gao=gao)
        assert any_rows(query, db, algorithm=TETRIS, **kwargs)
        assert count_rows(query, db, algorithm=TETRIS, **kwargs) == 64
        _, found = cursor_stats(query, db, limit=1, **kwargs)
        _, counted = cursor_stats(query, db, **kwargs)
        first = join_tetris(
            query, db, index_kind=index_kind, gao=gao, max_outputs=1
        )
        full = join_tetris(query, db, index_kind=index_kind, gao=gao)
        assert found == first.stats and found.containment_queries > 0
        assert counted == full.stats and counted.resolutions > 0


class TestJoinCount:
    def test_matches_reference(self):
        query, db = agm_tight_triangle(3)
        assert count_rows(query, db, algorithm=TETRIS) == len(
            evaluate_reference(query, db)
        )

    def test_zero_on_empty(self):
        query, db, gao = split_path_instance(20, depth=6, seed=3)
        assert count_rows(query, db, algorithm=TETRIS, gao=gao) == 0


class TestTriangleCount:
    def test_single_triangle(self):
        _, db = graph_triangle_db([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert triangle_count(db) == 1

    def test_two_triangles(self):
        _, db = graph_triangle_db(
            [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]
        )
        assert triangle_count(db) == 2

    def test_triangle_free(self):
        _, db = graph_triangle_db([(0, 1), (1, 2), (2, 3)])
        assert triangle_count(db) == 0

    def test_rejects_asymmetric(self):
        from repro.relational.query import triangle_query
        from repro.relational.relation import Relation
        from repro.relational.schema import Domain

        query = triangle_query()
        # Directed (asymmetric) edges: one directed triangle only.
        edges = [(0, 1), (1, 2), (0, 2)]
        db_relations = [
            Relation(atom, edges, Domain(2)) for atom in query.atoms
        ]
        from repro.relational.query import Database

        with pytest.raises(ValueError, match="divisible"):
            triangle_count(Database(db_relations))
