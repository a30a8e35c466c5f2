"""Integration tests: full pipelines across module boundaries.

Each test exercises a realistic end-to-end path — data loading, index
construction, structural analysis, join evaluation, proof verification —
rather than one module in isolation.
"""

import random

import pytest

from repro.core.certificates import minimal_certificate
from repro.core.resolution import ResolutionStats
from repro.core.trace import ResolutionProof
from repro.indexes.oracle import (
    QueryGapOracle,
    build_all_order_btrees,
    build_btree_indexes,
    build_dyadic_indexes,
    default_gao,
)
from repro.joins.leapfrog import join_leapfrog
from repro.joins.tetris_join import join_tetris, make_oracle
from repro.joins.yannakakis import join_yannakakis
from repro.relational.agm import agm_bound
from repro.relational.hypergraph import Hypergraph
from repro.relational.io import ValueDictionary, relation_from_rows
from repro.relational.query import (
    Database,
    JoinQuery,
    evaluate_reference,
    triangle_query,
)
from repro.relational.schema import Domain, RelationSchema
from repro.workloads.generators import (
    agm_tight_triangle,
    graph_triangle_db,
    power_law_graph_edges,
)


class TestGraphPipeline:
    def test_triangle_counting_pipeline(self):
        """Graph → dictionary encoding → indexes → Tetris → decode."""
        edges = power_law_graph_edges(60, 2, seed=3)
        named = [(f"u{a}", f"u{b}") for a, b in edges]
        dictionary = ValueDictionary()
        encoded = [dictionary.encode_row(e) for e in named]
        query, db = graph_triangle_db(encoded)
        tetris = join_tetris(query, db)
        leapfrog = join_leapfrog(query, db)
        assert tetris.tuples == leapfrog
        # Every output decodes back to graph vertices.
        for t in tetris.tuples[:10]:
            decoded = dictionary.decode_row(t)
            assert all(v.startswith("u") for v in decoded)

    def test_agm_bound_respected_on_graphs(self):
        edges = power_law_graph_edges(40, 2, seed=1)
        query, db = graph_triangle_db(edges)
        result = join_tetris(query, db)
        assert len(result) <= agm_bound(query, db) + 1e-6


class TestIndexInterchangeability:
    """Appendix B.2: any mix of indexes yields the same join."""

    def test_mixed_index_oracle(self):
        query = triangle_query()
        rng = random.Random(0)
        depth = 4
        db = Database(
            [
                Relation_(atom, rng, depth)
                for atom in query.atoms
            ]
        )
        expected = evaluate_reference(query, db)
        gao = default_gao(query)
        btrees = build_btree_indexes(query, db, gao)
        dyadics = build_dyadic_indexes(query, db)
        # Mix: R via B-tree, S via dyadic, T via both (two indexes).
        mixed = [btrees[0], dyadics[1], btrees[2], dyadics[2]]
        oracle = QueryGapOracle(query, mixed)
        from repro.core.tetris import TetrisEngine

        engine = TetrisEngine(3, depth)
        out = engine.run(oracle, preload=True)
        assert sorted(out) == expected

    def test_richer_indexes_shrink_certificate(self):
        """Adding an index can only shrink the *optimal* certificate.

        On the MSB-complement relation (Figure 5a) the (A,B) B-tree alone
        needs Θ(2^{d-1}) boxes while adding the quadtree's two coarse
        boxes collapses the certificate to 2 (Example B.8).
        """
        from repro.indexes.btree import BTreeIndex
        from repro.indexes.dyadic_index import DyadicTreeIndex
        from repro.relational.relation import Relation

        depth, side = 3, 8
        msb = [
            (a, b)
            for a in range(side)
            for b in range(side)
            if (a >> 2) != (b >> 2)
        ]
        rel = Relation(
            RelationSchema("R", ("A", "B")), msb, Domain(depth)
        )
        bt = [b for b, _ in BTreeIndex(rel, ("A", "B")).gap_boxes()]
        quad = [b for b, _ in DyadicTreeIndex(rel).gap_boxes()]
        cert_single = minimal_certificate(bt, 2, depth)
        cert_multi = minimal_certificate(bt + quad, 2, depth)
        assert len(cert_multi) == 2
        assert len(cert_multi) < len(cert_single)

    def test_all_order_btrees_build(self):
        """Every sort order per atom loads into one oracle (Example B.7)."""
        query = triangle_query()
        rng = random.Random(5)
        depth = 3
        db = Database(
            [Relation_(atom, rng, depth) for atom in query.atoms]
        )
        multi = QueryGapOracle(query, build_all_order_btrees(query, db))
        assert len(multi.indexes) == 6  # two orders × three atoms
        expected = evaluate_reference(query, db)
        from repro.core.tetris import TetrisEngine

        engine = TetrisEngine(3, depth)
        out = engine.run(multi, preload=True)
        assert sorted(out) == expected


def Relation_(atom, rng, depth):
    from repro.relational.relation import Relation

    rows = {
        tuple(rng.randrange(1 << depth) for _ in atom.attrs)
        for _ in range(6)
    }
    return Relation(atom, rows, Domain(depth))


class TestProofPipeline:
    def test_join_produces_verifiable_proof(self):
        """The engine's internal reasoning is a valid resolution proof."""
        query, db = agm_tight_triangle(3)
        oracle, gao = make_oracle(query, db)
        from repro.core.tetris import TetrisEngine

        engine = TetrisEngine(
            3, db.domain.depth,
            sao=tuple(oracle.attrs.index(a) for a in gao),
        )
        engine.proof = ResolutionProof()
        out = engine.run(oracle, preload=True)
        assert sorted(out) == evaluate_reference(query, db)
        engine.proof.verify()
        assert engine.proof.is_ordered()


class TestWidthDrivenDispatch:
    """The structural analysis selects the right SAO per Table 1 row."""

    def test_acyclic_gets_gyo_order(self):
        from repro.relational.query import path_query

        gao = default_gao(path_query(3))
        h = Hypergraph.of_query(path_query(3))
        assert h.induced_width(gao) == 1

    def test_cyclic_gets_treewidth_order(self):
        gao = default_gao(triangle_query())
        h = Hypergraph.of_query(triangle_query())
        assert h.induced_width(gao) == 2


class TestLargerQueries:
    def test_five_atom_query(self):
        """A 5-atom, 5-variable mixed query, all algorithms agree."""
        atoms = [
            RelationSchema("R1", ("A", "B")),
            RelationSchema("R2", ("B", "C")),
            RelationSchema("R3", ("C", "D")),
            RelationSchema("R4", ("D", "E")),
            RelationSchema("R5", ("B", "D")),
        ]
        query = JoinQuery(atoms)
        rng = random.Random(11)
        depth = 3
        db = Database(
            [Relation_(atom, rng, depth) for atom in atoms]
        )
        expected = evaluate_reference(query, db)
        assert join_tetris(query, db).tuples == expected
        assert join_leapfrog(query, db) == expected
        assert (
            join_tetris(query, db, variant="reloaded").tuples == expected
        )

    def test_ternary_relation_query(self):
        """Non-binary atoms: R(A,B,C) ⋈ S(C,D) exercises arity-3 paths."""
        atoms = [
            RelationSchema("R", ("A", "B", "C")),
            RelationSchema("S", ("C", "D")),
        ]
        query = JoinQuery(atoms)
        rng = random.Random(2)
        depth = 3
        db = Database([Relation_(atom, rng, depth) for atom in atoms])
        expected = evaluate_reference(query, db)
        assert join_tetris(query, db).tuples == expected
        assert join_yannakakis(query, db) == expected
        assert join_leapfrog(query, db) == expected
