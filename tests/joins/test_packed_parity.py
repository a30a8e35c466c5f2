"""End-to-end parity of the packed pipeline.

Every layer between the indexes and the engine runs on packed
marker-bit boxes; these tests pin the end-to-end contract:

* randomized (seeded) cross-validation of ``join_tetris`` against the
  reference evaluator over **all variants × index kinds**;
* ``solve_bcp`` on packed boxes agreeing with the brute-force reference;
* the lazy oracle path (reloaded) agreeing with the materialized path
  (preloaded) on the same instance.
"""

import random

import pytest

from repro.core.tetris import solve_bcp
from repro.joins.tetris_join import join_tetris
from repro.relational.query import (
    Database,
    cycle_query,
    evaluate_reference,
    path_query,
    star_query,
    triangle_query,
)
from repro.relational.relation import Relation
from repro.relational.schema import Domain
from tests.helpers import brute_force_uncovered, random_boxes

DEPTH = 4

QUERIES = {
    "triangle": triangle_query(),
    "path3": path_query(3),
    "star3": star_query(3),
    "cycle4": cycle_query(4),
}

VARIANTS = ("preloaded", "reloaded")
INDEX_KINDS = ("btree", "dyadic", "kdtree")


def random_db(query, seed, tuples_per_relation=10, depth=DEPTH):
    rng = random.Random(seed)
    rels = []
    for atom in query.atoms:
        rows = {
            tuple(rng.randrange(1 << depth) for _ in atom.attrs)
            for _ in range(tuples_per_relation)
        }
        rels.append(Relation(atom, rows, Domain(depth)))
    return Database(rels)


@pytest.mark.parametrize("qname", sorted(QUERIES))
@pytest.mark.parametrize("seed", range(3))
def test_join_parity_all_variants_and_indexes(qname, seed):
    """Every variant × index kind reproduces the reference join output."""
    query = QUERIES[qname]
    db = random_db(query, seed)
    expected = evaluate_reference(query, db)
    for variant in VARIANTS:
        for kind in INDEX_KINDS:
            got = join_tetris(query, db, variant=variant, index_kind=kind)
            assert got.tuples == expected, (qname, seed, variant, kind)


@pytest.mark.parametrize("seed", range(5))
def test_solve_bcp_on_packed_inputs(seed):
    """Packed boxes solve to the brute-force BCP output."""
    boxes = random_boxes(seed, 20, 3, DEPTH)
    expected = brute_force_uncovered(boxes, 3, DEPTH)
    assert sorted(solve_bcp(boxes, 3, DEPTH)) == expected


@pytest.mark.parametrize("seed", range(3))
def test_lazy_oracle_agrees_with_materialized(seed):
    """Reloaded (lazy packed probes) equals preloaded (materialized)."""
    query = triangle_query()
    db = random_db(seed=seed, query=query, tuples_per_relation=8)
    for kind in INDEX_KINDS:
        pre = join_tetris(query, db, variant="preloaded", index_kind=kind)
        re = join_tetris(query, db, variant="reloaded", index_kind=kind)
        assert pre.tuples == re.tuples, (seed, kind)


def test_empty_and_dense_edges():
    """Depth-0-free edge shapes: empty relation and full cross product."""
    query = triangle_query()
    empty_db = Database(
        [
            Relation(query.atoms[0], [], Domain(2)),
            Relation(query.atoms[1], [(0, 0)], Domain(2)),
            Relation(query.atoms[2], [(0, 0)], Domain(2)),
        ]
    )
    for variant in VARIANTS:
        for kind in INDEX_KINDS:
            assert join_tetris(
                query, empty_db, variant=variant, index_kind=kind
            ).tuples == []

    pairs = [(i, j) for i in range(4) for j in range(4)]
    dense_db = Database(
        [Relation(atom, pairs, Domain(2)) for atom in query.atoms]
    )
    expected = evaluate_reference(query, dense_db)
    assert len(expected) == 64
    for variant in VARIANTS:
        for kind in INDEX_KINDS:
            assert join_tetris(
                query, dense_db, variant=variant, index_kind=kind
            ).tuples == expected
