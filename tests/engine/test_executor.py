"""Unified-engine correctness: auto and forced dispatch vs. the oracle.

The acceptance bar for the engine: ``execute(query, db)`` with
``algorithm="auto"`` returns tuples identical to ``evaluate_reference``
on every workload-generator query family, and every forced backend
agrees wherever it applies.
"""

import random

import pytest

from repro.engine import BACKENDS, clear_plan_cache, execute
from repro.core.resolution import ResolutionStats
from repro.joins.tetris_join import join_tetris
from repro.obs import tracing
from repro.relational.hypergraph import Hypergraph
from repro.relational.query import (
    Database,
    clique_query,
    evaluate_reference,
    star_query,
    triangle_query,
)
from repro.relational.relation import Relation
from repro.relational.schema import Domain
from repro.workloads.generators import (
    agm_tight_triangle,
    chained_path_db,
    dense_cycle_db,
    graph_triangle_db,
    random_graph_edges,
    random_path_db,
    split_cycle_instance,
    split_path_instance,
)


def random_db(query, seed, n=25, depth=5):
    rng = random.Random(seed)
    rels = []
    for atom in query.atoms:
        rows = {
            tuple(rng.randrange(1 << depth) for _ in atom.attrs)
            for _ in range(n)
        }
        rels.append(Relation(atom, rows, Domain(depth)))
    return Database(rels)


def _generator_workloads():
    out = {}
    q, db = agm_tight_triangle(4)
    out["agm_tight_triangle"] = (q, db)
    edges = random_graph_edges(30, 60, seed=3)
    q, db = graph_triangle_db(edges)
    out["graph_triangles"] = (q, db)
    q, db = random_path_db(3, 40, seed=7, depth=6)
    out["random_path"] = (q, db)
    q, db = chained_path_db(4, 30, depth=8)
    out["chained_path"] = (q, db)
    q, db, _ = split_path_instance(60, depth=8, seed=1)
    out["split_path"] = (q, db)
    q, db, _ = split_cycle_instance(40, depth=8, seed=2)
    out["split_cycle"] = (q, db)
    q, db = dense_cycle_db(4, 30, depth=6, seed=5)
    out["dense_cycle"] = (q, db)
    q = star_query(3)
    out["star"] = (q, random_db(q, 11, n=30, depth=6))
    q = clique_query(4)
    out["clique"] = (q, random_db(q, 13, n=30, depth=5))
    return out


WORKLOADS = _generator_workloads()


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_auto_matches_reference_on_generators(name):
    query, db = WORKLOADS[name]
    expected = evaluate_reference(query, db)
    result = execute(query, db, algorithm="auto")
    assert result.tuples == expected
    assert result.variables == query.variables
    assert result.backend == result.plan.backend


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_forced_backends_agree(name, backend):
    query, db = WORKLOADS[name]
    if backend == "yannakakis" and not (
        Hypergraph.of_query(query).is_alpha_acyclic()
    ):
        with pytest.raises(ValueError):
            execute(query, db, algorithm=backend)
        return
    expected = evaluate_reference(query, db)
    result = execute(query, db, algorithm=backend)
    assert result.tuples == expected, backend
    assert result.backend == backend


def test_result_shape_mirrors_join_result():
    query, db = WORKLOADS["graph_triangles"]
    result = execute(query, db)
    assert len(result) == len(result.tuples)
    assert list(iter(result)) == result.tuples
    assert isinstance(result.stats, ResolutionStats)
    assert result.elapsed >= 0.0
    assert result.plan.predicted_cost > 0


def test_index_kind_and_gao_are_honored():
    query, db = WORKLOADS["graph_triangles"]
    expected = evaluate_reference(query, db)
    for kind in ("btree", "dyadic", "kdtree"):
        result = execute(
            query, db, algorithm="tetris-preloaded", index_kind=kind,
            gao=("B", "A", "C"),
        )
        assert result.tuples == expected, kind
        assert result.gao == ("B", "A", "C")
        assert result.plan.index_kind == kind


@pytest.mark.parametrize("variant", ("preloaded", "reloaded"))
@pytest.mark.parametrize("limit, workers", [(None, None), (5, None), (None, 2)])
def test_forced_tetris_sorts_once(variant, limit, workers):
    """``join_tetris`` returns its points sorted in ``query.variables``
    order, so a forced Tetris stream is one sorted run and ``execute()``
    opens no ``sort`` span — serially, capped, or sharded on the star's
    hub (whose shard lists tile the output in order)."""
    query = star_query(3)
    db = random_db(query, 11, n=30, depth=6)
    tracer = tracing.Tracer()
    with tracing.use(tracer):
        result = execute(
            query, db, algorithm=f"tetris-{variant}", limit=limit,
            workers=workers,
        )
    assert [s.name for s in tracer.spans if s.name == "sort"] == []
    assert result.plan.num_shards == (1 if workers is None else 8)
    expected = join_tetris(query, db, variant=variant, max_outputs=limit)
    assert result.tuples == expected.tuples
    if limit is None:
        assert result.tuples == evaluate_reference(query, db)


def test_values_up_to_int64_join_and_wider_domains_are_refused():
    """``2**63 - 1`` is the largest value a column holds: every backend
    joins it (and the planner's statistics read it); a domain that could
    hold more is refused before anything is planned, where it once
    failed inside planning with a bare ``OverflowError``."""
    query = triangle_query()
    top = 2**63 - 1
    rows = {
        "R": [(0, top), (top, 1)],
        "S": [(top, 5), (1, 5)],
        "T": [(0, 5), (top, 5)],
    }
    db = Database([Relation(a, rows[a.name], Domain(63)) for a in query.atoms])
    expected = evaluate_reference(query, db)
    assert expected == [(0, top, 5), (top, 1, 5)]
    for backend in ("auto", *(b for b in BACKENDS if b != "yannakakis")):
        assert execute(query, db, algorithm=backend).tuples == expected
    with pytest.raises(ValueError, match="int64"):
        execute(query, Database([
            Relation(a, [(2**65, 0)], Domain(70)) for a in query.atoms
        ]))
