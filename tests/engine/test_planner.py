"""Planner decision tests: Table 1 as executable expectations.

Each case pins the backend the cost model must choose on a concrete
instance of one of the paper's query shapes.  ``auto`` prices two
backends — hash and leapfrog — and the two Tetris variants,
``nested-loop`` and ``yannakakis`` run only when forced.  The
expectations encode *measured* reality on this codebase, not just the
asymptotic table: each was derived by racing the forced backends
through ``execute()`` on the block kernels (median of 7, ms — hash /
leapfrog / yannakakis, the last for reference only and ``—`` on a
cyclic query, where it does not run):

    triangle_sparse      0.25 / 0.28 / —        hash (a tie)
    triangle_agm_tight   0.28 / 0.33 / —        hash
    path3                0.30 / 0.30 / 0.46     hash (a tie)
    star4_uniform        0.30 / 0.29 / 0.59     hash (a tie)
    cycle4_dense         0.35 / 0.33 / —        hash (a tie)
    clique4              0.75 / 1.90 / —        hash
    path4_chained        0.70 / 4.53 / 4.52     hash
    path2_split_cert     0.83 / 0.06 / 2.66     leapfrog under the
                         certificate's order (tetris-reloaded 0.10:
                         both touch O(1) of the N = 4,000 rows)
    star4_skewed_hub     plan-only (Ẑ ≈ 17M rows); the same generator
                         at n = 60 / 90 (Z = 170k / 791k) races
                         10.3 / 9.8 / 79.3 and 67.5–82.1 / 67.5–74.2 /
                         414–640 (three runs): hash in the query's atom
                         order, 0–10 % behind leapfrog — both bind
                         ``query.variables`` in order, so each star is
                         one ``itertools.product`` per hub value and
                         needs no sort; Yannakakis runs the same
                         generated cascade as hash after its semijoin
                         passes, and then sorts a set-ordered stream.

The ``mix_*`` cases are the benchmark's ``auto_mix`` shapes at
benchmark sizes, asserted plan-only (a 240k-row join is not a unit
test) and raced once on these very instances:

    mix_triangle_sparse      28.0 / 118.6 / —      hash
    mix_triangle_agm_tight   9.8–10.2 / 12.7–13.9 / —   hash in the
                             query's atom order, which binds
                             ``query.variables`` and needs no sort
                             (three runs)
    mix_path3                19.9 / 65.5 / 96.9    hash
    mix_star4                24.5–37.6 / 22.6–35.4 / 135–207   hash
                             in the query's atom order (three runs:
                             6–8 % behind leapfrog in two, 23 % ahead
                             in one) — the model prices hash's cascade
                             below leapfrog's candidates, neither sorts
    mix_cycle4               2.2 / 12.7 / —        hash
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import codegen, cost, executor, planner, stats
from repro.engine import (
    Plan,
    clear_plan_cache,
    execute,
    plan_cache_info,
    plan_query,
    structure_of,
)
from repro.joins.hashjoin import binding_order, connected_order, iter_hash
from repro.relational.query import (
    Database,
    JoinQuery,
    clique_query,
    cycle_query,
    path_query,
    star_query,
    triangle_query,
)
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema
from repro.workloads.generators import (
    agm_tight_triangle,
    chained_path_db,
    dense_cycle_db,
    graph_triangle_db,
    random_graph_edges,
    split_path_instance,
)


def random_db(query, seed, n=30, depth=5):
    rng = random.Random(seed)
    rels = []
    for atom in query.atoms:
        rows = {
            tuple(rng.randrange(1 << depth) for _ in atom.attrs)
            for _ in range(n)
        }
        rels.append(Relation(atom, rows, Domain(depth)))
    return Database(rels)


def skewed_star_db(rays=4, n=200, hub_values=4, depth=8, seed=0):
    """A star whose hub attribute has very few distinct values.

    Every ray joins every other on the hub, so the output is ≈ n⁴/hub³
    rows; hash in the query's atom order emits it as one
    ``itertools.product`` per hub value and needs no sort.
    """
    rng = random.Random(seed)
    query = star_query(rays)
    rels = []
    for atom in query.atoms:
        rows = {
            (rng.randrange(hub_values), rng.randrange(1 << depth))
            for _ in range(n)
        }
        rels.append(Relation(atom, rows, Domain(depth)))
    return query, Database(rels)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _case_triangle_sparse():
    q = triangle_query()
    return q, random_db(q, 1), "hash"


def _case_triangle_agm_tight():
    q, db = agm_tight_triangle(6)
    return q, db, "hash"


def _case_path():
    q = path_query(3)
    return q, random_db(q, 2, n=60, depth=6), "hash"


def _case_star_uniform():
    q = star_query(4)
    return q, random_db(q, 3, n=60, depth=6), "hash"


def _case_star_skewed_hub():
    q, db = skewed_star_db()
    return q, db, "hash"


def _case_cycle():
    q, db = dense_cycle_db(4, 60, depth=6, seed=5)
    return q, db, "hash"


def _case_clique():
    q = clique_query(4)
    return q, random_db(q, 13, n=200, depth=6), "hash"


def _case_chained_path():
    q, db = chained_path_db(4, 700, depth=10)
    return q, db, "hash"


def _case_split_certificate():
    q, db, _ = split_path_instance(2000, depth=12, seed=1)
    return q, db, "leapfrog"


def _case_mix_triangle_sparse():
    q, db = graph_triangle_db(random_graph_edges(400, 5000, seed=1))
    return q, db, "hash"


def _case_mix_triangle_agm_tight():
    q, db = agm_tight_triangle(40)
    return q, db, "hash"


def _case_mix_path3():
    q = path_query(3)
    return q, random_db(q, 2, n=4000, depth=10), "hash"


def _case_mix_star4():
    q = star_query(4)
    return q, random_db(q, 3, n=4000, depth=10), "hash"


def _case_mix_cycle4():
    q = cycle_query(4)
    return q, random_db(q, 5, n=900, depth=8), "hash"


DECISION_CASES = {
    "triangle_sparse": _case_triangle_sparse,
    "triangle_agm_tight": _case_triangle_agm_tight,
    "path3": _case_path,
    "star4_uniform": _case_star_uniform,
    "star4_skewed_hub": _case_star_skewed_hub,
    "cycle4_dense": _case_cycle,
    "clique4": _case_clique,
    "path4_chained": _case_chained_path,
    "path2_split_cert": _case_split_certificate,
    "mix_triangle_sparse": _case_mix_triangle_sparse,
    "mix_triangle_agm_tight": _case_mix_triangle_agm_tight,
    "mix_path3": _case_mix_path3,
    "mix_star4": _case_mix_star4,
    "mix_cycle4": _case_mix_cycle4,
}

#: Cases whose plan must bind ``query.variables`` in order — hash in the
#: query's atom order, leapfrog under that GAO — so nothing sorts.
EMITS_IN_OUTPUT_ORDER = {
    "star4_skewed_hub", "mix_triangle_agm_tight", "mix_star4",
}


@pytest.mark.parametrize("name", sorted(DECISION_CASES))
def test_backend_decisions(name):
    query, db, expected = DECISION_CASES[name]()
    plan = plan_query(query, db)
    assert plan.backend == expected, (
        f"{name}: chose {plan.backend}, expected {expected}\n"
        + "\n".join(
            f"  {c.backend}: {c.cost:g}" for c in plan.candidates
        )
    )
    # The chosen estimate is the cheapest candidate.
    assert plan.predicted_cost == min(c.cost for c in plan.candidates)
    if name in EMITS_IN_OUTPUT_ORDER:
        assert plan.gao == query.variables
        assert plan.chosen.sort == 0.0


def _case_disconnected():
    """R(A,B) ⋈ S(B,C) beside an unrelated T(D,E) of middling size: a
    pure size sort would cross R with T before reaching S."""
    rng = random.Random(4)
    schemas = [
        RelationSchema("R", ("A", "B")),
        RelationSchema("S", ("B", "C")),
        RelationSchema("T", ("D", "E")),
    ]
    rels = [
        Relation(
            schema, {(rng.randrange(16), rng.randrange(16))
                     for _ in range(n)}, Domain(4),
        )
        for schema, n in zip(schemas, (5, 60, 20))
    ]
    return JoinQuery(schemas), Database(rels), None


@pytest.mark.parametrize("name", sorted(DECISION_CASES) + ["disconnected"])
def test_priced_hash_order_is_the_order_that_runs(name, monkeypatch):
    """The hash estimate's GAO is the binding order of the atom order
    ``iter_hash`` runs — so the plan priced is the plan run: the
    query's own order with no sort term, or the size-ascending order the
    cost model ranked as ``left_deep_order`` ranks the same sizes and
    joined with the same ``connected_order``.  The plan carries that
    order, and ``execute(plan=...)`` runs it."""
    case = DECISION_CASES.get(name, _case_disconnected)
    query, db, _ = case()
    priced, ran = [], []

    def pricing(ranking, attrs):
        order = connected_order(ranking, attrs)
        priced.append([query.atoms[i].name for i in order])
        return order

    def building(specs, variables):
        ran.append([atom for atom, _ in specs])
        return hash_kernel(specs, variables)

    hash_kernel = codegen.hash_kernel
    monkeypatch.setattr(cost, "connected_order", pricing)
    monkeypatch.setattr(codegen, "hash_kernel", building)
    monkeypatch.setattr(executor, "hash_kernel", building)
    plan = plan_query(query, db, algorithm="hash")
    next(iter_hash(query, db), None)
    assert len(ran) == 1 and binding_order(query, ran[0]) == plan.gao
    assert [atom for atom, _ in plan.atom_order] == ran[0]
    execute(query, db, plan=plan, limit=1)
    assert ran[1] == ran[0]
    if plan.gao == query.variables:
        assert ran[0] == [a.name for a in query.atoms]
        assert plan.chosen.sort == 0.0
    else:
        assert ran[0] == priced[0]
    if name == "disconnected":
        assert ran[0] == ["R", "S", "T"]


@pytest.mark.parametrize(
    "algorithm,backend,variant",
    [
        ("tetris", "tetris-preloaded", "preloaded"),
        ("tetris-reloaded", "tetris-reloaded", "reloaded"),
        ("leapfrog", "leapfrog", None),
        ("hash", "hash", None),
    ],
)
def test_forced_backend(algorithm, backend, variant):
    q = triangle_query()
    db = random_db(q, 1)
    plan = plan_query(q, db, algorithm=algorithm)
    assert plan.backend == backend
    assert plan.variant == variant


def test_forced_inapplicable_backend_rejected():
    q = triangle_query()
    db = random_db(q, 1)
    with pytest.raises(ValueError, match="not applicable"):
        plan_query(q, db, algorithm="yannakakis")


def test_unknown_algorithm_rejected():
    q = triangle_query()
    with pytest.raises(ValueError, match="unknown algorithm"):
        plan_query(q, random_db(q, 1), algorithm="quantum")


@pytest.mark.parametrize("algorithm", ["auto", "hash", "tetris-reloaded"])
def test_unknown_index_kind_rejected_at_plan_time(algorithm):
    """An index kind outside ``INDEX_KINDS`` never reaches a plan, or a
    run: every backend refuses it, ``auto`` included."""
    from repro.engine.executor import execute
    from repro.engine.planner import INDEX_KINDS

    q = triangle_query()
    db = random_db(q, 1)
    message = (
        "unknown index kind 'bogus'; expected one of btree, dyadic, kdtree"
    )
    with pytest.raises(ValueError, match=message):
        plan_query(q, db, algorithm=algorithm, index_kind="bogus")
    with pytest.raises(ValueError, match=message):
        execute(q, db, algorithm=algorithm, index_kind="bogus")
    for kind in INDEX_KINDS:
        plan = plan_query(q, db, algorithm=algorithm, index_kind=kind)
        assert plan.index_kind == kind


def test_plan_cache_hits_on_identical_stats():
    q = triangle_query()
    db = random_db(q, 1)
    first = plan_query(q, db)
    second = plan_query(q, db)
    assert not first.cache_hit
    assert second.cache_hit
    assert second.backend == first.backend
    info = plan_cache_info()
    assert info["hits"] >= 1
    # Content-keyed: a database with identical statistics hits too.
    clone = Database(
        [
            Relation(atom, db[atom.name].tuples(), db.domain)
            for atom in q.atoms
        ]
    )
    third = plan_query(q, clone)
    assert third.cache_hit


@pytest.mark.parametrize(
    "record", ["Plan", "CostEstimate", "RelationProfile", "QueryStats"]
)
def test_planner_records_are_immutable(record):
    """The planner's records are built through their slots, not the
    dataclass ``__init__``, yet stay frozen dataclasses: assigning any
    field raises, ``dataclasses.fields`` / ``replace`` work on a plan
    and its stats, and a plan served from the cache twice is the first
    with ``cache_hit`` set."""
    q = triangle_query()
    db = random_db(q, 1)
    first = plan_query(q, db)
    obj = {
        "Plan": first,
        "CostEstimate": first.chosen,
        "RelationProfile": first.stats.relations[0],
        "QueryStats": first.stats,
    }[record]
    assert type(obj).__name__ == record
    names = [f.name for f in dataclasses.fields(obj)]
    assert names
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    copy = dataclasses.replace(obj)
    assert copy == obj and copy is not obj
    assert [getattr(copy, n) for n in names] == [
        getattr(obj, n) for n in names
    ]
    if record == "Plan":
        assert dataclasses.replace(obj, workers=3).workers == 3
        hits = [plan_query(q, db), plan_query(q, db)]
        assert not first.cache_hit
        assert all(hit.cache_hit for hit in hits)
        assert hits[0] == hits[1] == dataclasses.replace(
            first, cache_hit=True
        )
    if record == "QueryStats":
        assert dataclasses.replace(obj, agm=1.0).agm == 1.0
        assert obj.relation(obj.relations[1].name) is obj.relations[1]


def test_plan_cache_misses_on_changed_stats():
    q = triangle_query()
    db1 = random_db(q, 1)
    db2 = random_db(q, 2)
    plan_query(q, db1)
    other = plan_query(q, db2)
    assert not other.cache_hit


def test_calibration_hook_changes_the_decision(monkeypatch):
    """Recalibrating leapfrog's constant flips the split instance, where
    the value-range overlap prices leapfrog's candidates near zero."""
    query, db, gao = split_path_instance(400, depth=12, seed=1)
    default = plan_query(query, db, gao=gao, use_cache=False)
    assert default.backend == "leapfrog"
    monkeypatch.setitem(cost.DEFAULT_CALIBRATION, "leapfrog", 10.0)
    plan = plan_query(query, db, gao=gao, use_cache=False)
    assert plan.backend == "hash"


def test_structure_profile_matches_known_shapes():
    tri = structure_of(triangle_query())
    assert not tri.acyclic
    assert tri.treewidth == 2
    assert tri.fhtw_upper == pytest.approx(1.5)
    p = structure_of(path_query(3))
    assert p.acyclic
    assert p.treewidth == 1
    assert p.fhtw_upper == 1.0


def test_plan_without_data_uses_assumed_stats():
    plan = plan_query(path_query(2), assumed_rows=64)
    assert plan.stats.assumed
    assert plan.stats.relations[0].cardinality == 64
    assert plan.backend  # some candidate was chosen


def test_gao_override_is_recorded():
    q = triangle_query()
    db = random_db(q, 1)
    plan = plan_query(q, db, gao=("B", "A", "C"))
    assert plan.gao == ("B", "A", "C")


def test_bad_gao_rejected():
    q = triangle_query()
    db = random_db(q, 1)
    with pytest.raises(ValueError, match="not a permutation"):
        plan_query(q, db, gao=("B", "A"))


# -- the shape memo ----------------------------------------------------------


def _count_structure_calls(monkeypatch):
    """Signatures :func:`structure_of` is called on, through the planner."""
    calls = []

    def counting(query):
        calls.append(query.signature)
        return structure_of(query)

    monkeypatch.setattr(planner, "structure_of", counting)
    return calls


def test_clear_plan_cache_empties_the_structure_memo(monkeypatch):
    calls = _count_structure_calls(monkeypatch)
    q = triangle_query()
    plan_query(q, random_db(q, 1))
    plan_query(q, random_db(q, 2))
    assert len(calls) == 1
    assert len(stats._SHAPE_MEMO) == 1
    clear_plan_cache()
    assert len(stats._SHAPE_MEMO) == 0
    plan_query(q, random_db(q, 3))
    assert len(calls) == 2


def test_structure_memo_evicts_least_recently_used(monkeypatch):
    calls = _count_structure_calls(monkeypatch)
    monkeypatch.setattr(stats._SHAPE_MEMO, "capacity", 2)
    q1, q2, q3 = triangle_query(), path_query(3), star_query(3)
    for seed, q in enumerate((q1, q2, q1, q3)):
        plan_query(q, random_db(q, seed))
    assert calls == [q1.signature, q2.signature, q3.signature]
    # q1 was touched after q2, so q3 displaced q2.
    plan_query(q1, random_db(q1, 10))
    assert len(calls) == 3
    plan_query(q2, random_db(q2, 11))
    assert calls[3:] == [q2.signature]
    assert len(stats._SHAPE_MEMO) == 2


def test_use_cache_false_still_reads_the_structure_memo(monkeypatch):
    calls = _count_structure_calls(monkeypatch)
    q = cycle_query(4)
    plan_query(q, random_db(q, 1), use_cache=False)
    plan_query(q, random_db(q, 2), use_cache=False)
    assert len(calls) == 1


_ATTRS = "ABCDE"


@st.composite
def _shape_family(draw):
    """Queries that collide on everything but their hypergraph.

    A base query of 1–6 atoms of arity 1–3 over a small attribute pool
    (so atoms may be disconnected), then its atoms reversed, renamed, and
    extended by one atom over attributes it already has — the last keeps
    ``query.variables`` and changes the hypergraph.
    """
    arity = st.integers(1, 3)
    atoms = [
        tuple(draw(st.permutations(_ATTRS))[: draw(arity)])
        for _ in range(draw(st.integers(1, 6)))
    ]
    base = [(f"R{i}", attrs) for i, attrs in enumerate(atoms)]
    seen = list(dict.fromkeys(a for attrs in atoms for a in attrs))
    extra = tuple(draw(st.permutations(seen))[: draw(arity)])
    variants = (
        base,
        base[::-1],
        [(f"S{i}", attrs) for i, attrs in enumerate(atoms)],
        base + [(f"R{len(base)}", extra)],
    )
    return [
        JoinQuery([RelationSchema(n, attrs) for n, attrs in v])
        for v in variants
    ]


@settings(max_examples=60, deadline=None)
@given(family=_shape_family(), seed=st.integers(0, 2**16))
def test_memoized_structure_plans_like_a_cold_planner(family, seed):
    """Every :class:`Plan` field through the memo equals a cold plan's.

    Each query is planned twice on fresh data, so the second plan of a
    shape reads its profile from the memo, and the family's variants
    read it right after one another.  ``use_cache=False`` keeps the
    plan cache out of the warm pass (identical draws would hit it), so
    the memo is the only thing that can differ."""
    instances = [
        (q, random_db(q, seed + 2 * i + draw, n=8, depth=3))
        for i, q in enumerate(family)
        for draw in (0, 1)
    ]
    clear_plan_cache()
    warm = [plan_query(q, db, use_cache=False) for q, db in instances]
    for (q, db), plan in zip(instances, warm):
        clear_plan_cache()
        cold = plan_query(q, db)
        for field in dataclasses.fields(Plan):
            assert getattr(plan, field.name) == getattr(cold, field.name), (
                q, field.name,
            )
