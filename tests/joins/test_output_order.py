"""Output order and duplicate-freedom of the serial join streams.

Three facts the planner's "output order is a cost" pricing leans on,
checked on random hypergraphs (atoms sharing any subset of attributes,
several atoms over the same attribute set — self-joins — and atoms whose
attributes are listed against the variable order) over random databases
(empty and single-row relations included):

* leapfrog emits in GAO-lexicographic order for *any* GAO, so under
  ``gao == query.variables`` the stream is already the sorted output;
* the hash, Yannakakis and leapfrog streams are duplicate-free — the
  proof obligation for ``join_hash`` / ``join_yannakakis`` sorting the
  stream without a ``set()`` in between;
* ``execute()`` returns the same sorted tuples whatever GAO the planner
  or the caller picked, serial or sharded.

The leapfrog and hash kernels are the only implementation of their
algorithm, so exactness is against code that shares nothing with them:
the nested-loop join and ``evaluate_reference``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import clear_plan_cache, execute, plan_query
from repro.joins.hashjoin import iter_hash, join_hash
from repro.joins.leapfrog import iter_leapfrog, join_leapfrog
from repro.joins.nested_loop import join_nested_loop
from repro.joins.yannakakis import iter_yannakakis, join_yannakakis
from repro.parallel import shutdown_pools
from repro.relational.hypergraph import Hypergraph
from repro.relational.query import Database, JoinQuery, evaluate_reference
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema

DEPTH = 2
VARIABLES = ("A", "B", "C", "D")


@st.composite
def instances(draw):
    """(query, db, gao): a random hypergraph, database and permutation."""
    attr_lists = draw(
        st.lists(
            st.lists(
                st.sampled_from(VARIABLES), min_size=1, max_size=3,
                unique=True,
            ),
            min_size=1, max_size=4,
        )
    )
    atoms = [
        RelationSchema(f"R{i}", attrs) for i, attrs in enumerate(attr_lists)
    ]
    row = st.integers(0, (1 << DEPTH) - 1)
    relations = []
    for atom in atoms:
        rows = draw(
            st.sets(
                st.tuples(*[row] * atom.arity), min_size=0, max_size=7
            )
        )
        twin = next(
            (r for r in relations if r.attrs == atom.attrs), None
        )
        if twin is not None and draw(st.booleans()):
            rows = twin.tuples()  # a true self-join: the same instance
        relations.append(Relation(atom, rows, Domain(DEPTH)))
    query = JoinQuery(atoms)
    gao = tuple(draw(st.permutations(query.variables)))
    return query, Database(relations), gao


@settings(max_examples=150, deadline=None)
@given(instances())
def test_leapfrog_emits_in_gao_order(instance):
    query, db, gao = instance
    positions = [query.variables.index(a) for a in gao]
    rows = list(iter_leapfrog(query, db, gao=gao))
    keys = [tuple(r[i] for i in positions) for r in rows]
    assert all(a < b for a, b in zip(keys, keys[1:])), (gao, rows)
    ordered = list(iter_leapfrog(query, db, gao=query.variables))
    assert ordered == join_nested_loop(query, db)  # sorted, and exact
    assert sorted(rows) == ordered


@settings(max_examples=150, deadline=None)
@given(instances())
def test_streams_are_duplicate_free_and_exact(instance):
    query, db, gao = instance
    expected = evaluate_reference(query, db)
    assert join_nested_loop(query, db) == expected
    streams = {
        "hash": iter_hash(query, db),
        "leapfrog": iter_leapfrog(query, db, gao=gao),
    }
    if Hypergraph.of_query(query).is_alpha_acyclic():
        streams["yannakakis"] = iter_yannakakis(query, db)
        assert join_yannakakis(query, db) == expected
    for name, stream in streams.items():
        rows = list(stream)
        assert len(rows) == len(set(rows)), name
        assert sorted(rows) == expected, name
    assert join_hash(query, db) == expected
    assert join_leapfrog(query, db, gao=gao) == expected


@pytest.fixture(scope="module")
def pools():
    yield
    shutdown_pools()


@settings(max_examples=25, deadline=None)
@given(instances())
def test_execute_is_gao_and_worker_invariant(pools, instance):
    query, db, gao = instance
    expected = evaluate_reference(query, db)
    clear_plan_cache()
    for algorithm in ("auto", "leapfrog"):
        for workers in (None, 2):
            for explicit in (None, gao):
                miss = execute(
                    query, db, algorithm=algorithm, workers=workers,
                    gao=explicit,
                )
                assert miss.tuples == expected
                assert sorted(miss.gao) == sorted(query.variables)
                if explicit is not None:
                    assert miss.gao == explicit
                hit = plan_query(
                    query, db, algorithm=algorithm, workers=workers,
                    gao=explicit,
                )
                assert hit.cache_hit
                assert hit.gao == miss.gao == miss.plan.gao
