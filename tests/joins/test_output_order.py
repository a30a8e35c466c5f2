"""Output order and duplicate-freedom of the serial join streams.

Three facts the planner's "output order is a cost" pricing leans on,
checked on random hypergraphs (atoms sharing any subset of attributes,
several atoms over the same attribute set — self-joins — and atoms whose
attributes are listed against the variable order) over random databases
(empty and single-row relations included):

* leapfrog emits in GAO-lexicographic order for *any* GAO, and a hash
  cascade in the order it binds variables, so a stream that binds
  ``query.variables`` in order — leapfrog under that GAO, hash in the
  query's own atom order — is already the sorted output, and a stream
  declares sorted runs exactly then;
* the hash, Yannakakis and leapfrog streams are duplicate-free — the
  proof obligation for ``join_hash`` / ``join_yannakakis`` sorting the
  stream without a ``set()`` in between;
* ``execute()`` returns the same sorted tuples whatever GAO the planner
  or the caller picked, serial or sharded;
* hash in the query's own atom order returns the sorted output with no
  ``sort`` span, serially and sharded on two workers (where only shard
  lists that interleave are sorted, never a shard's own rows), and a
  direct ``join_hash`` compiles the kernel ``execute()`` then runs;
* rows leave the kernels in **blocks**: whatever the block size, the
  blocks concatenate to the same stream, none reaches twice the block
  size, a stream that declares sorted runs concatenates to its own
  ``sorted()``, and a ``limit`` returns a prefix after materializing
  fewer than ``limit + 2 × block_rows`` rows.

The leapfrog and hash kernels are the only implementation of their
algorithm, so exactness is against code that shares nothing with them:
the nested-loop join and ``evaluate_reference``.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    clear_plan_cache,
    execute,
    execute_cursor,
    executor,
    plan_query,
)
from repro.engine.codegen import (
    clear_kernel_caches,
    hash_kernel,
    kernel_cache_info,
    leapfrog_kernel,
)
from repro.joins.hashjoin import (
    binding_order,
    hash_blocks,
    hash_order,
    iter_hash,
    join_hash,
)
from repro.joins.leapfrog import iter_leapfrog, join_leapfrog, leapfrog_blocks
from repro.joins.nested_loop import join_nested_loop
from repro.joins.yannakakis import (
    iter_yannakakis,
    join_yannakakis,
    yannakakis_blocks,
)
from repro.obs.tracing import Tracer, use as use_tracer
from repro.parallel import shutdown_pools
from repro.relational.hypergraph import Hypergraph
from repro.relational.io import BLOCK_ROWS, block_rows_for
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


# -- hash in the query's atom order ----------------------------------------------


@st.composite
def query_order_instances(draw):
    """(query, db): 1–5 atoms of arity 1–3 over six variables — attribute
    lists in any order, atoms sharing nothing with the rest — over
    relations of 0, 1 or a few rows."""
    pool = ("A", "B", "C", "D", "E", "F")
    atoms = []
    for i in range(draw(st.integers(1, 5))):
        attrs = draw(st.lists(
            st.sampled_from(pool), min_size=1, max_size=3, unique=True,
        ))
        atoms.append(RelationSchema(f"R{i}", draw(st.permutations(attrs))))
    row = st.integers(0, (1 << DEPTH) - 1)
    relations = [
        Relation(
            atom,
            draw(st.sets(
                st.tuples(*[row] * atom.arity),
                max_size=draw(st.sampled_from((0, 1, 6))),
            )),
            Domain(DEPTH),
        )
        for atom in atoms
    ]
    return JoinQuery(atoms), Database(relations)


def _traced_execute(query, db, **kwargs):
    """``execute(...)`` under a tracer: the result and its span names."""
    tracer = Tracer()
    with use_tracer(tracer):
        result = execute(query, db, **kwargs)
    return result, {s.name for s in tracer.spans}


def _interleaved(lists):
    """Whether sorted row lists, put in order of their first rows, fail
    to tile their concatenation in order."""
    runs = sorted(filter(None, lists), key=lambda run: run[0])
    return any(a[-1] >= b[0] for a, b in zip(runs, runs[1:]))


@settings(max_examples=40, deadline=None)
@given(query_order_instances())
def test_hash_in_query_order_needs_no_sort(pools, instance):
    query, db = instance
    expected = evaluate_reference(query, db)
    order = hash_order(query, db, query.variables)
    assert order == [a.name for a in query.atoms]
    assert binding_order(query, order) == query.variables
    blocks, _stats, sorted_runs = executor.run_backend(
        "hash", query, db, "btree", query.variables, None
    )
    assert sorted_runs and _flat(blocks) == expected
    result, spans = _traced_execute(
        query, db, algorithm="hash", gao=query.variables
    )
    assert result.tuples == expected and "sort" not in spans
    result, spans = _traced_execute(
        query, db, algorithm="hash", gao=query.variables, workers=2
    )
    assert result.tuples == expected
    if result.plan.num_shards > 1:
        # Each shard list is a sorted run with no sort of its own; the
        # parent sorts only where the partition interleaves the lists.
        with execute_cursor(query, db, plan=result.plan) as cursor:
            lists = list(cursor.blocks())
        assert all(run == sorted(run) for run in lists)
        assert ("sort" in spans) == _interleaved(lists)
    else:
        assert "sort" not in spans


@settings(max_examples=40, deadline=None)
@given(query_order_instances())
def test_join_hash_compiles_the_kernel_execute_runs(instance):
    query, db = instance
    expected = evaluate_reference(query, db)
    clear_plan_cache()
    clear_kernel_caches()
    assert join_hash(query, db) == expected
    assert execute(query, db, algorithm="hash").tuples == expected
    compiled = kernel_cache_info()["hash"]
    assert compiled["misses"] == 1 and compiled["hits"] == 1


# -- blocks ----------------------------------------------------------------------

BLOCK_SIZES = (1, 2, 7, BLOCK_ROWS)


def _flat(blocks):
    return [row for block in blocks for row in block]


def _check_block_stream(query, db, gao, expected):
    """Every block kernel, at every block size, against ``expected``."""
    positions = [query.variables.index(a) for a in gao]
    streams = {
        "leapfrog": lambda n: leapfrog_blocks(query, db, gao, n),
        "hash": lambda n: hash_blocks(query, db, block_rows=n),
    }
    if Hypergraph.of_query(query).is_alpha_acyclic():
        streams["yannakakis"] = lambda n: yannakakis_blocks(query, db, n)
    for name, stream in streams.items():
        unblocked = None
        for n in BLOCK_SIZES:
            blocks = list(stream(n))
            assert all(type(b) is list and b for b in blocks), name
            assert all(n <= len(b) < 2 * n for b in blocks[:-1]), (name, n)
            assert all(len(b) < 2 * n for b in blocks[-1:]), (name, n)
            rows = _flat(blocks)
            # The block size cuts the stream; it never reorders it.
            assert unblocked is None or rows == unblocked, (name, n)
            unblocked = rows
        assert sorted(unblocked) == expected, name
        assert len(unblocked) == len(set(unblocked)), name
        if name == "leapfrog":
            keys = [tuple(r[i] for i in positions) for r in unblocked]
            assert keys == sorted(keys), gao
    # A stream declares sorted runs exactly when it binds the variables
    # in output order, and then concatenates to its sorted().
    binds = {
        "leapfrog": tuple(gao),
        "hash": binding_order(query, hash_order(query, db, gao)),
    }
    for backend in streams:
        blocks, _stats, sorted_runs = executor.run_backend(
            backend, query, db, "btree", gao, None
        )
        assert sorted_runs == (binds.get(backend) == query.variables), (
            backend, gao,
        )
        if sorted_runs:
            assert _flat(blocks) == expected, (backend, gao)


def _check_limits(query, db, gao, limits):
    """``limit=k`` is a prefix, after fewer than k + 2·block_rows rows."""
    backends = ["leapfrog", "hash"]
    if Hypergraph.of_query(query).is_alpha_acyclic():
        backends.append("yannakakis")
    for backend in backends:
        full = execute_cursor(
            query, db, algorithm=backend, gao=gao
        ).fetchall()
        for k in limits:
            with execute_cursor(
                query, db, algorithm=backend, gao=gao, limit=k
            ) as cursor:
                assert cursor.fetchall() == full[:k], (backend, k)
            blocks, _stats, _runs = executor.run_backend(
                backend, query, db, "btree", gao, k
            )
            pulled = 0
            for block in blocks:
                pulled += len(block)
                if pulled >= k:
                    break
            assert pulled < k + 2 * block_rows_for(k), (backend, k)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_block_kernels_match_the_reference_at_every_block_size(instance):
    query, db, gao = instance
    expected = evaluate_reference(query, db)
    _check_block_stream(query, db, gao, expected)
    _check_block_stream(query, db, query.variables, expected)
    _check_limits(query, db, gao, (0, 1, 3))


def _db(query, data, depth=3):
    return Database(
        [Relation(atom, data[atom.name], Domain(depth)) for atom in query.atoms]
    )


def _q(*atoms):
    return JoinQuery([RelationSchema(name, attrs) for name, attrs in atoms])


_PAIRS = [(h, v) for h in range(3) for v in range(4) if (h + v) % 3]

#: The shapes the generators special-case, each with what its source
#: must (and must not) contain: (query, data, gao or None, leapfrog
#: must-contain, hash must-contain).
SHAPES = {
    # Two private trailing variables: X is not R's last column, so only
    # Y (and S's ray A) may join the product suffix.
    "two_private_trailing": (
        _q(("R", ("H", "X", "Y")), ("S", ("H", "A"))),
        {"R": [(h, x, y) for h, x in _PAIRS for y in (x, 7 - x)],
         "S": _PAIRS},
        None, "product((v0,), (v1,), c0_2[p0_1:e0_1], c1_1[p1_0:e1_0])",
        "product(",
    ),
    # A unary private atom: its slice is the whole column, from row 0.
    "unary_private": (
        _q(("R", ("H", "A")), ("U", ("B",))),
        {"R": _PAIRS, "U": [(1,), (4,), (6,)]},
        None, "product((v0,), c0_1[p0_0:e0_0], c1_0)",
        "product((x0[0],), (x0[1],), a1)",
    ),
    # Nothing but fringe: a cross product, emitted with no loop at all.
    "cross_product": (
        _q(("U", ("A",)), ("V", ("B",))),
        {"U": [(0,), (5,)], "V": [(2,), (3,), (7,)]},
        None, "product(c0_0, c1_0)", "product((x0[0],), a1)",
    ),
    # A GAO that reverses the fringe: the product would enumerate in
    # the wrong order, so the comprehension fallback is emitted.
    "reversed_fringe": (
        _q(("R1", ("H", "A1")), ("R2", ("H", "A2"))),
        {"R1": _PAIRS, "R2": _PAIRS[::2]},
        ("H", "A2", "A1"), "for x1 in c1_1[p1_0:e1_0] for x2 in",
        "product((x0[0],), (x0[1],), g1(x0[0], E))",
    ),
    # A twin atom adds no attribute: the hash stage is a set test.
    "semijoin_only": (
        _q(("R", ("A", "B")), ("S", ("A", "B")), ("T", ("B",))),
        {"R": _PAIRS, "S": _PAIRS[1:], "T": [(1,), (2,)]},
        None, "out.append((v0, v1))", " in s",
    ),
    "empty_relation": (
        _q(("R1", ("H", "A1")), ("R2", ("H", "A2"))),
        {"R1": _PAIRS, "R2": []},
        None, "product(", "product(",
    ),
    "single_rows": (
        _q(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))),
        {"R": [(1, 2)], "S": [(2, 3)], "T": [(1, 3)]},
        None, "out.append((v0, v1, v2))",
        "for c1 in [g1(x0[1], F) & h2(x0[0], F)] for x1 in",
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_special_cased_shapes(pools, shape):
    query, data, gao, in_leapfrog, in_hash = SHAPES[shape]
    db = _db(query, data)
    gao = gao or query.variables
    expected = evaluate_reference(query, db)
    assert expected or shape == "empty_relation"
    assert in_leapfrog in leapfrog_kernel(query, gao).source
    order = [a.name for a in query.atoms]
    assert in_hash in hash_kernel(
        [(a.name, a.attrs) for a in query.atoms], query.variables
    ).source
    assert _flat(
        hash_blocks(query, db, atom_order=order, block_rows=2)
    ) == list(iter_hash(query, db, atom_order=order))
    assert sorted(iter_hash(query, db, atom_order=order)) == expected
    for perm in itertools.permutations(query.variables):
        _check_block_stream(query, db, perm, expected)
    _check_limits(query, db, gao, (0, 1, len(expected) // 2 + 1))
    # Serial and sharded execute() stay bit-identical.
    clear_plan_cache()
    backends = ["auto", "leapfrog", "hash"]
    if Hypergraph.of_query(query).is_alpha_acyclic():
        backends.append("yannakakis")
    for algorithm in backends:
        for workers in (None, 2):
            result = execute(
                query, db, algorithm=algorithm, gao=gao, workers=workers
            )
            assert result.tuples == expected, (algorithm, workers)


def test_a_limit_never_builds_the_product_it_cuts(monkeypatch):
    """One hub value over four 32-value rays: a 2^20-row product.
    ``limit=5`` must hand out 5-row blocks, not build it."""
    query = _q(*[(f"R{i}", ("H", f"A{i}")) for i in range(1, 5)])
    rays = [(0, v) for v in range(32)]
    db = _db(query, {f"R{i}": rays for i in range(1, 5)}, depth=5)
    sizes = []
    run_backend = executor.run_backend

    def measured(*args):
        blocks, stats, sorted_runs = run_backend(*args)
        return (sizes.append(len(b)) or b for b in blocks), stats, sorted_runs

    monkeypatch.setattr(executor, "run_backend", measured)
    for algorithm in ("leapfrog", "hash", "yannakakis"):
        del sizes[:]
        with execute_cursor(
            query, db, algorithm=algorithm, limit=5
        ) as cursor:
            rows = cursor.fetchall()
        assert len(rows) == 5 and len(set(rows)) == 5
        assert all(len(set(r[1:])) <= 4 and r[0] == 0 for r in rows)
        assert sum(sizes) < 5 + 2 * 5 and max(sizes) < 2 * 5, algorithm
    # Unlimited, the same product arrives in bounded blocks.
    blocks = leapfrog_blocks(query, db, query.variables)
    first = [next(blocks) for _ in range(3)]
    assert all(BLOCK_ROWS <= len(b) < 2 * BLOCK_ROWS for b in first)
    assert _flat(first) == sorted(_flat(first))
