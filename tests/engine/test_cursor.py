"""Streaming cursor API: parity with the materialized engine, laziness,
limits, decoding, and the cursor-consuming aggregates.

The parity matrix mirrors the executor acceptance tests: every backend's
cursor must reproduce the seed semantics (the same result multiset) on
every workload-generator family.
"""

import random
import types

import pytest

from repro.engine import (
    BACKENDS,
    clear_kernel_caches,
    clear_plan_cache,
    execute,
    execute_cursor,
    kernel_cache_info,
)
from repro.joins.aggregates import any_rows, count_rows, group_counts
from repro.joins.hashjoin import hash_blocks, iter_hash
from repro.joins.leapfrog import iter_leapfrog, leapfrog_blocks
from repro.joins.nested_loop import iter_nested_loop
from repro.joins.yannakakis import iter_yannakakis, yannakakis_blocks
from repro.relational.hypergraph import Hypergraph
from repro.relational.io import ValueDictionary
from repro.relational.query import (
    Database,
    JoinQuery,
    clique_query,
    evaluate_reference,
    star_query,
)
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema
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
from tests.helpers import relation_from_rows


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
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_cursor_parity_with_reference(name, backend):
    """Cursors reproduce seed semantics on every family × backend."""
    query, db = WORKLOADS[name]
    if backend == "yannakakis" and not (
        Hypergraph.of_query(query).is_alpha_acyclic()
    ):
        return
    expected = evaluate_reference(query, db)
    cursor = execute_cursor(query, db, algorithm=backend)
    rows = cursor.fetchall()
    # Streaming order is backend-defined; the multiset must match (and
    # every streaming backend is duplicate-free, so list-sorted works).
    assert sorted(rows) == expected, backend
    assert cursor.rows_produced == len(expected)
    assert cursor.backend == backend
    assert cursor.variables == query.variables


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_limit_materializes_at_most_k(name):
    query, db = WORKLOADS[name]
    full = evaluate_reference(query, db)
    for k in (0, 1, 3, len(full), len(full) + 5):
        result = execute(query, db, algorithm="auto", limit=k)
        assert len(result.tuples) == min(k, len(full))
        assert result.limit == k
        assert set(result.tuples) <= set(full)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_cursor_limit_early_termination(backend):
    query, db = WORKLOADS["graph_triangles"]
    if backend == "yannakakis":
        return  # triangle query is cyclic
    full = evaluate_reference(query, db)
    assert len(full) > 2
    for k in (0, 2):
        cursor = execute_cursor(query, db, algorithm=backend, limit=k)
        rows = cursor.fetchall()
        assert len(rows) == k
        assert cursor.rows_produced == k
        assert set(rows) <= set(full)
        assert execute(
            query, db, algorithm=backend, limit=k
        ).tuples == sorted(rows)


@pytest.mark.parametrize("workers", (None, 2))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_execute_is_its_cursor_drained_and_sorted(backend, workers):
    """One path: ``execute()`` returns what ``execute_cursor()`` streams,
    serial or sharded — rows, stats, GAO and plan alike."""
    query, db = WORKLOADS["random_path"]  # acyclic: Yannakakis applies
    result = execute(query, db, algorithm=backend, workers=workers)
    assert result.tuples == evaluate_reference(query, db)
    with execute_cursor(
        query, db, algorithm=backend, workers=workers
    ) as cursor:
        assert result.tuples == sorted(cursor)
    assert (cursor.parallel is None) == (workers is None)
    assert (result.parallel is None) == (workers is None)
    assert result.stats == cursor.stats
    assert result.gao == cursor.gao == result.plan.gao
    assert result.backend == cursor.backend == backend
    assert result.plan.num_shards == cursor.plan.num_shards


def test_streaming_backends_are_generators():
    """The pipeline backends defer all probe work until consumption:
    the block form is a generator, the row form chains it lazily."""
    query, db = WORKLOADS["random_path"]
    clear_kernel_caches()
    streams = (
        iter_hash(query, db),
        iter_leapfrog(query, db),
        iter_nested_loop(query, db),
        iter_yannakakis(query, db),
    )
    for it in streams:
        assert iter(it) is it
    for blocks in (
        hash_blocks(query, db),
        leapfrog_blocks(query, db),
        yannakakis_blocks(query, db),
    ):
        assert isinstance(blocks, types.GeneratorType)
    # Nothing ran yet: not even a kernel lookup.
    assert all(
        info["hits"] == info["misses"] == 0
        for info in kernel_cache_info().values()
    )
    expected = evaluate_reference(query, db)
    for it in streams:
        assert sorted(it) == expected


def test_cursor_fetchmany_and_close():
    query, db = WORKLOADS["graph_triangles"]
    expected = evaluate_reference(query, db)
    cursor = execute_cursor(query, db, algorithm="leapfrog")
    first = cursor.fetchmany(1)
    assert len(first) == 1
    cursor.close()
    assert cursor.fetchall() == []
    assert cursor.rows_produced == 1
    # A context-managed cursor closes itself.
    with execute_cursor(query, db, algorithm="leapfrog") as cur:
        assert len(cur.fetchmany(2)) == min(2, len(expected))
    assert cur.fetchall() == []


def test_close_releases_limited_pipeline():
    """close() must reach the backend generator through the limit wrapper."""
    query, db = WORKLOADS["graph_triangles"]
    finalized = []

    def traced():
        try:
            yield from iter_hash(query, db)
        finally:
            finalized.append(True)

    from repro.engine.executor import ResultCursor

    plan = execute(query, db, algorithm="hash").plan
    cursor = ResultCursor(
        traced(), variables=query.variables, backend="hash", plan=plan,
        stats=plan.stats, gao=plan.gao, limit=2,
    )
    assert len(cursor.fetchmany(1)) == 1
    cursor.close()
    assert finalized == [True]


class _CountedSource:
    """An iterator that counts how often the cursor closes it."""

    def __init__(self, items):
        self._it = iter(items)
        self.closes = 0

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._it)

    def close(self):
        self.closes += 1


def _bare_cursor(rows, **kwargs):
    from repro.engine.executor import ResultCursor

    query, db = WORKLOADS["graph_triangles"]
    plan = execute(query, db, algorithm="hash").plan
    return ResultCursor(
        rows, variables=query.variables, backend="hash", plan=plan,
        stats=plan.stats, gao=plan.gao, **kwargs,
    )


#: Three shards' worth of rows, sorted within and across the lists.
_SHARDS = ([(0, 1), (0, 2)], [], [(3, 0)], [(5, 5), (6, 0), (7, 7)])
_ROWS = [row for shard in _SHARDS for row in shard]


@pytest.mark.parametrize("sharded", (False, True), ids=("serial", "shards"))
class TestFetchallBookkeeping:
    """``fetchall`` returns what is left, counts it, closes once —
    whether the cursor reads a row stream or per-shard row lists."""

    def _cursor(self, sharded, **kwargs):
        if sharded:
            source = _CountedSource(reversed(_SHARDS))  # completion order
            cursor = _bare_cursor(
                None, batches=source, sorted_runs=True, **kwargs
            )
            cursor.parallel = object()  # any report: lists arrive out of turn
            return source, cursor
        source = _CountedSource(_ROWS)
        return source, _bare_cursor(source, **kwargs)

    def test_untouched(self, sharded):
        source, cursor = self._cursor(sharded)
        assert cursor.fetchall() == _ROWS
        assert cursor.ordered is sharded
        assert cursor.rows_produced == len(_ROWS)
        assert source.closes == 1

    def test_after_partial_iteration(self, sharded):
        source, cursor = self._cursor(sharded)
        taken = [next(cursor), next(cursor)]
        rest = cursor.fetchall()
        assert sorted(taken + rest) == _ROWS
        assert len(rest) == len(_ROWS) - 2
        assert not cursor.ordered  # a remainder claims nothing
        assert cursor.rows_produced == len(_ROWS)
        assert source.closes == 1

    def test_after_close(self, sharded):
        source, cursor = self._cursor(sharded)
        next(cursor)
        cursor.close()
        assert cursor.fetchall() == []
        cursor.close()
        assert cursor.rows_produced == 1
        assert source.closes == 1

    def test_exhaustion_then_fetchall_then_exit(self, sharded):
        source, cursor = self._cursor(sharded)
        with cursor:
            assert sorted(cursor) == _ROWS
            assert cursor.fetchall() == []
        assert cursor.rows_produced == len(_ROWS)
        assert source.closes == 1

    def test_limit_and_decode(self, sharded):
        dictionary = ValueDictionary()
        for v in range(8):
            dictionary.encode(f"v{v}")
        source, cursor = self._cursor(sharded, limit=4, decode=dictionary)
        first = next(cursor)
        rest = cursor.fetchall()
        assert len(rest) == 3
        assert cursor.rows_produced == 4
        assert not cursor.ordered
        decoded = {tuple(f"v{v}" for v in row) for row in _ROWS}
        assert {first, *rest} <= decoded
        assert source.closes == 1


def test_negative_limit_rejected():
    query, db = WORKLOADS["graph_triangles"]
    with pytest.raises(ValueError):
        execute_cursor(query, db, limit=-1)


def test_limit_prefix_consistency_leapfrog():
    """A limited run returns a prefix of the backend's enumeration."""
    query, db = WORKLOADS["chained_path"]
    all_rows = list(iter_leapfrog(query, db))
    cursor = execute_cursor(query, db, algorithm="leapfrog", limit=4)
    prefix = cursor.fetchall()
    assert prefix == all_rows[:4]


def _decoded_db():
    dictionary = ValueDictionary()
    query = JoinQuery([
        RelationSchema("R", ("A", "B")),
        RelationSchema("S", ("B", "C")),
    ])
    r_rows = [("u", "v"), ("u", "w"), ("x", "y")]
    s_rows = [("v", "z"), ("y", "q")]
    for row in r_rows + s_rows:
        dictionary.encode_row(row)
    domain = dictionary.domain()
    db = Database([
        relation_from_rows("R", ("A", "B"), r_rows, dictionary, domain),
        relation_from_rows("S", ("B", "C"), s_rows, dictionary, domain),
    ])
    return query, db, dictionary


def test_execute_decode_returns_values():
    query, db, dictionary = _decoded_db()
    result = execute(query, db, decode=dictionary)
    decoded = list(result.decoded_rows())
    assert len(decoded) == len(result.tuples)
    assert sorted(decoded) == [("u", "v", "z"), ("x", "y", "q")]
    for coded, plain in zip(result.tuples, decoded):
        assert dictionary.decode_row(coded) == plain


def test_decoded_rows_without_dictionary_rejected():
    query, db, _ = _decoded_db()
    result = execute(query, db)
    with pytest.raises(ValueError):
        result.decoded_rows()


def test_cursor_decode_streams_values():
    query, db, dictionary = _decoded_db()
    cursor = execute_cursor(query, db, decode=dictionary)
    rows = cursor.fetchall()
    assert sorted(rows) == [("u", "v", "z"), ("x", "y", "q")]


@pytest.mark.parametrize("limit", [0, 1, 5])
def test_limit_with_decode_pulls_no_more_than_limit(monkeypatch, limit):
    """Rows leave the backend in blocks sized by the limit, and decoding
    reads only what the limit lets through: the backend materializes
    fewer than ``limit + 2 × block_rows`` rows."""
    from repro.engine import executor
    from repro.relational.io import block_rows_for

    query, db = WORKLOADS["graph_triangles"]
    dictionary = ValueDictionary()
    dictionary.encode_rows([[f"v{i}" for i in range(db.domain.size)]])
    pulled = []
    run_backend = executor.run_backend

    def counted(*args):
        blocks, stats, sorted_runs = run_backend(*args)
        return (
            (pulled.extend(b) or b for b in blocks), stats, sorted_runs
        )

    monkeypatch.setattr(executor, "run_backend", counted)
    cursor = execute_cursor(query, db, limit=limit, decode=dictionary)
    got = cursor.fetchall()
    assert len(got) == limit
    assert len(pulled) < limit + 2 * block_rows_for(limit)
    assert got == [dictionary.decode_row(row) for row in pulled[:limit]]


def test_fetchmany_rejects_a_negative_count():
    query, db = WORKLOADS["graph_triangles"]
    with execute_cursor(query, db) as cursor:
        with pytest.raises(ValueError, match="k must be non-negative, got -1"):
            cursor.fetchmany(-1)
        assert cursor.fetchmany(0) == []
        assert len(cursor.fetchmany(2)) == 2


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_blocks_are_the_remaining_row_lists(backend):
    query, db = WORKLOADS["random_path"]
    expected = evaluate_reference(query, db)
    cursor = execute_cursor(query, db, algorithm=backend)
    first = next(cursor)
    blocks = list(cursor.blocks())
    assert all(type(block) is list for block in blocks)
    assert sorted([first] + [r for b in blocks for r in b]) == expected
    assert cursor.rows_produced == len(expected)
    assert list(cursor.blocks()) == [] and cursor.fetchall() == []
    # limit and decode apply to blocks as they do to rows.
    dictionary = ValueDictionary()
    dictionary.encode_rows([[f"v{i}" for i in range(db.domain.size)]])
    limited = execute_cursor(
        query, db, algorithm=backend, limit=3, decode=dictionary
    )
    rows = [r for b in limited.blocks() for r in b]
    assert len(rows) == 3 and limited.rows_produced == 3
    assert all(cell.startswith("v") for row in rows for cell in row)
    # close() ends the block stream.
    closing = execute_cursor(query, db, algorithm=backend)
    stream = closing.blocks()
    assert next(stream)
    closing.close()
    assert list(stream) == []


def test_decode_rows_is_lazy():
    dictionary = ValueDictionary()
    codes = [dictionary.encode_row(("a", "b"))]
    stream = dictionary.decode_rows(iter(codes))
    assert isinstance(stream, types.GeneratorType)
    assert list(stream) == [("a", "b")]


class TestCursorAggregates:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_count_rows_matches_reference(self, name):
        query, db = WORKLOADS[name]
        expected = evaluate_reference(query, db)
        assert count_rows(query, db) == len(expected)

    @pytest.mark.parametrize("name", ["graph_triangles", "split_path"])
    def test_any_rows(self, name):
        query, db = WORKLOADS[name]
        expected = evaluate_reference(query, db)
        assert any_rows(query, db) == bool(expected)

    def test_any_rows_ignores_stray_limit_kwarg(self):
        query, db = WORKLOADS["graph_triangles"]
        assert any_rows(query, db, limit=5)

    def test_any_rows_empty(self):
        from repro.relational.query import triangle_query

        query = triangle_query()
        db = Database([
            Relation(atom, [], Domain(3)) for atom in query.atoms
        ])
        assert not any_rows(query, db)
        assert count_rows(query, db) == 0

    def test_group_counts(self):
        query, db = WORKLOADS["graph_triangles"]
        expected = evaluate_reference(query, db)
        groups = group_counts(query, db, by=("A",))
        pos = query.variables.index("A")
        naive = {}
        for t in expected:
            naive[(t[pos],)] = naive.get((t[pos],), 0) + 1
        assert groups == naive
        assert sum(groups.values()) == len(expected)

    def test_group_counts_bad_attr(self):
        query, db = WORKLOADS["graph_triangles"]
        with pytest.raises(ValueError):
            group_counts(query, db, by=("NOPE",))
