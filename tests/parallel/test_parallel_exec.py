"""Parallel-vs-serial parity, merged-cursor semantics, scheduler caching.

The parity matrix is the subsystem's correctness contract: every
backend × workload × worker count must produce *exactly* the serial
result — same rows, same order (both sides sort), same multiplicity
(shards are disjoint, so no dedup happens anywhere).  The workloads
are the Table 1 families the planner prices — sparse and AGM-tight
triangle, acyclic path, star, dense cycle — plus the split-certificate
instance whose shards all prune.
"""

import pytest

from repro.core.resolution import ResolutionStats
from repro.engine import (
    clear_plan_cache,
    cost,
    execute,
    execute_cursor,
    plan_query,
)
from repro.parallel import get_pool, shutdown_pools
from repro.relational.io import ValueDictionary
from repro.relational.query import star_query
from repro.workloads.generators import (
    agm_tight_triangle,
    dense_cycle_db,
    graph_triangle_db,
    random_graph_edges,
    random_path_db,
    split_path_instance,
)

BACKENDS = (
    "tetris-preloaded",
    "tetris-reloaded",
    "leapfrog",
    "yannakakis",
    "hash",
    "nested-loop",
)

WORKER_COUNTS = (1, 2, 4)


def _star_db(rays, n, seed, depth):
    import random

    from repro.relational.query import Database
    from repro.relational.relation import Relation
    from repro.relational.schema import Domain

    rng = random.Random(seed)
    query = star_query(rays)
    rels = []
    for atom in query.atoms:
        rows = {
            tuple(rng.randrange(1 << depth) for _ in atom.attrs)
            for _ in range(n)
        }
        rels.append(Relation(atom, rows, Domain(depth)))
    return query, Database(rels)


def _workloads():
    out = []
    query, db = graph_triangle_db(random_graph_edges(40, 100, seed=7))
    out.append(("triangle", query, db))
    query, db = agm_tight_triangle(6)
    out.append(("triangle_agm_tight", query, db))
    query, db = random_path_db(3, 120, seed=5, depth=7)
    out.append(("path3", query, db))
    query, db = _star_db(3, 100, seed=9, depth=7)
    out.append(("star3", query, db))
    query, db = dense_cycle_db(4, 45, depth=6, seed=3)
    out.append(("cycle4", query, db))
    query, db, _ = split_path_instance(150, depth=9, seed=2)
    out.append(("split_empty", query, db))
    return out


WORKLOADS = _workloads()


@pytest.fixture(scope="module", autouse=True)
def _pools():
    yield
    shutdown_pools()


@pytest.fixture(autouse=True)
def _fresh_plans():
    clear_plan_cache()
    yield


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name,query,db", WORKLOADS, ids=[w[0] for w in WORKLOADS]
)
def test_parallel_serial_parity(name, query, db, backend):
    try:
        serial = execute(query, db, algorithm=backend)
    except ValueError as exc:
        assert "not applicable" in str(exc)
        pytest.skip(f"{backend} inapplicable on {name}")
    for workers in WORKER_COUNTS:
        par = execute(query, db, algorithm=backend, workers=workers)
        assert par.plan.num_shards > 1, "forced backend must go parallel"
        assert par.tuples == serial.tuples, (
            f"{backend} × {workers} workers disagrees on {name}"
        )


class TestMergedCursorSemantics:
    @pytest.fixture()
    def instance(self):
        return graph_triangle_db(random_graph_edges(40, 100, seed=7))

    def test_limit_yields_subset_of_exact_size(self, instance):
        query, db = instance
        full = set(map(tuple, execute(query, db, algorithm="hash").tuples))
        assert len(full) > 10
        cursor = execute_cursor(
            query, db, algorithm="hash", workers=2, limit=7
        )
        rows = cursor.fetchall()
        assert len(rows) == 7
        assert cursor.rows_produced == 7
        assert all(tuple(r) in full for r in rows)
        cursor.close()

    def test_limit_zero(self, instance):
        query, db = instance
        cursor = execute_cursor(
            query, db, algorithm="hash", workers=2, limit=0
        )
        assert cursor.fetchall() == []

    def test_limit_beyond_output_returns_everything(self, instance):
        query, db = instance
        serial = execute(query, db, algorithm="hash")
        par = execute(
            query, db, algorithm="hash", workers=2,
            limit=len(serial.tuples) + 50,
        )
        assert par.tuples == serial.tuples

    def test_decode_through_merged_cursor(self, instance):
        query, db = instance
        dictionary = ValueDictionary()
        # Encode the identity so codes decode to themselves, shifted
        # through the dictionary (enough to prove the wiring).
        domain_top = 1 << db.domain.depth
        for v in range(domain_top):
            dictionary.encode(v)
        cursor = execute_cursor(
            query, db, algorithm="hash", workers=2, decode=dictionary
        )
        decoded = cursor.fetchall()
        plain = execute(query, db, algorithm="hash").tuples
        assert sorted(decoded) == sorted(
            dictionary.decode_row(t) for t in plain
        )

    def test_fetchmany_batches(self, instance):
        query, db = instance
        cursor = execute_cursor(query, db, algorithm="hash", workers=2)
        first = cursor.fetchmany(4)
        rest = cursor.fetchall()
        serial = execute(query, db, algorithm="hash").tuples
        assert sorted(first + rest) == serial

    def test_stats_are_aggregated_across_shards(self, instance):
        query, db = instance
        serial = execute(query, db, algorithm="tetris-preloaded")
        par = execute(
            query, db, algorithm="tetris-preloaded", workers=2
        )
        assert par.stats.resolutions > 0
        assert par.parallel.executed_shards > 1
        # Shard-local engines do at least the output's worth of work.
        assert par.stats.oracle_queries >= 0
        assert len(par.tuples) == len(serial.tuples)


class TestPlannerDecision:
    @pytest.fixture(autouse=True)
    def _four_usable_cores(self, monkeypatch):
        # The decisions below are about workers=4; price them for a
        # host with the cores to run four, whatever this one's
        # affinity mask allows.
        monkeypatch.setattr(cost, "usable_cores", lambda: 4)

    def test_tiny_instance_stays_serial_under_auto(self):
        query, db = graph_triangle_db([(0, 1), (1, 2), (0, 2)])
        plan = plan_query(query, db, workers=4, use_cache=False)
        assert plan.workers == 1
        assert plan.num_shards == 1

    def test_huge_assumed_instance_goes_parallel_under_auto(self):
        from repro.relational.query import path_query

        plan = plan_query(
            path_query(2), db=None, workers=4,
            assumed_rows=500_000, use_cache=False,
        )
        assert plan.workers == 4
        assert plan.num_shards > 1
        assert plan.split_attrs  # A1 covers both atoms

    def test_no_workers_means_no_parallel_candidates(self):
        query, db = graph_triangle_db(random_graph_edges(20, 40, seed=1))
        plan = plan_query(query, db, use_cache=False)
        assert all(c.workers == 1 for c in plan.candidates)
        assert plan.workers == 1

    def test_workers_in_plan_cache_key(self):
        query, db = graph_triangle_db(random_graph_edges(20, 40, seed=1))
        clear_plan_cache()
        a = plan_query(query, db, algorithm="hash")
        b = plan_query(query, db, algorithm="hash", workers=2)
        assert a.num_shards == 1
        assert b.num_shards > 1
        assert not b.cache_hit


class TestSchedulerCaching:
    def test_repeat_query_converges_to_shipping_no_rows(self):
        query, db = graph_triangle_db(random_graph_edges(40, 100, seed=13))
        first = execute(query, db, algorithm="hash", workers=2)
        assert first.parallel.rows_shipped > 0  # cold caches pay once
        # Worker key sets only grow (nothing here approaches the cache
        # cap), so repeats converge to all-reference dispatch: dynamic
        # dealing may steal a shard from the other worker's cache when
        # it would otherwise idle, but each steal is paid at most once.
        # First ships and steal re-ships are tallied apart, so the
        # convergence target is their sum.
        shipped = None
        for _ in range(6):
            repeat = execute(query, db, algorithm="hash", workers=2)
            shipped = (
                repeat.parallel.rows_shipped
                + repeat.parallel.rows_reshipped
            )
            if shipped == 0:
                break
        assert shipped == 0
        assert repeat.parallel.ref_hits == repeat.parallel.refs_total > 0

    def test_pool_is_persistent(self):
        assert get_pool(2) is get_pool(2)

    def test_pruned_shards_never_dispatch(self):
        query, db, _ = split_path_instance(200, depth=10, seed=4)
        result = execute(query, db, algorithm="hash", workers=2)
        assert result.tuples == []
        assert result.parallel.pruned_shards == result.parallel.num_shards
        assert result.parallel.executed_shards == 0


class TestPoolIsolation:
    """Overlapping runs must never cross-wire the pipe protocol."""

    @pytest.fixture()
    def instances(self):
        q1, db1 = graph_triangle_db(random_graph_edges(40, 100, seed=7))
        q2, db2 = random_path_db(3, 120, seed=5, depth=7)
        s1 = execute(q1, db1, algorithm="hash").tuples
        s2 = execute(q2, db2, algorithm="hash").tuples
        return q1, db1, s1, q2, db2, s2

    def test_interleaved_cursors_get_separate_pools(self, instances):
        q1, db1, s1, q2, db2, s2 = instances
        c1 = execute_cursor(q1, db1, algorithm="hash", workers=2)
        first = next(c1)  # c1's run is now mid-flight on its pool
        c2 = execute_cursor(q2, db2, algorithm="hash", workers=2)
        got2 = sorted(map(tuple, c2.fetchall()))
        got1 = sorted([tuple(first)] + [tuple(r) for r in c1])
        assert got1 == s1
        assert got2 == s2
        c1.close()
        c2.close()

    def test_limit_run_releases_pool_for_next_query(self, instances):
        q1, db1, s1, q2, db2, s2 = instances
        limited = execute(q1, db1, algorithm="hash", workers=2, limit=3)
        assert len(limited.tuples) == 3
        follow = execute(q2, db2, algorithm="hash", workers=2)
        assert follow.tuples == s2

    def test_abandoned_open_cursor_does_not_poison_later_runs(
        self, instances
    ):
        q1, db1, s1, q2, db2, s2 = instances
        dangling = execute_cursor(q1, db1, algorithm="hash", workers=2)
        next(dangling)  # partially consumed, never closed
        follow = execute(q2, db2, algorithm="hash", workers=2)
        assert follow.tuples == s2
        dangling.close()

    def test_limit_exhaustion_releases_pool_without_close(self, instances):
        from repro.parallel.scheduler import _POOLS

        q1, db1, s1, _q2, _db2, _s2 = instances
        cursor = execute_cursor(q1, db1, algorithm="hash", workers=2,
                                limit=2)
        assert len(cursor.fetchall()) == 2
        # The limit's islice ended the stream; the cursor must have
        # closed its source (draining the run) even without close().
        assert all(not p.active for p in _POOLS.get(2, []))

    def test_renamed_relation_schema_still_shards(self):
        import random

        from repro.relational.query import Database, JoinQuery
        from repro.relational.relation import Relation
        from repro.relational.schema import Domain, RelationSchema

        rng = random.Random(0)
        rel_r = Relation(
            RelationSchema("R", ("a", "b")),
            {(rng.randrange(16), rng.randrange(16)) for _ in range(40)},
            Domain(4),
        )
        rel_s = Relation(
            RelationSchema("S", ("x", "y")),
            {(rng.randrange(16), rng.randrange(16)) for _ in range(40)},
            Domain(4),
        )
        # Atom variables (A, B, C) rename the schema attributes — the
        # stats translation must keep distinct counts (and with them
        # split-attribute choice) keyed by query variables.
        query = JoinQuery(
            [RelationSchema("R", ("A", "B")),
             RelationSchema("S", ("B", "C"))]
        )
        db = Database([rel_r, rel_s])
        plan = plan_query(
            query, db, algorithm="hash", workers=2, use_cache=False
        )
        assert plan.split_attrs
        serial = execute(query, db, algorithm="hash")
        par = execute(query, db, algorithm="hash", workers=2)
        assert par.parallel is not None
        assert par.tuples == serial.tuples


class TestResolutionStatsMerge:
    def test_merge_sums_every_counter(self):
        a = ResolutionStats(
            resolutions=3, ordered_resolutions=2,
            by_axis={0: 2, 1: 1}, containment_queries=5,
            oracle_queries=7, skeleton_calls=1, boxes_loaded=4,
            cache_hits=2, resumes=3, witness_depth_sum=12,
        )
        b = ResolutionStats(
            resolutions=5, ordered_resolutions=1,
            by_axis={1: 4, 2: 2}, containment_queries=1,
            oracle_queries=2, skeleton_calls=3, boxes_loaded=1,
            cache_hits=0, resumes=1, witness_depth_sum=4,
        )
        merged = ResolutionStats.merge([a, b])
        assert merged.resolutions == 8
        assert merged.ordered_resolutions == 3
        assert merged.by_axis == {0: 2, 1: 5, 2: 2}
        assert merged.containment_queries == 6
        assert merged.oracle_queries == 9
        assert merged.skeleton_calls == 4
        assert merged.boxes_loaded == 5
        assert merged.cache_hits == 2
        assert merged.resumes == 4
        assert merged.witness_depth_sum == 16
        # Weighted mean, not mean of means: (12 + 4) / (3 + 1).
        assert merged.mean_witness_depth == 4.0

    def test_merge_of_nothing_is_zero(self):
        merged = ResolutionStats.merge([])
        assert merged.resolutions == 0
        assert merged.mean_witness_depth == 0.0

    def test_inputs_untouched(self):
        a = ResolutionStats(resolutions=1, by_axis={0: 1})
        ResolutionStats.merge([a, a])
        assert a.resolutions == 1
        assert a.by_axis == {0: 1}


class TestExplainRendering:
    def test_parallel_plan_line(self):
        query, db = graph_triangle_db(random_graph_edges(30, 70, seed=3))
        from repro.engine import explain_text

        result = execute(query, db, algorithm="hash", workers=2)
        text = explain_text(result.plan, result)
        assert "parallel: 2 workers" in text
        assert "shards, split on" in text
        assert "→ worker" in text
        assert "makespan" in text

    def test_serial_plan_has_no_parallel_section(self):
        query, db = graph_triangle_db(random_graph_edges(30, 70, seed=3))
        from repro.engine import explain_text

        result = execute(query, db, algorithm="hash")
        assert "parallel" not in explain_text(result.plan, result)
