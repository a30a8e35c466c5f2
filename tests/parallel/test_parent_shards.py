"""The parent as a worker, and the merge of shard lists.

Three properties of the result path of a shard-parallel run:

* whichever process computed a shard — a worker, or the parent while
  every worker was busy — ``execute()`` returns exactly the serial
  answer, for every backend, worker count and ``limit``, whether the
  shards tile the leading variable (lists concatenate in order) or
  interleave (the sort fallback runs), and with empty and one-row
  shards in the mix;
* a parent-run shard is bookkeeping of its own: not a fault, not a
  dispatch, and its wall seconds leave ``coordination_seconds``;
* the cost model divides by no more parallelism than this process has
  cores to run.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    clear_plan_cache,
    cost,
    execute,
    execute_cursor,
    explain_text,
    plan_query,
)
from repro.obs.metrics import REGISTRY
from repro.parallel import shutdown_pools
from repro.parallel.merge import ParallelReport
from repro.relational.query import Database, path_query, triangle_query
from repro.relational.relation import Relation
from repro.relational.schema import Domain
from repro.workloads.generators import graph_triangle_db, random_graph_edges

BACKENDS = (
    "tetris-preloaded",
    "tetris-reloaded",
    "leapfrog",
    "yannakakis",
    "hash",
    "nested-loop",
)
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module", autouse=True)
def _pools():
    yield
    shutdown_pools()


@pytest.fixture(autouse=True)
def _fresh_plans():
    clear_plan_cache()
    yield


def _sparse_path():
    """R(A0,A1) ⋈ S(A1,A2) whose shards on A0 are mostly empty.

    S lacks A0, so no shard is pruned before dispatch; the join itself
    leaves one shard with a single row, one with two, the rest none.
    """
    query = path_query(2)
    r, s = query.atoms
    domain = Domain(4)
    return query, Database([
        Relation(r, {(a, a) for a in range(16)}, domain),
        Relation(s, {(0, 5), (3, 7), (3, 9)}, domain),
    ])


def _split_on(query, db, backend, workers, attr):
    """The forced plan, re-split on ``attr`` instead of the planner's pick."""
    plan = plan_query(
        query, db, algorithm=backend, workers=workers, use_cache=False
    )
    return dataclasses.replace(plan, num_shards=8, split_attrs=(attr,))


@pytest.mark.parametrize("limit", (None, 10))
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_whichever_attribute_the_shards_split(backend, workers, limit):
    query, db = graph_triangle_db(random_graph_edges(40, 160, seed=7))
    try:
        serial = execute(query, db, algorithm=backend).tuples
    except ValueError as exc:
        assert "not applicable" in str(exc)
        pytest.skip(f"{backend} inapplicable on a cyclic query")
    assert len(serial) > 10
    leading, *_, last = query.variables
    for attr in (leading, last):
        plan = _split_on(query, db, backend, workers, attr)
        result = execute(query, db, plan=plan, limit=limit)
        if limit is None:
            assert result.parallel.executed_shards > 1
            assert result.tuples == serial
        else:
            assert len(result.tuples) == limit
            assert result.tuples == sorted(result.tuples)
            assert set(result.tuples) <= set(serial)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_with_empty_and_one_row_shards(backend, workers):
    query, db = _sparse_path()
    serial = execute(query, db, algorithm=backend).tuples
    assert serial == [(0, 0, 5), (3, 3, 7), (3, 3, 9)]
    plan = _split_on(query, db, backend, workers, query.variables[0])
    result = execute(query, db, plan=plan)
    assert result.tuples == serial
    sizes = sorted(rows for _, _, rows, _ in result.parallel.shard_details)
    assert sizes[0] == 0 and 1 in sizes and sizes[-1] == 2


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        min_size=1, max_size=40,
    ),
    backend=st.sampled_from(("leapfrog", "hash", "tetris-preloaded")),
    workers=st.sampled_from(WORKER_COUNTS),
    attr=st.sampled_from(triangle_query().variables),
)
def test_parity_on_random_small_graphs(edges, backend, workers, attr):
    query, db = graph_triangle_db(edges)
    serial = execute(query, db, algorithm=backend).tuples
    plan = _split_on(query, db, backend, workers, attr)
    assert execute(query, db, plan=plan).tuples == serial


class TestOrderedConcatenation:
    @pytest.fixture()
    def instance(self):
        query, db = graph_triangle_db(random_graph_edges(40, 160, seed=7))
        return query, db, execute(query, db, algorithm="leapfrog").tuples

    def test_shards_of_the_leading_variable_arrive_as_the_output(
        self, instance
    ):
        query, db, serial = instance
        plan = _split_on(query, db, "leapfrog", 2, query.variables[0])
        with execute_cursor(query, db, plan=plan) as cursor:
            rows = cursor.fetchall()
            assert cursor.ordered
        assert rows == serial  # no sort ran between the shards and here

    def test_interleaving_shards_say_so(self, instance):
        query, db, serial = instance
        plan = _split_on(query, db, "leapfrog", 2, query.variables[-1])
        with execute_cursor(query, db, plan=plan) as cursor:
            rows = cursor.fetchall()
            assert not cursor.ordered
        assert rows != serial and sorted(rows) == serial

    def test_iteration_streams_shard_by_shard(self, instance):
        query, db, serial = instance
        plan = _split_on(query, db, "leapfrog", 2, query.variables[0])
        cursor = execute_cursor(query, db, plan=plan)
        first = next(cursor)
        # One shard's rows are out; the run is still open behind it.
        assert cursor.parallel.executed_shards < 8
        rest = list(cursor)
        assert sorted([first] + rest) == serial
        assert cursor.rows_produced == len(serial)


class TestParentShardAccounting:
    def test_in_parent_shards_are_neither_faults_nor_dispatches(self):
        query, db = graph_triangle_db(random_graph_edges(40, 160, seed=7))
        shutdown_pools()
        before = REGISTRY.snapshot()
        # A new pool is still starting while the parent looks for work:
        # with sixteen shards on one worker it always finds some.
        plan = dataclasses.replace(
            plan_query(query, db, algorithm="hash", workers=1),
            num_shards=16,
        )
        result = execute(query, db, plan=plan)
        report = result.parallel
        assert report.shards_in_parent >= 1
        assert not report.had_faults
        assert report.shards_quarantined == 0
        assert report.serial_fallback_shards == 0
        assert report.dispatch_attempts == report.dispatch_successes
        assert report.executed_shards == (
            report.dispatch_successes + report.shards_in_parent
        )
        in_parent = [d for d in report.shard_details if d[1] == -1]
        assert len(in_parent) == report.shards_in_parent
        assert report.in_parent_seconds > 0.0
        assert f"({report.shards_in_parent} in parent)" in report.summary()
        assert f"({report.shards_in_parent} in parent)" in explain_text(
            result.plan, result
        )
        delta = REGISTRY.snapshot().since(before)
        assert delta["parallel.shards.in_parent"] == report.shards_in_parent

    def test_coordination_subtracts_the_parents_own_shards(self):
        report = ParallelReport(workers=2, num_shards=8, split_attrs=("A",))
        report.loop_seconds = 1.0
        report.in_parent_seconds = 0.3
        report.worker_busy = {-1: 0.25, 0: 0.4, 1: 0.2}
        assert report.coordination_seconds == pytest.approx(0.1)
        assert report.total_compute_seconds == pytest.approx(0.85)
        assert report.max_worker_seconds == pytest.approx(0.4)
        report.loop_seconds = 0.5  # workers overlapped the loop
        assert report.coordination_seconds == 0.0

    def test_balance_is_over_the_processes_that_ran_shards(self):
        """The parent (worker −1) is one of the processes the mean is
        taken over, so equal loads read 1.0 however many ran."""
        report = ParallelReport(workers=2, num_shards=8, split_attrs=("A",))
        report.worker_busy = {0: 1.0, 1: 1.0, -1: 1.0}
        assert report.balance == pytest.approx(1.0)
        report.worker_busy = {-1: 2.0}  # every shard ran in the parent
        assert report.balance == pytest.approx(1.0)
        report.worker_busy = {0: 3.0, 1: 1.0}
        assert report.balance == pytest.approx(1.5)


class TestUsableCores:
    def test_reads_the_affinity_mask(self):
        import os

        assert cost.usable_cores() >= 1
        if hasattr(os, "sched_getaffinity"):
            assert cost.usable_cores() == len(os.sched_getaffinity(0))

    def test_workers_beyond_the_cores_buy_nothing(self, monkeypatch):
        def parallel_costs(cores):
            monkeypatch.setattr(cost, "usable_cores", lambda: cores)
            plan = plan_query(
                path_query(2), db=None, workers=4,
                assumed_rows=500_000, use_cache=False,
            )
            return plan, {
                c.backend: c.cost
                for c in plan.candidates
                if c.parallel
            }

        one_plan, one = parallel_costs(1)
        _, two = parallel_costs(2)
        four_plan, four = parallel_costs(4)
        _, many = parallel_costs(64)
        assert four == many  # capped by workers from there on
        for backend in four:
            assert four[backend] < two[backend] < one[backend]
        # On one core a parallel plan is the serial work plus overheads.
        assert one_plan.workers == 1
        assert four_plan.workers == 4
