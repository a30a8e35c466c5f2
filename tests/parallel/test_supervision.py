"""Supervision edge cases the chaos suite doesn't reach: the bounded
abandoned-cursor drain, pipe protocol desync, pool invalidation, and
the serial in-parent quarantine path failing for real.

These exercise the scheduler's failure *branches* directly — a rogue
task injected on a worker pipe, a pool invalidated mid-life, a cursor
closed while a hung worker still owes a reply — and assert the pool
either recovers in place or is replaced, never wedged.
"""

import signal
import time

import pytest

from repro.engine import clear_plan_cache, execute, execute_cursor, plan_query
from repro.parallel import (
    ShardTask,
    WorkerError,
    get_pool,
    run_job_in_parent,
    shutdown_pools,
)
from repro.parallel import scheduler
from repro.parallel.merge import prepare_jobs
from repro.parallel.scheduler import PendingShard
from repro.parallel.shm import SlicePlan
from repro.workloads.generators import graph_triangle_db, random_graph_edges
from tests.parallel.chaos import arm, needs_fork


@pytest.fixture(autouse=True)
def _hang_backstop():
    def boom(signum, frame):  # pragma: no cover - only on regression
        raise TimeoutError("supervision test exceeded the 90s backstop")

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(90)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture(autouse=True)
def _isolation():
    shutdown_pools()
    clear_plan_cache()
    yield
    shutdown_pools()


@pytest.fixture()
def instance():
    query, db = graph_triangle_db(random_graph_edges(40, 100, seed=7))
    serial = execute(query, db, algorithm="hash").tuples
    return query, db, serial


def _jobs(query, db, workers=2):
    plan = plan_query(query, db, algorithm="hash", workers=workers)
    _, jobs, _ = prepare_jobs(query, db, plan)
    assert jobs
    return plan, jobs


class TestAbandonedCursorDrain:
    def test_early_close_leaves_pool_idle_and_reusable(self, instance):
        query, db, serial = instance
        cursor = execute_cursor(query, db, algorithm="hash", workers=2)
        next(cursor)  # shards still in flight
        cursor.close()
        pool = get_pool(2)
        assert not pool.active
        follow = execute(query, db, algorithm="hash", workers=2)
        assert follow.tuples == serial
        assert get_pool(2) is pool

    @needs_fork
    def test_drain_is_bounded_when_a_worker_hangs(
        self, instance, monkeypatch
    ):
        query, db, serial = instance
        _plan, jobs = _jobs(query, db)
        sid = max(jobs, key=lambda j: j.weight).shard_id
        disarm = arm(monkeypatch, "hang", {sid})
        monkeypatch.setattr(scheduler, "DRAIN_TIMEOUT_MS", 300)
        cursor = execute_cursor(query, db, algorithm="hash", workers=2)
        next(cursor)  # the hung shard is in flight, others stream
        t0 = time.monotonic()
        cursor.close()
        # The old drain waited on the hung pipe forever; now it gives
        # the worker the budget, then respawns it.
        assert time.monotonic() - t0 < 5.0
        pool = get_pool(2)
        assert pool.respawns >= 1
        assert not pool.active
        # Same pool, next query: workers forked under the standing hang
        # fault may still honour it, so a stall budget must be armed —
        # the fault is then recovered, not avoided.
        disarm()
        monkeypatch.setattr(scheduler, "SHARD_STALL_MS", 400)
        follow = execute(query, db, algorithm="hash", workers=2)
        assert follow.tuples == serial
        assert get_pool(2) is pool


class TestProtocolDesync:
    def test_mismatched_reply_invalidates_the_pool(self, instance):
        query, db, serial = instance
        plan, jobs = _jobs(query, db)
        job = jobs[0]
        payloads = []
        for name, key, ship in job.relations:
            if isinstance(ship, SlicePlan):
                ship = ship.materialize()
            payloads.append((name, key, ship))
        rogue = ShardTask(
            shard_id=999_999,  # no real partition has this id
            atoms=query.atoms,
            payloads=tuple(payloads),
            backend=plan.backend,
            index_kind=plan.index_kind,
            gao=plan.gao,
            limit=None,
        )
        pool = get_pool(2)
        # A task the dealer never sent: worker 0's next reply now
        # answers a shard the run doesn't have in flight.
        pool._conns[0].send(rogue)
        with pytest.raises(WorkerError, match="desync"):
            execute(query, db, algorithm="hash", workers=2)
        # Mismatched replies are unrecoverable by design: the poisoned
        # pool is closed and dropped, never reused.
        assert pool.closed
        fresh = get_pool(2)
        assert fresh is not pool
        follow = execute(query, db, algorithm="hash", workers=2)
        assert follow.tuples == serial

    def test_pool_reuse_after_explicit_invalidate(self, instance):
        query, db, serial = instance
        pool = get_pool(2)
        pool._invalidate()
        assert pool.closed
        fresh = get_pool(2)
        assert fresh is not pool
        assert not fresh.closed
        result = execute(query, db, algorithm="hash", workers=2)
        assert result.tuples == serial
        assert get_pool(2) is fresh


class TestQuarantinePath:
    def test_run_job_in_parent_executes_a_real_job(self, instance):
        query, db, serial = instance
        plan, jobs = _jobs(query, db)
        rows = []
        for job in jobs:
            result = run_job_in_parent(
                job, query.atoms, plan.backend, plan.index_kind,
                plan.gao, None,
            )
            assert result.error is None
            rows.extend(result.rows)
        assert sorted(map(tuple, rows)) == serial

    def test_run_job_in_parent_raises_on_genuine_failure(self, instance):
        query, db, _serial = instance
        plan, jobs = _jobs(query, db)
        job = jobs[0]
        # A cache-reference payload (None) is meaningless in the
        # parent's cold one-shot cache: the shard fails deterministically
        # even serially, which must surface as WorkerError, not recovery.
        broken = PendingShard(
            shard_id=job.shard_id,
            shard=job.shard,
            relations=tuple(
                (name, key, None) for name, key, _ in job.relations
            ),
            weight=job.weight,
        )
        with pytest.raises(WorkerError, match="serial"):
            run_job_in_parent(
                broken, query.atoms, plan.backend, plan.index_kind,
                plan.gao, None,
            )
