"""Chaos suite: every injected fault class must leave the answer
bit-identical to serial execution.

Shards are pure functions of ``(shard, database)``, so a shard whose
worker fails it runs in the parent instead — the one recovery rule.
These tests inject every failure mode :mod:`repro.parallel.faults` can
express (worker crashes, hangs, deterministic errors, unpicklable
results, pool spawn failures, shm export failures) and assert three
things each time:

* the query completes with rows **bit-identical** to the serial answer,
* recovery is visible in the :class:`~repro.parallel.merge.
  ParallelReport` (respawns / shards run in the parent / fallbacks),
  and every dispatch either succeeded or sent its shard to the parent,
* the pool stays serviceable — the same process serves the next query.

Fault specs ride on the environment and are read by *forked* workers,
so every re-arm must reset the cached plan **and** recycle the pools
(living workers keep their fork-time environment).  The autouse fixture
below does both around every test; a SIGALRM backstop guarantees a
wedged run fails the test instead of hanging the suite (pytest-timeout
is not a repo dependency).
"""

import os
import signal

import pytest

from repro import config
from repro.engine import clear_plan_cache, execute, plan_query
from repro.obs.metrics import REGISTRY
from repro.parallel import QueryTimeout, get_pool, shutdown_pools
from repro.parallel import faults
from repro.parallel.merge import prepare_jobs
from repro.parallel import shm
from repro.parallel.shm import ARENA
from repro.workloads.generators import graph_triangle_db, random_graph_edges

WORKER_COUNTS = (2, 4)

#: Every knob a chaos test may set; scrubbed before and after each test.
_CHAOS_ENV = (
    config.FAULTS.name,
    config.SHARD_TIMEOUT_MS.name,
)


@pytest.fixture(autouse=True)
def _hang_backstop():
    """Fail, don't wedge: a chaos bug must not hang the whole suite."""

    def boom(signum, frame):  # pragma: no cover - only on regression
        raise TimeoutError("chaos test exceeded the 90s backstop")

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(90)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture(autouse=True)
def _chaos_isolation(monkeypatch):
    """Fault-free pools and env on both sides of every test.

    Workers fork with a snapshot of the parent environment, so pools
    must be recycled whenever the spec changes — a surviving worker
    would keep honouring its fork-time faults forever.
    """
    for var in _CHAOS_ENV:
        monkeypatch.delenv(var, raising=False)
    faults.reset()
    shutdown_pools()
    clear_plan_cache()
    yield
    for var in _CHAOS_ENV:
        os.environ.pop(var, None)
    faults.reset()
    shutdown_pools()


def _arm(monkeypatch, spec=None, **env):
    """Install a fault spec (and knobs), then recycle pools so the next
    pool's workers fork with this environment."""
    if spec is not None:
        monkeypatch.setenv(config.FAULTS.name, spec)
    for key, value in env.items():
        monkeypatch.setenv(key, str(value))
    faults.reset()
    shutdown_pools()


def _disarm(monkeypatch):
    """Clear the fault spec *without* recycling pools — follow-up
    queries then exercise the same (possibly fault-scarred) pool."""
    monkeypatch.delenv(config.FAULTS.name, raising=False)
    faults.reset()


@pytest.fixture()
def instance():
    query, db = graph_triangle_db(random_graph_edges(40, 100, seed=7))
    serial = execute(query, db, algorithm="hash").tuples
    return query, db, serial


def _victim(query, db, workers):
    """The heaviest dispatchable shard's id — dealt first (LPT), so a
    fault armed on it reliably fires."""
    plan = plan_query(query, db, algorithm="hash", workers=workers)
    _, jobs, _ = prepare_jobs(query, db, plan)
    assert jobs, "workload must produce dispatchable shards"
    return max(jobs, key=lambda j: j.weight).shard_id


def _assert_one_rule(report, failed):
    """Each of ``failed`` shards ran in the parent after one dispatch;
    every other dispatch succeeded, and no shard was dealt twice."""
    assert report.shards_quarantined == failed
    assert report.dispatch_attempts == (
        report.dispatch_successes + report.shards_quarantined
    )
    assert report.executed_shards == (
        report.dispatch_attempts + report.shards_in_parent
    )
    ran_in_parent = sum(1 for d in report.shard_details if d[1] == -1)
    assert ran_in_parent == report.shards_quarantined + (
        report.shards_in_parent
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestCrashRecovery:
    def test_transient_crash_is_retried_to_parity(
        self, instance, workers, monkeypatch
    ):
        """A crash is retried once, in the parent: one respawn, one
        shard run there, and the shard is never dealt again."""
        query, db, serial = instance
        sid = _victim(query, db, workers)
        _arm(monkeypatch, f"crash@{sid}")
        result = execute(query, db, algorithm="hash", workers=workers)
        assert result.tuples == serial
        assert result.parallel.worker_respawns == 1
        _assert_one_rule(result.parallel, failed=1)
        assert not result.parallel.timed_out

    def test_parent_takes_only_never_dispatched_shards(
        self, instance, workers, monkeypatch
    ):
        """The parent computes shards while the workers are busy (or
        being respawned) and runs every shard a worker failed; the two
        tallies are disjoint, and the failed shard ran under -1."""
        query, db, serial = instance
        plan = plan_query(query, db, algorithm="hash", workers=workers)
        _, jobs, _ = prepare_jobs(query, db, plan)
        victim = max(jobs, key=lambda j: j.weight)
        _arm(monkeypatch, f"crash@{victim.shard_id}")
        result = execute(query, db, algorithm="hash", workers=workers)
        report = result.parallel
        assert result.tuples == serial
        ran_on = {cell: wid for cell, wid, _, _ in report.shard_details}
        assert ran_on[victim.shard.describe()] == -1
        _assert_one_rule(report, failed=1)

    def test_permanent_crash_quarantines_to_serial(
        self, instance, workers, monkeypatch
    ):
        query, db, serial = instance
        sid = _victim(query, db, workers)
        _arm(monkeypatch, f"crash@{sid}")
        result = execute(query, db, algorithm="hash", workers=workers)
        assert result.tuples == serial
        assert result.parallel.shards_quarantined >= 1
        assert result.parallel.worker_respawns >= 1

    def test_same_pool_serves_the_next_query(
        self, instance, workers, monkeypatch
    ):
        query, db, serial = instance
        sid = _victim(query, db, workers)
        _arm(monkeypatch, f"crash@{sid}")
        execute(query, db, algorithm="hash", workers=workers)
        pool = get_pool(workers)
        assert not pool.closed
        _disarm(monkeypatch)
        # Workers respawned while the spec was armed keep their
        # fork-time environment; a crash still sends its shard to the
        # parent, so parity must hold on the very same pool object.
        follow = execute(query, db, algorithm="hash", workers=workers)
        assert follow.tuples == serial
        assert get_pool(workers) is pool


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestOneRecoveryRule:
    """Every way a dispatched shard can fail sends it to the parent:
    rows equal serial, each dispatch either succeeded or sent its shard
    there, and each dead or hung worker is respawned once."""

    @pytest.mark.parametrize(
        "kind, respawns_per_shard",
        [("crash", 1), ("hang", 1), ("error", 0), ("unpicklable", 0)],
    )
    def test_every_shard_fault_class(
        self, instance, workers, kind, respawns_per_shard, monkeypatch
    ):
        query, db, serial = instance
        plan = plan_query(query, db, algorithm="hash", workers=workers)
        _, jobs, _ = prepare_jobs(query, db, plan)
        # Every shard armed: whichever the workers are dealt fails.
        _arm(
            monkeypatch,
            ",".join(f"{kind}@{job.shard_id}" for job in jobs),
            REPRO_SHARD_TIMEOUT_MS=400,
        )
        result = execute(query, db, algorithm="hash", workers=workers)
        report = result.parallel
        assert result.tuples == serial
        assert report.dispatch_successes == 0
        assert report.dispatch_attempts >= workers
        assert report.worker_respawns == (
            respawns_per_shard * report.dispatch_attempts
        )
        _assert_one_rule(report, failed=report.dispatch_attempts)

    def test_a_failed_send(self, instance, workers):
        query, db, serial = instance
        pool = get_pool(workers)
        for proc in pool._procs:
            proc.kill()
            proc.join()
        # Every worker is dead before the run: each first dispatch
        # fails at the send, and its shard runs in the parent.
        result = execute(query, db, algorithm="hash", workers=workers)
        assert result.tuples == serial
        assert get_pool(workers) is pool
        assert result.parallel.worker_respawns == workers
        _assert_one_rule(result.parallel, failed=workers)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestDeterministicErrors:
    def test_worker_error_quarantines_without_respawn(
        self, instance, workers, monkeypatch
    ):
        query, db, serial = instance
        sid = _victim(query, db, workers)
        _arm(monkeypatch, f"error@{sid}")
        result = execute(query, db, algorithm="hash", workers=workers)
        assert result.tuples == serial
        # The worker is alive and in protocol: no process churn, the
        # shard goes straight to the parent.
        assert result.parallel.worker_respawns == 0
        _assert_one_rule(result.parallel, failed=1)

    def test_unpicklable_result_degrades_in_protocol(
        self, instance, workers, monkeypatch
    ):
        query, db, serial = instance
        sid = _victim(query, db, workers)
        _arm(monkeypatch, f"unpicklable@{sid}")
        result = execute(query, db, algorithm="hash", workers=workers)
        assert result.tuples == serial
        # The send fails *after* a full pickle pass, so no partial
        # bytes hit the pipe; the worker's fallback error result keeps
        # the protocol in sync and the shard quarantines cleanly.
        assert result.parallel.shards_quarantined >= 1
        assert result.parallel.worker_respawns == 0


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestHangs:
    def test_transient_hang_recovered_by_stall_budget(
        self, instance, workers, monkeypatch
    ):
        query, db, serial = instance
        sid = _victim(query, db, workers)
        _arm(
            monkeypatch,
            f"hang@{sid}",
            REPRO_SHARD_TIMEOUT_MS=400,
        )
        result = execute(query, db, algorithm="hash", workers=workers)
        assert result.tuples == serial
        # The stalled worker is killed and respawned; its shard runs in
        # the parent and is never dealt again.
        assert result.parallel.worker_respawns == 1
        _assert_one_rule(result.parallel, failed=1)

    def test_permanent_hang_quarantined_by_stall_budget(
        self, instance, workers, monkeypatch
    ):
        query, db, serial = instance
        sid = _victim(query, db, workers)
        _arm(
            monkeypatch,
            f"hang@{sid}",
            REPRO_SHARD_TIMEOUT_MS=300,
        )
        result = execute(query, db, algorithm="hash", workers=workers)
        assert result.tuples == serial
        assert result.parallel.shards_quarantined >= 1

    def test_deadline_raises_query_timeout_with_partial_report(
        self, instance, workers, monkeypatch
    ):
        query, db, serial = instance
        sid = _victim(query, db, workers)
        _arm(monkeypatch, f"hang@{sid}")
        with pytest.raises(QueryTimeout) as exc:
            execute(
                query, db, algorithm="hash", workers=workers,
                timeout_ms=500,
            )
        report = exc.value.report
        assert report is not None
        assert report.timed_out
        # The other shards finished while the victim hung.
        assert 0 < report.executed_shards < report.num_shards
        # The abort respawned the hung workers with the spec still in
        # the parent env; recycle before the parity follow-up.
        _disarm(monkeypatch)
        shutdown_pools()
        follow = execute(query, db, algorithm="hash", workers=workers)
        assert follow.tuples == serial


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestGracefulDegradation:
    def test_spawn_failure_runs_the_query_serially(
        self, instance, workers, monkeypatch
    ):
        query, db, serial = instance
        _arm(monkeypatch, "spawn*1")
        result = execute(query, db, algorithm="hash", workers=workers)
        assert result.tuples == serial
        assert result.parallel.serial_fallback_shards > 0
        assert (
            result.parallel.serial_fallback_shards
            == result.parallel.executed_shards
        )
        assert result.parallel.worker_respawns == 0
        # The injected spawn budget is spent: the next query gets a
        # real pool and goes parallel again.
        follow = execute(query, db, algorithm="hash", workers=workers)
        assert follow.tuples == serial
        assert follow.parallel.serial_fallback_shards == 0

    def test_shm_export_failure_falls_back_to_blobs(
        self, instance, workers, monkeypatch
    ):
        query, db, serial = instance
        # Force every relation through the arena so the injected
        # export failures actually fire.
        monkeypatch.setattr(shm, "MIN_BYTES", 1)
        _arm(monkeypatch, "shm-export*2")
        result = execute(query, db, algorithm="hash", workers=workers)
        assert result.tuples == serial
        assert result.parallel.shm_export_errors >= 1
        assert result.parallel.worker_respawns == 0

    def test_summary_shows_shm_export_errors(
        self, instance, workers, monkeypatch
    ):
        """An export error is a fault: the ``# parallel:`` line's faults
        clause counts it even when nothing respawned or ran serial."""
        query, db, serial = instance
        monkeypatch.setattr(shm, "MIN_BYTES", 1)
        _arm(monkeypatch, "shm-export*inf")
        result = execute(query, db, algorithm="hash", workers=workers)
        report = result.parallel
        assert result.tuples == serial
        assert report.shm_export_errors >= 1
        assert report.summary().endswith(
            f" faults: 0 respawns, 0 serial, "
            f"{report.shm_export_errors} shm export errors"
        )


class TestHygiene:
    def test_crash_chaos_leaves_no_arena_segments(
        self, instance, monkeypatch
    ):
        query, db, serial = instance
        sid = _victim(query, db, 2)
        monkeypatch.setattr(shm, "MIN_BYTES", 1)
        _arm(monkeypatch, f"crash@{sid}")
        result = execute(query, db, algorithm="hash", workers=2)
        assert result.tuples == serial
        assert result.parallel.worker_respawns == 1
        shutdown_pools()
        assert len(ARENA) == 0

    def test_fault_metrics_flow_into_registry(
        self, instance, monkeypatch
    ):
        query, db, _serial = instance
        sid = _victim(query, db, 2)
        _arm(monkeypatch, f"crash@{sid}")
        before = REGISTRY.snapshot()
        execute(query, db, algorithm="hash", workers=2)
        delta = REGISTRY.snapshot().since(before)
        assert delta["parallel.faults.respawns"] == 1
        assert delta["parallel.faults.quarantined"] == 1
        assert not any("retr" in name for name in delta.as_dict())

    def test_explain_surfaces_the_recovery(self, instance, monkeypatch):
        from repro.engine import explain_text

        query, db, _serial = instance
        sid = _victim(query, db, 2)
        _arm(monkeypatch, f"crash@{sid}")
        result = execute(query, db, algorithm="hash", workers=2)
        text = explain_text(result.plan, result)
        assert "faults" in text
        assert "workers respawned" in text
        assert "run serially in-parent" in text
        assert "parent (serial)" in text

    def test_fault_free_report_stays_silent(self, instance):
        from repro.engine import explain_text

        query, db, _serial = instance
        result = execute(query, db, algorithm="hash", workers=2)
        assert not result.parallel.had_faults
        assert "faults" not in explain_text(result.plan, result)
        assert "respawn" not in result.parallel.summary()


class TestFaultSpecParsing:
    def test_grammar(self):
        fp = faults.parse_faults(
            "crash@3,hang@7,error@1,unpicklable@2,spawn*2,shm-export"
        )
        assert fp.crash == {3}
        assert fp.hang == {7}
        assert fp.error == {1}
        assert fp.unpicklable == {2}
        assert fp.spawn == 2
        assert fp.shm_export == 1
        always = faults.parse_faults("spawn*inf, shm_export*always")
        assert always.spawn == always.shm_export == faults.ALWAYS

    def test_shard_faults_are_sets(self):
        fp = faults.parse_faults("crash@5,crash@0,crash@5,error@5")
        assert fp.crash == {0, 5}
        assert fp.error == {5}
        assert not fp.hang and not fp.unpicklable

    def test_countdowns_consume(self):
        fp = faults.parse_faults("spawn*2")
        assert fp.take_spawn_failure()
        assert fp.take_spawn_failure()
        assert not fp.take_spawn_failure()
        always = faults.parse_faults("shm-export*inf")
        for _ in range(5):
            assert always.take_shm_export_failure()

    def test_rejects_unknown_kind_and_missing_shard(self):
        with pytest.raises(ValueError):
            faults.parse_faults("explode@3")
        with pytest.raises(ValueError):
            faults.parse_faults("crash*2")

    @pytest.mark.parametrize(
        "spec",
        [
            "crash@x",       # shard id is not an integer
            "crash@",        # no shard id
            "crash@-1",      # negative shard id
            "crash@3*2",     # a shard fault takes no count
            "crash@3*0",
            "hang@1*inf",
            "error@2*1",
            "spawn*two",     # count is not an integer
            "spawn*0",       # count < 1
            "shm-export*-3",
            "spawn*",
            "spawn@1",       # a pool fault takes no shard
            "explode@3",
        ],
    )
    def test_parse_errors_name_the_variable(self, spec):
        with pytest.raises(ValueError, match=config.FAULTS.name):
            faults.parse_faults(spec)

    def test_empty_spec_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(config.FAULTS.name, raising=False)
        faults.reset()
        assert faults.plan() is None
