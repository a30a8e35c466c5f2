"""Worker metrics shipping: every counter a worker moves comes home.

Workers run in forked processes, so their registry traffic — kernel
compiles, index builds, cache misses — would vanish with the process if
it weren't shipped.  The scheduler piggybacks each shard's registry
delta on its :class:`~repro.parallel.workers.ShardResult` and the
parent folds it in twice: under the aggregate name, and under a
``worker.<wid>.*`` breakdown.  These tests pin the accounting rules:

* Σ over workers of a breakdown counter == the worker-shipped part of
  the aggregate (never more: nothing is double-counted);
* backend-internal counters that travel via shard *stats* (tetris
  resolutions) are counted exactly once, matching the merged stats;
* dispatch attempts vs successes tell the supervision story: every
  attempt either succeeds or sends its shard to the parent;
* the rules survive crash-respawn recovery.
"""

import os
import signal

import pytest

from repro import config
from repro.engine import clear_plan_cache, execute, plan_query
from repro.obs.metrics import REGISTRY
from repro.parallel import faults, shutdown_pools
from repro.parallel.merge import prepare_jobs
from repro.workloads.generators import graph_triangle_db, random_graph_edges

WORKER_COUNTS = (2, 4)


@pytest.fixture(autouse=True)
def _backstop():
    def boom(signum, frame):  # pragma: no cover - only on regression
        raise TimeoutError("shipping test exceeded the 90s backstop")

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(90)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture(autouse=True)
def _isolation(monkeypatch):
    monkeypatch.delenv(config.FAULTS.name, raising=False)
    faults.reset()
    shutdown_pools()
    clear_plan_cache()
    yield
    os.environ.pop(config.FAULTS.name, None)
    faults.reset()
    shutdown_pools()


@pytest.fixture()
def instance():
    query, db = graph_triangle_db(random_graph_edges(40, 100, seed=7))
    serial = execute(query, db, algorithm="hash").tuples
    return query, db, serial


def _delta_around(fn):
    before = REGISTRY.snapshot()
    out = fn()
    return out, REGISTRY.snapshot().since(before)


def _breakdown_sums(delta):
    """{counter name: Σ over workers of its worker.<wid>.* breakdown}"""
    sums = {}
    for name, value in delta.as_dict().items():
        if name.startswith("worker.") and value:
            _, _, rest = name.split(".", 2)
            sums[rest] = sums.get(rest, 0) + value
    return sums


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_worker_deltas_fold_into_aggregates(instance, workers):
    query, db, serial = instance
    result, delta = _delta_around(
        lambda: execute(query, db, algorithm="hash", workers=workers)
    )
    assert result.parallel is not None
    assert result.tuples == serial
    sums = _breakdown_sums(delta)
    assert sums, "workers shipped no counters"
    for rest, total in sums.items():
        # The aggregate holds the shipped traffic plus whatever the
        # parent did itself — never less than the breakdown sum.
        assert delta.as_dict().get(rest, 0) >= total - 1e-9, rest
    assert delta["engine.queries"] == 1
    assert delta["engine.rows.returned"] == len(serial)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_faultfree_kernel_traffic_is_exactly_the_breakdown(
    instance, workers
):
    """On a clean run the parent compiles nothing for dispatched
    shards, and a shard it ran itself moves its own registry directly,
    so the kernel-cache aggregate is the shipped sum plus the in-parent
    shards' lookups — at the same lookups per shard, wherever the shard
    ran.  Equality catches both a lost delta and a double count."""
    query, db, _ = instance
    result, delta = _delta_around(
        lambda: execute(query, db, algorithm="hash", workers=workers)
    )
    report = result.parallel
    sums = _breakdown_sums(delta)
    kernel_names = [n for n in sums if n.startswith("kernels.compile.")]
    assert kernel_names, "expected workers to ship kernel-cache traffic"
    for rest in kernel_names:
        assert delta.as_dict().get(rest, 0) >= sums[rest], rest

    def lookups(counters):
        return sum(
            counters.get(f"kernels.compile.{kind}", 0)
            for kind in ("hits", "misses")
        )

    assert report.executed_shards == (
        report.dispatch_successes + report.shards_in_parent
    )
    assert lookups(delta.as_dict()) * report.dispatch_successes == (
        lookups(sums) * report.executed_shards
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_stats_borne_counters_count_once(workers):
    """tetris.* travels via merged shard stats, not worker registries;
    the registry delta must equal the merged stats exactly (a shipping
    bug here would double it)."""
    query, db = graph_triangle_db(random_graph_edges(30, 80, seed=17))
    result, delta = _delta_around(
        lambda: execute(
            query, db, algorithm="tetris-preloaded", workers=workers
        )
    )
    assert result.stats.resolutions > 0
    assert delta["tetris.resolutions"] == result.stats.resolutions


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_dispatch_accounting_clean_run(instance, workers):
    query, db, _ = instance
    result, delta = _delta_around(
        lambda: execute(query, db, algorithm="hash", workers=workers)
    )
    report = result.parallel
    assert report.dispatch_attempts == report.dispatch_successes > 0
    assert delta["parallel.dispatch.attempts"] == report.dispatch_attempts
    assert (
        delta["parallel.dispatch.successes"] == report.dispatch_successes
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_quarantine_does_not_double_count_dispatches(
    instance, workers, monkeypatch
):
    """A deterministic worker error quarantines the shard to in-parent
    execution; that re-execution is not a dispatch, so attempts −
    successes is exactly the failed protocol exchanges."""
    query, db, serial = instance
    plan = plan_query(query, db, algorithm="hash", workers=workers)
    _, jobs, _ = prepare_jobs(query, db, plan)
    sid = max(jobs, key=lambda j: j.weight).shard_id
    monkeypatch.setenv(config.FAULTS.name, f"error@{sid}")
    faults.reset()
    shutdown_pools()
    result = execute(query, db, algorithm="hash", workers=workers)
    assert result.tuples == serial
    report = result.parallel
    assert report.shards_quarantined >= 1
    failed = report.dispatch_attempts - report.dispatch_successes
    assert failed == report.shards_quarantined


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_crash_respawn_keeps_accounting_consistent(
    instance, workers, monkeypatch
):
    """A crashed worker ships nothing for the lost shard, which runs in
    the parent instead.  Attempts exceed successes by the crash, and
    breakdown sums still never exceed aggregates."""
    query, db, serial = instance
    plan = plan_query(query, db, algorithm="hash", workers=workers)
    _, jobs, _ = prepare_jobs(query, db, plan)
    sid = max(jobs, key=lambda j: j.weight).shard_id
    monkeypatch.setenv(config.FAULTS.name, f"crash@{sid}")
    faults.reset()
    shutdown_pools()
    result, delta = _delta_around(
        lambda: execute(query, db, algorithm="hash", workers=workers)
    )
    assert result.tuples == serial
    report = result.parallel
    assert report.worker_respawns == 1
    failed = report.dispatch_attempts - report.dispatch_successes
    assert failed == report.shards_quarantined == 1
    for rest, total in _breakdown_sums(delta).items():
        assert delta.as_dict().get(rest, 0) >= total - 1e-9, rest
