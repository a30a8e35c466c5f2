"""The metrics registry: instruments, collectors, snapshots, rendering."""

import pytest

from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    MetricsSnapshot,
    declaring,
    render_metrics,
)


def test_counters_accumulate():
    reg = MetricsRegistry(enabled=True)
    reg.inc("a.b")
    reg.inc("a.b", 4)
    reg.inc_many({"a.b": 1, "c": 2, "zero": 0})
    snap = reg.snapshot()
    assert snap["a.b"] == 6
    assert snap["c"] == 2
    assert "zero" not in snap  # zero deltas are not materialized


def test_gauge_last_write_wins():
    reg = MetricsRegistry(enabled=True)
    reg.gauge("pool.size", 3)
    reg.gauge("pool.size", 7)
    assert reg.snapshot()["pool.size"] == 7


def test_histogram_expands_to_scalars():
    reg = MetricsRegistry(enabled=True)
    for v in (2.0, 8.0, 5.0):
        reg.observe("lat", v)
    snap = reg.snapshot()
    assert snap["lat.count"] == 3
    assert snap["lat.sum"] == 15.0
    assert snap["lat.min"] == 2.0
    assert snap["lat.max"] == 8.0


def test_disabled_registry_records_nothing():
    reg = MetricsRegistry(enabled=False)
    reg.inc("a")
    reg.gauge("g", 1)
    reg.observe("h", 1)
    reg.inc_many({"b": 2})
    assert len(reg.snapshot()) == 0


def test_collectors_run_at_snapshot_time():
    reg = MetricsRegistry(enabled=True)
    calls = []

    def collect():
        calls.append(1)
        return {"sub.hits": 5, "engine.plan_cache.entries": 2}

    reg.register_collector("sub", collect)
    reg.register_collector("sub", collect)  # idempotent by name
    assert not calls
    snap = reg.snapshot()
    assert calls == [1]  # one registration, one pull
    assert snap["sub.hits"] == 5
    # A collected name takes its kind from the catalogue: a declared
    # gauge keeps its value through since(); an undeclared name counts.
    assert snap.kind_of("engine.plan_cache.entries") == "gauge"
    assert snap.kind_of("sub.hits") == "counter"
    later = reg.snapshot()
    delta = later.since(snap)
    assert delta["engine.plan_cache.entries"] == 2
    assert delta["sub.hits"] == 0


def test_since_diffs_counters_and_keeps_gauges():
    reg = MetricsRegistry(enabled=True)
    reg.inc("n", 3)
    reg.gauge("g", 10)
    before = reg.snapshot()
    reg.inc("n", 4)
    reg.gauge("g", 2)
    delta = reg.snapshot().since(before)
    assert delta["n"] == 4
    assert delta["g"] == 2


def test_since_clamps_negative_traffic():
    reg = MetricsRegistry(enabled=True)
    reg.inc("n", 5)
    before = reg.snapshot()
    reg.reset()
    reg.inc("n", 1)
    assert reg.snapshot().since(before)["n"] == 0


def test_a_family_member_is_declared_by_its_family():
    assert declaring("engine.queries") == "engine.queries"
    assert declaring("tetris.resolutions.by_axis.3") == (
        "tetris.resolutions.by_axis.<axis>"
    )
    assert declaring("worker.1.tetris.resolutions.by_axis.0") == (
        "worker.<wid>.<counter>"
    )
    # Only counters ship per worker: gauges and histograms stay home.
    assert declaring("worker.2.engine.plan_cache.entries") is None
    assert declaring("worker.2.query.latency") is None
    assert declaring("x.y") is None


def test_render_metrics_aligned_and_sorted():
    snap = MetricsSnapshot({"bbb": 2, "a": 1, "zero": 0})
    lines = render_metrics(snap)
    assert lines == ["a   : 1", "bbb : 2"]
    assert render_metrics(MetricsSnapshot({})) == ["(no metrics recorded)"]


def test_reset_clears_direct_instruments_only():
    reg = MetricsRegistry(enabled=True)
    reg.inc("n")
    reg.register_collector("c", lambda: {"c.total": 9})
    reg.reset()
    snap = reg.snapshot()
    assert "n" not in snap
    assert snap["c.total"] == 9


@pytest.mark.parametrize("workload", ["triangle"])
def test_engine_counters_flow_into_registry(workload):
    """One executed query surfaces engine.* and kernel/cache names."""
    from repro.engine import clear_plan_cache, execute
    from repro.workloads.generators import (
        graph_triangle_db,
        random_graph_edges,
    )

    clear_plan_cache()
    query, db = graph_triangle_db(random_graph_edges(30, 70, seed=11))
    before = REGISTRY.snapshot()
    result = execute(query, db)
    delta = REGISTRY.snapshot().since(before)
    assert delta["engine.queries"] == 1
    assert delta["engine.rows.returned"] == len(result.tuples)
    assert "engine.plan_cache.misses" in delta
    assert "engine.stats_cache.misses" in delta
    # A second, plan-cached run: hit counters move, misses don't.
    before = REGISTRY.snapshot()
    execute(query, db)
    again = REGISTRY.snapshot().since(before)
    assert again["engine.plan_cache.hits"] >= 1
    assert again["engine.plan_cache.misses"] == 0


def test_tetris_resolution_counters_surface():
    from repro.engine import execute
    from repro.workloads.generators import (
        graph_triangle_db,
        random_graph_edges,
    )

    query, db = graph_triangle_db(random_graph_edges(24, 60, seed=5))
    before = REGISTRY.snapshot()
    result = execute(query, db, algorithm="tetris-preloaded")
    delta = REGISTRY.snapshot().since(before)
    assert result.stats.resolutions > 0
    assert delta["tetris.resolutions"] == result.stats.resolutions
    by_axis = [
        v for k, v in delta.items()
        if k.startswith("tetris.resolutions.by_axis.")
    ]
    assert sum(by_axis) == result.stats.resolutions


def test_execute_takes_no_snapshot(monkeypatch):
    """A query's telemetry is O(1) in the registry: counters and the
    latency histograms move, nothing copies the registry."""
    from repro.engine import execute
    from repro.relational.query import evaluate_reference
    from repro.workloads.generators import (
        graph_triangle_db,
        random_graph_edges,
    )

    query, db = graph_triangle_db(random_graph_edges(24, 60, seed=7))
    queries = REGISTRY.value("engine.queries")

    def no_snapshot(*args, **kwargs):
        raise AssertionError("execute() snapshotted the registry")

    monkeypatch.setattr(REGISTRY, "snapshot", no_snapshot)
    result = execute(query, db)
    assert result.tuples == sorted(evaluate_reference(query, db))
    assert REGISTRY.value("engine.queries") == queries + 1


def test_execute_leaves_signal_handlers_alone():
    """A library call must not take over a process signal."""
    import signal

    from repro.engine import execute
    from repro.workloads.generators import (
        graph_triangle_db,
        random_graph_edges,
    )

    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGUSR2, handler)
    try:
        query, db = graph_triangle_db(random_graph_edges(24, 60, seed=7))
        execute(query, db)
        assert signal.getsignal(signal.SIGUSR2) is handler
    finally:
        signal.signal(signal.SIGUSR2, previous)
