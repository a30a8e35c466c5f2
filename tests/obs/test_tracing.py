"""Span tracing: tree mechanics, cross-process stitching, parity."""

import dataclasses

import pytest

from repro.obs import tracing
from repro.obs.tracing import Span, Tracer, chrome_trace_events


def test_nested_spans_parent_correctly():
    tracer = Tracer()
    with tracer.span("query") as q:
        with tracer.span("plan") as p:
            pass
        with tracer.span("execute") as e:
            with tracer.span("kernel.compile") as k:
                pass
    assert p.parent_id == q.span_id
    assert e.parent_id == q.span_id
    assert k.parent_id == e.span_id
    roots = tracer.tree()
    assert len(roots) == 1
    assert roots[0].shape() == (
        "query",
        (
            ("execute", (("kernel.compile", ()),)),
            ("plan", ()),
        ),
    )


def test_span_ids_unique_across_tracers_in_one_process():
    ids = set()
    for _ in range(3):
        t = Tracer()
        with t.span("s"):
            pass
        ids.add(t.spans[0].span_id)
    assert len(ids) == 3


def test_module_span_is_noop_without_ambient_tracer():
    with tracing.span("anything") as s:
        assert s is None


def test_module_span_records_under_ambient_tracer():
    tracer = Tracer()
    with tracing.use(tracer):
        assert tracing.current_tracer() is tracer
        with tracing.span("work", k=1) as s:
            assert s is not None
    assert tracing.current_tracer() is None
    assert [s.name for s in tracer.spans] == ["work"]
    assert tracer.spans[0].attrs == {"k": 1}


def test_adoption_stitches_foreign_spans():
    parent = Tracer()
    with parent.span("query"):
        with parent.span("dispatch") as d:
            ctx = parent.context()
            # Simulate a worker on the far end of the pipe.
            worker = Tracer(trace_id=ctx[0], parent_id=ctx[1])
            ws = worker.start("shard[0]")
            worker.finish(ws)
            parent.adopt(worker.serialized())
    roots = parent.tree()
    assert roots[0].shape() == (
        "query",
        (("dispatch", (("shard[0]", ()),)),),
    )


def test_finish_closes_abandoned_children():
    tracer = Tracer()
    outer = tracer.start("outer")
    tracer.start("inner")  # never finished explicitly
    tracer.finish(outer)
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer._stack == []


def test_serialized_round_trips():
    tracer = Tracer()
    with tracer.span("a", n=3):
        pass
    d = tracer.serialized()[0]
    back = Span.from_dict(d)
    assert back.name == "a"
    assert back.attrs == {"n": 3}
    assert back.span_id == tracer.spans[0].span_id


def test_chrome_events_shape():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    (event,) = chrome_trace_events(tracer.serialized())
    assert event["ph"] == "X"
    assert event["dur"] >= 0
    assert event["args"]["span_id"] == tracer.spans[0].span_id


# -- engine integration --------------------------------------------------------


def _triangle_instance():
    from repro.workloads.generators import (
        graph_triangle_db,
        random_graph_edges,
    )

    return graph_triangle_db(random_graph_edges(36, 90, seed=13))


def _forced_parallel_plan(query, db, workers, num_shards):
    """A parallel plan with a pinned shard count.

    ``default_num_shards`` scales with the worker count, so parity
    across worker counts pins ``num_shards`` explicitly — same shards,
    same span tree shape, only the pool size differs.
    """
    from repro.engine import plan_query

    base = plan_query(
        query, db, algorithm="leapfrog", workers=workers, use_cache=False
    )
    assert base.num_shards > 1, "expected a parallel plan"
    return dataclasses.replace(
        base, workers=workers, num_shards=num_shards,
        split_attrs=base.split_attrs,
    )


def _traced_run(query, db, workers, num_shards=8):
    from repro.engine import execute

    plan = _forced_parallel_plan(query, db, workers, num_shards)
    tracer = Tracer()
    with tracing.use(tracer):
        result = execute(query, db, plan=plan)
    roots = tracer.tree()
    assert len(roots) == 1
    return result, roots[0]


def test_span_tree_shape_is_worker_count_invariant():
    """Workers 1 and 4 over the same pinned shards: identical shape.

    Pruning and shard identity are functions of the data and the shard
    parameters, both pinned here — only the pool size differs, and the
    shape (names, nesting, child multiset) must not notice.
    """
    query, db = _triangle_instance()
    result1, root1 = _traced_run(query, db, workers=1)
    result4, root4 = _traced_run(query, db, workers=4)
    assert root1.shape() == root4.shape()
    assert sorted(result1.tuples) == sorted(result4.tuples)
    # And the structure is the documented lifecycle: the execute stage
    # fans into partition/dispatch/merge, shards under dispatch only.
    (name, children) = root4.shape()
    assert name == "query"
    by_name = dict(children)
    dispatch_children = dict(by_name["execute"])["parallel.dispatch"]
    assert dispatch_children, "expected shard spans under dispatch"
    assert all(n.startswith("shard[") for n, _ in dispatch_children)
    assert "merge" in dict(by_name["execute"])
    assert "parallel.partition" in dict(by_name["execute"])


def test_worker_spans_carry_foreign_pids_and_stitch():
    from repro.engine import execute

    query, db = _triangle_instance()
    plan = _forced_parallel_plan(query, db, workers=2, num_shards=8)
    tracer = Tracer()
    with tracing.use(tracer):
        result = execute(query, db, plan=plan)
    shard_spans = [s for s in tracer.spans if s.name.startswith("shard[")]
    assert len(shard_spans) == result.parallel.executed_shards > 0
    dispatch = next(s for s in tracer.spans if s.name == "parallel.dispatch")
    assert {s.parent_id for s in shard_spans} == {dispatch.span_id}
    # Shards ran in worker processes, except the ones the parent took
    # while every worker was busy — those are its own spans.
    local = [s for s in shard_spans if s.pid == tracer.pid]
    assert len(local) == result.parallel.shards_in_parent
    assert len(local) < len(shard_spans)


def test_disabled_path_is_bit_identical():
    """Tracing+metrics off vs. on: same rows, same ResolutionStats."""
    from repro.engine import clear_plan_cache, execute
    from repro.obs import metrics as obs_metrics

    query, db = _triangle_instance()
    clear_plan_cache()
    metrics_was = obs_metrics.REGISTRY.enabled
    try:
        obs_metrics.set_enabled(False)
        tracing.set_enabled(False)
        before = obs_metrics.REGISTRY.snapshot()
        plain = execute(query, db, algorithm="tetris-preloaded")
        delta = obs_metrics.REGISTRY.snapshot().since(before)
        assert delta.get("engine.queries", 0) == 0
        assert plain.trace is None

        obs_metrics.set_enabled(True)
        tracing.set_enabled(True)
        before = obs_metrics.REGISTRY.snapshot()
        fancy = execute(query, db, algorithm="tetris-preloaded")
        delta = obs_metrics.REGISTRY.snapshot().since(before)
        assert delta["engine.queries"] == 1
        assert delta["tetris.resolutions"] == fancy.stats.resolutions
        assert fancy.trace is not None
    finally:
        tracing.set_enabled(False)
        obs_metrics.set_enabled(metrics_was)
    assert plain.tuples == fancy.tuples
    assert dataclasses.asdict(plain.stats) == dataclasses.asdict(fancy.stats)
    assert plain.gao == fancy.gao
    assert plain.backend == fancy.backend


def test_cursor_owns_a_trace_when_enabled():
    from repro.engine import execute_cursor

    query, db = _triangle_instance()
    tracing.set_enabled(True)
    try:
        with execute_cursor(query, db, limit=5) as cursor:
            rows = cursor.fetchall()
    finally:
        tracing.set_enabled(False)
    assert len(rows) <= 5
    assert cursor.trace is not None
    names = {s.name for s in cursor.trace.spans}
    assert "query" in names and "plan" in names
    assert all(s.end >= s.start for s in cursor.trace.spans)
