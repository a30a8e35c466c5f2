"""EXPLAIN ANALYZE: the waterfall against the cost model's prediction."""

import json

import pytest


@pytest.fixture()
def obs_paths(tmp_path, monkeypatch):
    """Run in tmp_path with empty plan caches."""
    monkeypatch.chdir(tmp_path)
    from repro.engine import clear_plan_cache

    clear_plan_cache()
    yield tmp_path
    clear_plan_cache()


def _instance():
    from repro.workloads.generators import (
        graph_triangle_db,
        random_graph_edges,
    )

    return graph_triangle_db(random_graph_edges(30, 80, seed=21))


def test_analyze_measures_against_the_prediction(obs_paths):
    from repro.obs.analyze import analyze, render_analyze

    query, db = _instance()
    report = analyze(query, db)
    assert report.actual_rows == len(report.result.tuples)
    assert report.actual_seconds == report.stage_seconds["execute"] > 0
    assert report.predicted_seconds > 0
    assert report.error_bits >= 0
    assert "plan" in report.stage_seconds
    text = render_analyze(report)
    assert "stages (wall time)" in text
    assert "cardinality" in text
    assert "cost" in text
    assert "metrics" in text


def _nodes(roots):
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def test_serial_waterfall_adds_up_to_the_window(obs_paths):
    """Serial spans nest without overlap, so the self times over the
    whole tree plus ``unaccounted`` are the analyze window exactly."""
    from repro.obs.analyze import analyze, render_analyze

    query, db = _instance()
    report = analyze(query, db)
    assert report.result.parallel is None
    roots = report.tracer.tree()
    assert {root.span.name for root in roots} == {"plan", "query"}
    total = sum(node.self_seconds() for node in _nodes(roots))
    assert 0 <= report.unaccounted_seconds < report.window_seconds
    assert total + report.unaccounted_seconds == pytest.approx(
        report.window_seconds, abs=1e-6
    )
    # A leaf's self time is its duration.
    for node in _nodes(roots):
        if not node.children:
            assert node.self_seconds() == node.span.duration
    text = render_analyze(report)
    (line,) = [ln for ln in text.splitlines() if "unaccounted" in ln]
    assert line.startswith("│   └─ unaccounted")
    with_children = sum(1 for node in _nodes(roots) if node.children)
    assert text.count(" self ") == with_children > 0


def test_parallel_self_times_lie_within_their_spans(obs_paths):
    """Shards overlap each other and ``merge`` overlaps the dispatch:
    overlapping children count once, so no self time goes negative or
    past its span."""
    from repro.obs.analyze import analyze, render_analyze

    query, db = _instance()
    report = analyze(query, db, algorithm="leapfrog", workers=2)
    assert report.result.parallel is not None
    nodes = list(_nodes(report.tracer.tree()))
    assert any(n.span.name.startswith("shard[") for n in nodes)
    for node in nodes:
        assert 0.0 <= node.self_seconds() <= node.span.duration
    assert 0.0 <= report.unaccounted_seconds <= report.window_seconds
    assert render_analyze(report).count("unaccounted") == 1


def test_query_span_names_the_planned_algorithm(obs_paths):
    """``analyze`` hands ``execute()`` its plan: the ``query`` span
    records the algorithm planned, as the ``plan`` span does."""
    from repro.obs.analyze import analyze

    query, db = _instance()
    report = analyze(query, db, algorithm="leapfrog", workers=2)
    by_name = {s.name: s for s in report.tracer.spans}
    assert by_name["plan"].attrs["algorithm"] == "leapfrog"
    assert by_name["query"].attrs["algorithm"] == "leapfrog"


def test_analyze_logs_kernel_time_without_the_sort(obs_paths):
    """The backend's quantity excludes the output sort (the cost model
    prices it as ``CostEstimate.sort``): a Yannakakis plan's unordered
    path3 stream is sorted under its own span inside ``execute``, so
    the waterfall shows kernel and sort time apart."""
    from repro.obs.analyze import analyze
    from repro.workloads.generators import random_path_db

    query, db = random_path_db(3, 200, seed=5)
    report = analyze(query, db, algorithm="yannakakis")
    stages = report.stage_seconds
    assert 0 < stages["sort"] < stages["execute"] == report.actual_seconds
    (sort,) = [s for s in report.tracer.spans if s.name == "sort"]
    (execute,) = [s for s in report.tracer.spans if s.name == "execute"]
    assert sort.parent_id == execute.span_id


def test_a_forced_only_plan_is_measured_not_priced(obs_paths):
    """A forced-only backend runs unpriced: ANALYZE shows the measured
    time with no prediction and no error bits."""
    from repro.obs.analyze import analyze, render_analyze
    from repro.workloads.generators import random_path_db

    query, db = random_path_db(3, 60, seed=5)
    report = analyze(query, db, algorithm="nested-loop")
    assert report.result.plan.predicted_cost is None
    assert report.result.plan.chosen.quantity is None
    assert report.predicted_seconds is None
    assert report.error_bits is None
    assert report.actual_seconds > 0
    (cost,) = [
        line for line in render_analyze(report).splitlines()
        if line.startswith("├─ cost")
    ]
    assert cost.endswith("ms  (forced; not priced)")
    assert "predicted" not in cost and "bits" not in cost


def test_leapfrog_in_output_order_records_no_sort(obs_paths):
    from repro.obs.analyze import analyze
    from repro.workloads.generators import random_path_db

    query, db = random_path_db(3, 200, seed=5)
    report = analyze(query, db, algorithm="leapfrog", gao=query.variables)
    assert "sort" not in report.stage_seconds
    assert report.actual_seconds == report.stage_seconds["execute"]


def test_hash_in_query_order_records_no_sort(obs_paths):
    """The planner's hash plan on a path runs the query's atom order,
    which binds ``query.variables`` in order: nothing sorts."""
    from repro.obs.analyze import analyze
    from repro.workloads.generators import random_path_db

    query, db = random_path_db(3, 200, seed=5)
    report = analyze(query, db, algorithm="hash")
    assert report.result.plan.gao == query.variables
    assert report.result.plan.chosen.sort == 0.0
    assert "sort" not in report.stage_seconds


def test_analyze_without_logging(obs_paths):
    """ANALYZE measures and writes nothing to the working directory."""
    from repro.obs.analyze import analyze

    query, db = _instance()
    analyze(query, db)
    assert list(obs_paths.iterdir()) == []


# -- CLI surface ---------------------------------------------------------------


@pytest.fixture()
def cli_csvs(tmp_path):
    import random

    rng = random.Random(9)
    for name in ("r", "s", "t"):
        with open(tmp_path / f"{name}.csv", "w") as fh:
            for _ in range(120):
                fh.write(f"v{rng.randrange(30)},v{rng.randrange(30)}\n")
    return tmp_path


def test_cli_explain_analyze_and_calibrate(obs_paths, cli_csvs, capsys):
    from repro.cli import main

    args = [
        "explain", "R(A,B), S(B,C), T(C,A)",
        "--csv", f"R={cli_csvs / 'r.csv'}",
        "--csv", f"S={cli_csvs / 's.csv'}",
        "--csv", f"T={cli_csvs / 't.csv'}",
        "--analyze",
        "--trace-out", str(cli_csvs / "trace.json"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "EXPLAIN" in out
    assert "analyze" in out
    assert "stages (wall time)" in out
    # The registry delta is printed once, by the analyze section.
    assert out.count("├─ metrics") == 1
    assert out.count("engine.queries") == 1
    assert out.index("├─ metrics") > out.index("\nanalyze\n")
    assert "cost        :" in out
    assert out.count("unaccounted") == 1
    trace = json.loads((cli_csvs / "trace.json").read_text())
    assert trace["traceEvents"]
    assert {e["ph"] for e in trace["traceEvents"]} == {"X"}
    assert "calibration log" not in out
    # The refit subcommand is gone, and ANALYZE left no log behind.
    with pytest.raises(SystemExit) as exit_:
        main(["calibrate"])
    assert exit_.value.code == 2
    assert sorted(p.name for p in cli_csvs.iterdir()) == [
        "r.csv", "s.csv", "t.csv", "trace.json",
    ]


def test_cli_analyze_needs_data(capsys):
    from repro.cli import main

    assert main(["explain", "R(A,B)", "--analyze"]) == 2
    assert "needs --csv" in capsys.readouterr().err


def test_explain_text_has_kernels_line_and_no_metrics_block():
    from repro.engine import execute, explain_text

    query, db = _instance()
    result = execute(query, db)
    text = explain_text(result.plan, result)
    assert "├─ kernels     :" in text
    assert "├─ metrics" not in text
    assert "engine.queries" not in text
