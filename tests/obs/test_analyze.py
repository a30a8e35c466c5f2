"""EXPLAIN ANALYZE, the calibration loop and its rotating log."""

import json

import pytest

from repro import config
from repro.engine.cost import DEFAULT_CALIBRATION, CostModel
from repro.obs import calibration


@pytest.fixture()
def obs_paths(tmp_path, monkeypatch):
    """Run in tmp_path with the calibration log isolated there."""
    log = tmp_path / "analyze_log.jsonl"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(config.ANALYZE_LOG.name, str(log))
    from repro.engine import clear_plan_cache

    clear_plan_cache()
    yield log
    clear_plan_cache()


def _instance():
    from repro.workloads.generators import (
        graph_triangle_db,
        random_graph_edges,
    )

    return graph_triangle_db(random_graph_edges(30, 80, seed=21))


def test_analyze_measures_and_logs(obs_paths):
    log = obs_paths
    from repro.obs.analyze import analyze, render_analyze

    query, db = _instance()
    report = analyze(query, db)
    assert report.actual_rows == len(report.result.tuples)
    assert report.actual_seconds > 0
    assert report.predicted_seconds > 0
    assert report.stage_seconds.get("execute", 0) > 0
    assert "plan" in report.stage_seconds
    # The record landed in the log, JSON-parseable, fit-usable.
    assert report.log_path == str(log)
    (line,) = log.read_text().strip().splitlines()
    record = json.loads(line)
    assert record["backend"] == report.result.backend
    assert record["seconds"] + record["sort_seconds"] == pytest.approx(
        report.actual_seconds
    )
    assert record["quantity"] > 0
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
    report = analyze(query, db, append_log=False)
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
    report = analyze(
        query, db, algorithm="leapfrog", workers=2, append_log=False
    )
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
    report = analyze(
        query, db, algorithm="leapfrog", workers=2, append_log=False
    )
    by_name = {s.name: s for s in report.tracer.spans}
    assert by_name["plan"].attrs["algorithm"] == "leapfrog"
    assert by_name["query"].attrs["algorithm"] == "leapfrog"


def test_analyze_logs_kernel_time_without_the_sort(obs_paths):
    """The backend's quantity excludes the output sort (the cost model
    prices it as ``CostEstimate.sort``), so the fitted ``seconds`` must
    too: a Yannakakis plan's unordered path3 stream is sorted under its
    own span, and the record keeps that time apart."""
    from repro.obs.analyze import analyze
    from repro.workloads.generators import random_path_db

    query, db = random_path_db(3, 200, seed=5)
    report = analyze(query, db, algorithm="yannakakis")
    record = report.record
    assert report.stage_seconds["sort"] > 0
    assert record["sort_seconds"] == report.stage_seconds["sort"]
    assert 0 < record["seconds"] < report.stage_seconds["execute"]


def test_a_forced_only_plan_is_measured_not_priced(obs_paths):
    """A forced-only backend runs unpriced: ANALYZE shows the measured
    time with no prediction and no error bits, and ``repro calibrate``
    skips its record, which has no quantity."""
    from repro.obs.analyze import analyze, render_analyze
    from repro.workloads.generators import random_path_db

    query, db = random_path_db(3, 60, seed=5)
    report = analyze(query, db, algorithm="nested-loop")
    assert report.predicted_seconds is None
    assert report.error_bits is None
    assert report.record["quantity"] is None
    (cost,) = [
        line for line in render_analyze(report).splitlines()
        if line.startswith("├─ cost")
    ]
    assert cost.endswith("ms  (forced; not priced)")
    assert "predicted" not in cost and "bits" not in cost
    _, info = calibration.fit(calibration.load_runs())
    assert (info["runs"], info["usable_runs"]) == (1, 0)


def test_leapfrog_in_output_order_records_no_sort(obs_paths):
    from repro.obs.analyze import analyze
    from repro.workloads.generators import random_path_db

    query, db = random_path_db(3, 200, seed=5)
    report = analyze(query, db, algorithm="leapfrog", gao=query.variables)
    assert "sort" not in report.stage_seconds
    assert report.record["sort_seconds"] == 0.0
    assert report.record["seconds"] == report.stage_seconds["execute"]


def test_hash_in_query_order_records_no_sort(obs_paths):
    """The planner's hash plan on a path runs the query's atom order,
    which binds ``query.variables`` in order: nothing sorts."""
    from repro.obs.analyze import analyze
    from repro.workloads.generators import random_path_db

    query, db = random_path_db(3, 200, seed=5)
    report = analyze(query, db, algorithm="hash")
    assert report.result.plan.gao == query.variables
    assert "sort" not in report.stage_seconds
    assert report.record["sort_seconds"] == 0.0


def test_analyze_without_logging(obs_paths):
    log = obs_paths
    from repro.obs.analyze import analyze

    query, db = _instance()
    report = analyze(query, db, append_log=False)
    assert report.log_path is None
    assert not log.exists()


def test_calibrate_shrinks_cost_error(obs_paths):
    from repro.obs.analyze import analyze

    query, db = _instance()
    for _ in range(3):
        analyze(query, db)
    runs = calibration.load_runs()
    model, info = calibration.fit(runs)
    assert info["usable_runs"] == 3
    assert info["error_after"] <= info["error_before"]
    assert calibration.cost_error(runs, model) == pytest.approx(
        info["error_after"]
    )
    # The refit is printed, never fed back: a default model still plans
    # with the shipped constants.
    assert CostModel().calibration == DEFAULT_CALIBRATION


def test_calibrate_empty_log_saves_nothing(obs_paths, tmp_path):
    model, info = calibration.fit(calibration.load_runs())
    assert info["usable_runs"] == 0
    assert model.calibration == DEFAULT_CALIBRATION
    assert list(tmp_path.iterdir()) == []


def test_refit_model_never_reuses_a_default_plan(obs_paths):
    """Plans are keyed on the calibration vector: a refit model must not
    resurrect a plan priced under the shipped constants."""
    from repro.engine import execute, plan_query

    # Fit a non-anchor backend: fitting only the anchor ("hash") leaves
    # the relative factors untouched by construction, and an unchanged
    # calibration legitimately keeps its cached plans.
    query, db = _instance()
    first = execute(query, db, algorithm="leapfrog")
    assert execute(query, db, algorithm="leapfrog").plan.cache_hit
    refit = CostModel().calibrate(
        {"hash": (1.0, 1.0), "leapfrog": (5.0, 1.0)}
    )
    assert refit.calibration != DEFAULT_CALIBRATION
    after = plan_query(query, db, algorithm="leapfrog", cost_model=refit)
    assert not after.cache_hit
    assert first.plan.predicted_cost != after.predicted_cost


def test_malformed_log_lines_are_skipped(obs_paths):
    log = obs_paths
    log.write_text(
        "not json\n"
        + json.dumps({"backend": "leapfrog", "seconds": 0.5,
                      "quantity": 1000.0})
        + "\n"
        + json.dumps({"backend": "", "seconds": -1, "quantity": 0})
        + "\n"
    )
    runs = calibration.load_runs()
    assert len(runs) == 2  # parseable dicts
    _, info = calibration.fit(runs)
    assert info["usable_runs"] == 1


def test_calibrate_fits_only_serial_priced_runs(obs_paths):
    """A parallel record's seconds include shard overhead the fit's
    ``factor × quantity`` never predicted, and an old log's Tetris
    record prices a backend ``auto`` no longer does: both are skipped,
    so the fit comes from the serial hash record alone."""
    log = obs_paths
    records = [
        {"backend": "hash", "workers": 1, "seconds": 0.002,
         "quantity": 1000.0},
        {"backend": "leapfrog", "workers": 2, "seconds": 0.5,
         "quantity": 1000.0},
        {"backend": "tetris-reloaded", "workers": 1, "seconds": 0.9,
         "quantity": 1000.0},
    ]
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    runs = calibration.load_runs()
    model, info = calibration.fit(runs)
    assert (info["runs"], info["usable_runs"]) == (3, 1)
    assert info["samples_per_backend"] == {"hash": 1}
    assert set(model.calibration) == set(DEFAULT_CALIBRATION)
    assert model.calibration == DEFAULT_CALIBRATION
    assert model.unit_seconds == pytest.approx(0.002 / 1000.0)
    assert calibration.cost_error(runs, model) == pytest.approx(0.0)


# -- log rotation --------------------------------------------------------------


def test_calibration_log_rotates_at_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(calibration, "LOG_MAX_BYTES", 120)
    path = tmp_path / "logs" / "analyze.jsonl"
    rotated = tmp_path / "logs" / "analyze.jsonl.1"
    first, second, third = (
        {"pad": letter * 80} for letter in "abc"
    )

    def line(record):
        return json.dumps(record, sort_keys=True) + "\n"

    calibration.append_run(first, path=str(path))
    assert path.read_text() == line(first)  # under the cap: no rotation
    assert not rotated.exists()
    calibration.append_run(second, path=str(path))
    assert rotated.read_text() == line(first)
    assert path.read_text() == line(second)
    calibration.append_run(third, path=str(path))
    # One generation kept: the oldest cap's worth is gone.
    assert rotated.read_text() == line(second)
    assert path.read_text() == line(third)


def test_calibration_log_rotates(tmp_path, monkeypatch):
    monkeypatch.setattr(calibration, "LOG_MAX_BYTES", 120)
    path = tmp_path / "analyze_log.jsonl"
    record = {"backend": "hash", "seconds": 1.0, "quantity": 2.0,
              "pad": "x" * 60}
    for _ in range(3):
        calibration.append_run(record, path=str(path))
    assert (tmp_path / "analyze_log.jsonl.1").exists()
    # The newest generation still parses for the fitter.
    runs = calibration.load_runs(str(path))
    assert runs and runs[-1]["backend"] == "hash"


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

    assert main(["calibrate"]) == 0
    out = capsys.readouterr().out
    assert "1 usable of 1 runs, 0 skipped" in out
    assert "cost error" in out
    # The refit is a diff of the shipped constants, and nothing else.
    assert "--- src/repro/engine/cost.py\n+++ refit\n" in out
    for backend in DEFAULT_CALIBRATION:
        assert f'"{backend}": ' in out
    assert "DEFAULT_UNIT_SECONDS = " in out
    assert sorted(p.name for p in cli_csvs.iterdir()) == [
        "analyze_log.jsonl", "r.csv", "s.csv", "t.csv", "trace.json",
    ]


def test_cli_analyze_needs_data(capsys):
    from repro.cli import main

    assert main(["explain", "R(A,B)", "--analyze"]) == 2
    assert "needs --csv" in capsys.readouterr().err


def test_cli_calibrate_empty_log(obs_paths, capsys):
    from repro.cli import main

    assert main(["calibrate"]) == 1
    err = capsys.readouterr().err
    assert "nothing to fit" in err


def test_explain_text_has_kernels_line_and_no_metrics_block():
    from repro.engine import execute, explain_text

    query, db = _instance()
    result = execute(query, db)
    text = explain_text(result.plan, result)
    assert "├─ kernels     :" in text
    assert "├─ metrics" not in text
    assert "engine.queries" not in text
