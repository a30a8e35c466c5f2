"""The sampling profiler: off by default, harmless when on.

The contract: the query path never starts a thread and never changes a
result; once :func:`profiler.install` has run, samples accumulate,
attribute to the ambient span stage, and export as collapsed stacks.
"""

import time

import pytest

from repro.obs import profiler, tracing


@pytest.fixture(autouse=True)
def _pristine_profiler(monkeypatch):
    """No profiler before or after."""
    profiler.uninstall()
    monkeypatch.setattr(profiler, "_PROFILER", None)
    yield
    profiler.uninstall()


def _spin(prof, min_ticks=3, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while prof.ticks < min_ticks and time.monotonic() < deadline:
        sum(i * i for i in range(2000))
    return prof.ticks


def test_disabled_profiler_leaves_execution_identical():
    """A query with no profiler == a query with one: same rows, and
    the disabled path touches no profiler state at all."""
    from repro.engine import execute
    from repro.workloads.generators import (
        graph_triangle_db,
        random_graph_edges,
    )

    query, db = graph_triangle_db(random_graph_edges(25, 60, seed=3))
    baseline = execute(query, db).tuples
    assert profiler.active() is None  # the run installed nothing
    prof = profiler.install(hz=300)
    try:
        profiled = execute(query, db).tuples
    finally:
        profiler.uninstall()
    assert profiled == baseline


def test_samples_accumulate_and_attribute_to_spans():
    prof = profiler.install(hz=500)
    try:
        tracer = tracing.Tracer()
        with tracing.use(tracer):
            with tracer.span("backend[hash]"):
                _spin(prof)
    finally:
        profiler.uninstall()
    assert prof.ticks >= 3
    stages = {stage for stage, _ in prof.samples}
    # Bracketed span names collapse to their base stage.
    assert "backend" in stages or profiler.UNTRACED in stages
    total = prof.stage_self_seconds()
    assert abs(sum(total.values()) - prof.ticks / prof.hz) < 1e-9


def test_folded_and_speedscope_exports(tmp_path):
    prof = profiler.SamplingProfiler(hz=1000)
    prof.samples = {
        ("plan", ("a.py:main", "b.py:inner")): 3,
        (profiler.UNTRACED, ("a.py:main",)): 1,
    }
    folded = prof.folded()
    assert "plan;a.py:main;b.py:inner 3" in folded
    assert f"{profiler.UNTRACED};a.py:main 1" in folded
    out = tmp_path / "prof.folded"
    prof.write_folded(str(out))
    assert out.read_text().strip().splitlines() == folded


def test_analyze_reports_profile_stage_seconds():
    from repro.obs.analyze import analyze, render_analyze
    from repro.workloads.generators import (
        graph_triangle_db,
        random_graph_edges,
    )

    query, db = graph_triangle_db(random_graph_edges(30, 80, seed=9))
    profiler.install(hz=500)
    try:
        report = analyze(query, db, append_log=False)
    finally:
        profiler.uninstall()
    assert report.profile_hz == 500
    assert report.profile_stage_seconds is not None
    text = render_analyze(report)
    assert "profile" in text and "500 Hz" in text


def test_analyze_without_profiler_renders_no_profile_section():
    from repro.obs.analyze import analyze, render_analyze
    from repro.workloads.generators import (
        graph_triangle_db,
        random_graph_edges,
    )

    query, db = graph_triangle_db(random_graph_edges(20, 50, seed=1))
    report = analyze(query, db, append_log=False)
    assert report.profile_stage_seconds is None
    assert "sampled self-time" not in render_analyze(report)
