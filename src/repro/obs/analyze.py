"""EXPLAIN ANALYZE: execute a plan and annotate it with what happened.

:func:`analyze` runs a query under a forced tracer and returns an
:class:`AnalyzeReport`: the execution result, per-stage wall times from
the span tree, and actual-vs-predicted cardinality and cost (the cost
model prices a plan in seconds via
:meth:`~repro.engine.cost.CostModel.predicted_seconds`).  ``repro
explain --analyze`` renders the report under the ordinary EXPLAIN tree;
nothing is written anywhere.

The rendered span tree is the query's waterfall, attributed exactly
from the spans: every span with children shows its self time (the
wall time no child covers, overlapping children counted once), and
one ``unaccounted`` line closes the tree — the part of the plan +
execute window that no root span covers.

The measured cost is the ``execute`` span; an unordered stream's sort
runs under its own ``sort`` span inside it.  A forced-only backend's
plan is unpriced: its report shows the measured time alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs import tracing as _tracing
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.metrics import MetricsSnapshot, render_metrics


@dataclass
class AnalyzeReport:
    """One ANALYZE run: the result plus the predicted-vs-actual story."""

    result: object  # ExecutionResult
    tracer: object  # Tracer
    #: Total wall seconds per span name (a stage may run many spans —
    #: 16 shards, several kernel compiles — so values are sums).
    stage_seconds: Dict[str, float]
    predicted_rows: float
    actual_rows: int
    #: ``None`` for an unpriced (forced-only) plan.
    predicted_seconds: Optional[float]
    actual_seconds: float
    #: |log₂(actual/predicted seconds)|; ``None`` unless both are
    #: positive.
    error_bits: Optional[float]
    #: Wall seconds of the plan + execute window ``analyze`` timed.
    window_seconds: float
    #: The part of that window no root span covers.
    unaccounted_seconds: float
    #: The registry delta across this run (``None`` with the registry
    #: off): ``MetricsSnapshot.since`` bracketed around ``execute()``.
    metrics: Optional[MetricsSnapshot] = None


def _stage_seconds(tracer) -> Dict[str, float]:
    out: Dict[str, float] = {}
    tracer._close_open()
    for span in tracer.spans:
        out[span.name] = out.get(span.name, 0.0) + span.duration
    return out


def analyze(
    query,
    db,
    algorithm: str = "auto",
    index_kind: Optional[str] = None,
    gao=None,
    workers: Optional[int] = None,
    limit: Optional[int] = None,
    decode=None,
    timeout_ms: Optional[int] = None,
) -> AnalyzeReport:
    """Plan and execute a query traced; measure the plan against reality.

    The run always traces (ANALYZE is the one mode where span overhead
    is the product, not a tax).  ``timeout_ms`` is ``execute()``'s
    deadline for a parallel run.
    """
    from repro.engine.cost import CostModel
    from repro.engine.executor import execute
    from repro.engine.planner import plan_query

    tracer = _tracing.current_tracer()
    if tracer is None:
        tracer = _tracing.Tracer()
    metrics_before = _METRICS.snapshot() if _METRICS.enabled else None
    with _tracing.use(tracer):
        t0 = time.perf_counter()
        plan = plan_query(
            query, db, algorithm=algorithm, index_kind=index_kind,
            gao=gao, workers=workers,
        )
        result = execute(
            query, db, plan=plan, limit=limit, decode=decode,
            timeout_ms=timeout_ms,
        )
        t1 = time.perf_counter()
    metrics = (
        _METRICS.snapshot().since(metrics_before)
        if metrics_before is not None
        else None
    )
    stages = _stage_seconds(tracer)
    roots = ((n.span.start, n.span.end) for n in tracer.tree())
    unaccounted = (t1 - t0) - _tracing.covered_seconds(roots, t0, t1)
    # The execute stage is the window the cost model prices: planning
    # and stats collection are pipeline overhead, not Table 1 work.
    actual_seconds = stages.get("execute", result.elapsed)
    predicted_seconds = (
        None
        if plan.predicted_cost is None
        else CostModel.predicted_seconds(plan.predicted_cost)
    )
    error_bits = (
        abs(math.log2(actual_seconds / predicted_seconds))
        if actual_seconds > 0 and predicted_seconds
        else None
    )
    return AnalyzeReport(
        result=result,
        tracer=tracer,
        stage_seconds=stages,
        predicted_rows=plan.stats.output_estimate,
        actual_rows=len(result.tuples),
        predicted_seconds=predicted_seconds,
        actual_seconds=actual_seconds,
        error_bits=error_bits,
        window_seconds=t1 - t0,
        unaccounted_seconds=unaccounted,
        metrics=metrics,
    )


def _ratio(actual: float, predicted: float) -> str:
    if predicted <= 0 or actual <= 0:
        return "n/a"
    r = actual / predicted
    return f"{r:.2f}×" if r >= 1 else f"1/{1 / r:.2f}×"


def render_analyze(report: AnalyzeReport) -> str:
    """The ANALYZE postscript: the waterfall, cardinality, cost, metrics."""
    lines: List[str] = ["analyze"]
    lines.append("├─ stages (wall time)")
    unaccounted = (
        f"{'unaccounted':<18s} {report.unaccounted_seconds * 1e3:9.3f} ms"
        f"  of {report.window_seconds * 1e3:.3f} ms plan + execute"
    )
    lines.extend(
        _tracing.render_tree(
            report.tracer.tree(), indent="│   ", tail=unaccounted
        )
    )
    lines.append(
        f"├─ cardinality : actual {report.actual_rows} vs "
        f"predicted Ẑ ≈ {report.predicted_rows:.4g}  "
        f"({_ratio(report.actual_rows, report.predicted_rows)})"
    )
    measured = f"actual {report.actual_seconds * 1e3:.3f} ms"
    if report.predicted_seconds is None:
        lines.append(f"├─ cost        : {measured}  (forced; not priced)")
    else:
        error = (
            ""
            if report.error_bits is None
            else f"error {report.error_bits:.2f} bits, "
        )
        lines.append(
            f"├─ cost        : {measured} vs predicted "
            f"{report.predicted_seconds * 1e3:.3f} ms  ({error}"
            f"{_ratio(report.actual_seconds, report.predicted_seconds)})"
        )
    if report.metrics is not None:
        lines.append("├─ metrics")
        lines.extend(render_metrics(report.metrics, indent="│   "))
    return "\n".join(lines)

