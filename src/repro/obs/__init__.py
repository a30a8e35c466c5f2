"""Observability: metrics, tracing, exposition, the ANALYZE waterfall.

Importing this package loads what every query uses — both stdlib-only,
so every engine layer can instrument itself without import cycles:

* :mod:`repro.obs.metrics` — the process-wide :data:`~repro.obs.metrics.REGISTRY`
  of counters/gauges/quantile histograms under dotted names, each
  declared once (kind, unit, help) in its ``CATALOGUE``, with
  snapshot/diff and the cross-process wire-delta helpers.
* :mod:`repro.obs.tracing` — span trees over the query lifecycle,
  propagated across the multiprocess pipe protocol, with each span's
  self time; JSONL and Chrome trace-event export.

The rest answers a question somebody asked and is imported by whoever
asks it — reach these explicitly:

* :mod:`repro.obs.analyze` — EXPLAIN ANALYZE: the query's waterfall
  (wall and self time per span, the unaccounted rest) against the cost
  model's prediction (imports the engine).
* :mod:`repro.obs.export` — OpenMetrics text exposition, ``# HELP`` and
  ``# UNIT`` from the catalogue (``repro metrics --openmetrics``).
"""

from repro.obs import metrics, tracing
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    MetricsSnapshot,
    QuantileHistogram,
    render_metrics,
)
from repro.obs.tracing import (
    Span,
    SpanNode,
    Tracer,
    chrome_trace_events,
    current_tracer,
    render_tree,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "MetricsSnapshot",
    "QuantileHistogram",
    "Span",
    "SpanNode",
    "Tracer",
    "chrome_trace_events",
    "current_tracer",
    "metrics",
    "render_metrics",
    "render_tree",
    "tracing",
    "write_chrome_trace",
    "write_jsonl",
]
