"""OpenMetrics exposition: the registry in a format a scraper ingests.

:func:`render_openmetrics` turns any :class:`~repro.obs.metrics.
MetricsSnapshot` into OpenMetrics text — counters as ``_total``
samples, gauges as-is, quantile histograms as cumulative
``_bucket{le="..."}`` series with ``_count``/``_sum`` (the log-bucket
boundaries are exposed exactly, so PromQL ``histogram_quantile`` agrees
with the in-process estimates up to the same bounded error) — ending
with the mandatory ``# EOF``.

``repro metrics --openmetrics`` prints the live registry this way.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.obs.metrics import (
    MetricsSnapshot,
    QuantileHistogram,
    REGISTRY,
    _GAUGE,
)

#: Every exposed name is prefixed — a scrape config sees one namespace.
PREFIX = "repro_"

_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _name(dotted: str) -> str:
    return PREFIX + _SANITIZE.sub("_", dotted)


def _num(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        return "NaN" if v != v else ("+Inf" if v > 0 else "-Inf")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.9g}"


def _hist_lines(name: str, h: QuantileHistogram) -> List[str]:
    """One histogram as cumulative bucket series plus count/sum and
    the running extremes (as companion gauges)."""
    lines = [f"# TYPE {name} histogram"]
    cum = h.zero
    if h.zero:
        lines.append(f'{name}_bucket{{le="0"}} {cum}')
    for index, count in h.bucket_items():
        cum += count
        upper = QuantileHistogram.bucket_upper(index)
        lines.append(f'{name}_bucket{{le="{_num(upper)}"}} {cum}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {h.count}')
    lines.append(f"{name}_count {h.count}")
    lines.append(f"{name}_sum {_num(h.total)}")
    if h.count > 0:
        lines.append(f"# TYPE {name}_min gauge")
        lines.append(f"{name}_min {_num(h.lo)}")
        lines.append(f"# TYPE {name}_max gauge")
        lines.append(f"{name}_max {_num(h.hi)}")
    return lines


def render_openmetrics(snap: Optional[MetricsSnapshot] = None) -> str:
    """An OpenMetrics text document of a snapshot (default: live)."""
    if snap is None:
        snap = REGISTRY.snapshot()
    hist_names = {name for name, _ in snap.hist_items()}
    counters = []
    gauges = []
    for flat in snap:
        base, _, suffix = flat.rpartition(".")
        if base in hist_names and suffix in ("count", "sum", "min", "max"):
            continue  # owned by the histogram series
        if snap.kind_of(flat) == _GAUGE:
            gauges.append(flat)
        else:
            counters.append(flat)
    lines: List[str] = []
    for flat in counters:
        name = _name(flat)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}_total {_num(snap[flat])}")
    for flat in gauges:
        name = _name(flat)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_num(snap[flat])}")
    for dotted, h in snap.hist_items():
        lines.extend(_hist_lines(_name(dotted), h))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
