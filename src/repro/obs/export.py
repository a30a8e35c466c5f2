"""OpenMetrics exposition: the registry in a format a scraper ingests.

:func:`render_openmetrics` turns any :class:`~repro.obs.metrics.
MetricsSnapshot` into OpenMetrics text — counters as ``_total``
samples, gauges as-is, quantile histograms as cumulative
``_bucket{le="..."}`` series with ``_count``/``_sum`` (the log-bucket
boundaries are exposed exactly, so PromQL ``histogram_quantile`` agrees
with the in-process estimates up to the same bounded error) — ending
with the mandatory ``# EOF``.  A declared family carries the ``# HELP``
and ``# UNIT`` of its :data:`~repro.obs.metrics.CATALOGUE` entry, and a
unit-bearing name ends in ``_<unit>`` (``repro_query_latency_seconds``).

``repro metrics --openmetrics`` prints the live registry this way.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.obs.metrics import (
    CATALOGUE,
    MetricsSnapshot,
    QuantileHistogram,
    REGISTRY,
    _COUNTER,
    _HIST,
    declaring,
)

#: Every exposed name is prefixed — a scrape config sees one namespace.
PREFIX = "repro_"

_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _family(dotted: str, kind: str) -> Tuple[str, List[str]]:
    """A family's exposed name and metadata lines: ``# HELP`` when it is
    declared, ``# TYPE``, and ``# UNIT`` (which also ends the name) when
    it has a unit."""
    name = PREFIX + _SANITIZE.sub("_", dotted)
    key = declaring(dotted)
    if key is None:
        return name, [f"# TYPE {name} {kind}"]
    _, unit, help_text = CATALOGUE[key]
    if unit and not name.endswith(f"_{unit}"):
        name += f"_{unit}"
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
    if unit:
        lines.append(f"# UNIT {name} {unit}")
    return name, lines


def _num(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        return "NaN" if v != v else ("+Inf" if v > 0 else "-Inf")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.9g}"


def _hist_lines(dotted: str, h: QuantileHistogram) -> List[str]:
    """One histogram as cumulative bucket series plus count/sum and
    the running extremes (as companion gauges)."""
    name, lines = _family(dotted, _HIST)
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
        declared = declaring(dotted) is not None
        for suffix, value, which in (
            ("min", h.lo, "Smallest"), ("max", h.hi, "Largest"),
        ):
            if declared:
                lines.append(
                    f"# HELP {name}_{suffix} {which} sample of {name}."
                )
            lines.append(f"# TYPE {name}_{suffix} gauge")
            lines.append(f"{name}_{suffix} {_num(value)}")
    return lines


def render_openmetrics(snap: Optional[MetricsSnapshot] = None) -> str:
    """An OpenMetrics text document of a snapshot (default: live)."""
    if snap is None:
        snap = REGISTRY.snapshot()
    lines: List[str] = []
    for flat in snap:
        kind = snap.kind_of(flat)
        if kind == _HIST:
            continue  # a histogram's scalars belong to its series below
        name, meta = _family(flat, kind)
        lines.extend(meta)
        total = "_total" if kind == _COUNTER else ""
        lines.append(f"{name}{total} {_num(snap[flat])}")
    for dotted, h in snap.hist_items():
        lines.extend(_hist_lines(dotted, h))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
