"""Printing one result file, and comparing two.

Times are host-normalised seconds (see ``measure.host_probe``).  Ratios are
B / A with A as the base.  An end-to-end metric is ``worse`` when
B's median is worse than A's by more than the metric's bound, and
``unresolved`` when either file's run-to-run quartile spread (over its rounds'
medians) is itself wider than the bound.  Counts are compared for equality.
"""

from __future__ import annotations

import statistics
from typing import List, Tuple

from metrics import END_TO_END, PER_LAYER


def spread(per_round: List[float]) -> float:
    """Quartile distance of the rounds' medians, as a share of their median.

    With three rounds the default (exclusive) quartiles are the minimum and
    the maximum; the inclusive ones interpolate inside the data instead.
    """
    if len(per_round) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(per_round, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(per_round)


def _fmt(value: float, unit: str) -> str:
    if unit == "count":
        return f"{value:.0f}"
    return f"{value:.4g}"


def render(result: dict) -> str:
    """Every metric of one result file, by name, with its unit."""
    lines = [
        f"seed {result['seed']}  quick={result['quick']}  "
        f"rounds={result['rounds']} x {result['seconds']} s  "
        f"commit {result['host'].get('git_commit')}"
    ]
    for name, w in result["workloads"].items():
        factors = ", ".join(f"{f:.2f}" for f in w["host_factor"])
        lines.append(f"\n{name}  (error_rate {w['error_rate']:.3g}, "
                     f"{w['failed']}/{w['attempted']} operations failed; "
                     f"host_factor per round {factors})")
        for metric, m in w["end_to_end"].items():
            lines.append(
                f"  {metric:<28}{_fmt(m['value'], m['unit']):>12} {m['unit']:<6}"
                f" n={m['samples']:<4} q1={m['q1']:.4g} q3={m['q3']:.4g}"
                f" spread={spread(m['per_round']):.3f}")
        wf = w["waterfall"]
        lines.append(f"  waterfall of the median traced operation "
                     f"({wf['operation_s']:.4g} s):")
        for layer, seconds in sorted(wf["layers"].items(), key=lambda kv: -kv[1]):
            lines.append(f"    {layer:<26}{seconds:>12.4g} s "
                         f"{100 * seconds / wf['operation_s']:>5.1f} %")
        lines.append(f"    {'(self)':<26}{wf['self_s']:>12.4g} s")
        for metric, m in w["per_layer"].items():
            lines.append(
                f"  {metric:<28}{_fmt(m['value'], m['unit']):>12} {m['unit']}")
        for error in w["errors"]:
            lines.append(f"  ERROR {error}")
    return "\n".join(lines)


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def compare(a: dict, b: dict) -> Tuple[str, int]:
    """The comparison table and the number of ``worse`` verdicts."""
    lines = [f"A: seed {a['seed']} commit {a['host'].get('git_commit')}",
             f"B: seed {b['seed']} commit {b['host'].get('git_commit')}",
             "ratio = B / A"]
    worse = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        lines.append(f"\n{name}")
        for metric, spec in END_TO_END.items():
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            noise = max(spread(ma["per_round"]), spread(mb["per_round"]))
            if _worse_by(ma["value"], mb["value"], spec.better) > spec.bound:
                verdict = "worse"
                worse += 1
            elif noise > spec.bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(
                f"  {metric:<28}{ma['value']:>11.4g}{mb['value']:>11.4g} "
                f"{spec.unit:<4} ratio {mb['value'] / ma['value']:.3f}  "
                f"bound {spec.bound:.2f}  spread {noise:.3f}  {verdict}")
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                worse += 1
                lines.append(f"  error_rate {side}: {w['error_rate']:.3g}  worse")
        for metric in wa["per_layer"]:
            if metric not in wb["per_layer"]:
                continue
            va, vb = wa["per_layer"][metric]["value"], wb["per_layer"][metric]["value"]
            unit = PER_LAYER[metric].unit
            if unit == "count":
                note = "same" if va == vb else "DIFFERENT"
            else:
                note = f"ratio {vb / va:.3f}" if va else ""
            lines.append(
                f"  {metric:<28}{_fmt(va, unit):>11}{_fmt(vb, unit):>11} "
                f"{unit:<5} {note}")
    return "\n".join(lines), worse
