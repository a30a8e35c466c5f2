"""EXPLAIN rendering: a Plan as a human-readable decision tree.

``render_plan`` shows the structural evidence, the statistics, every
candidate's instantiated Table 1 formula with its calibrated cost, and
the chosen backend (a forced-only one ``forced; not priced``);
``render_execution`` appends the predicted-vs-actual section after a
run.  Output is deterministic for fixed inputs (timings are confined to
the execution section), which the golden CLI test relies on.
"""

from __future__ import annotations

import itertools
from typing import List

from repro.engine.codegen import kernel_cache_summary
from repro.engine.executor import ExecutionResult
from repro.engine.planner import Plan


def _fmt(x: float) -> str:
    """Stable short formatting for costs/estimates (no platform drift)."""
    if x != x or x in (float("inf"), float("-inf")):
        return "∞"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.4g}"


def render_plan(plan: Plan) -> str:
    """The EXPLAIN tree of a plan."""
    s = plan.structure
    st = plan.stats
    # query.variables: attributes in first-appearance order over atoms.
    variables = tuple(
        dict.fromkeys(a for p in st.relations for a in p.attrs)
    )
    # The plan's GAO: the order it binds variables in (hash's binding
    # order, leapfrog's and Tetris's GAO); an order-priced backend under
    # the output order emits sorted rows.
    order_note = (
        "  (sort: none)"
        if plan.chosen.gao is not None and plan.gao == variables
        else ""
    )
    lines: List[str] = []
    lines.append("EXPLAIN")
    lines.append("├─ structure")
    lines.append(f"│   ├─ α-acyclic   : {s.acyclic}")
    lines.append(f"│   ├─ treewidth   : {s.treewidth}")
    lines.append(f"│   ├─ fhtw ≤      : {_fmt(s.fhtw_upper)}")
    lines.append(
        f"│   ├─ GAO         : {', '.join(plan.gao)}{order_note}"
    )
    lines.append(f"│   └─ Table 1 row : {s.table1_row}")
    source = "assumed (no data)" if st.assumed else "measured"
    lines.append(f"├─ statistics [{source}]")
    lines.append(
        f"│   ├─ N = {st.total_tuples} tuples over "
        f"{len(st.relations)} relations, domain depth {st.domain_depth}"
    )
    for p in st.relations:
        distinct = ", ".join(
            f"d({a})={p.distinct_of(a)}" for a in p.attrs
        )
        lines.append(f"│   ├─ {p.name}: |{p.name}|={p.cardinality}  {distinct}")
    lines.append(
        f"│   └─ Ẑ ≈ {_fmt(st.output_estimate)}  "
        f"(AGM {_fmt(st.agm)}, independence "
        f"{_fmt(st.independence_estimate)})"
    )
    lines.append("├─ candidates")

    def display(c) -> str:
        return f"{c.backend} ∥{c.workers}" if c.parallel else c.backend

    def candidate_order(c) -> str:
        """The sort term, and for a planner-picked GAO the order itself."""
        note = f"  + sort {_fmt(c.sort)}"
        if c.gao is not None:
            suffix = (
                ": emits in output order" if c.gao == variables else ""
            )
            note += f"  [GAO {', '.join(c.gao)}{suffix}]"
        return note

    width = max(len(display(c)) for c in plan.candidates)
    ordered = sorted(plan.candidates, key=lambda c: c.cost)
    for i, c in enumerate(ordered):
        branch = "└─" if i == len(ordered) - 1 else "├─"
        marker = " ◀" if c == plan.chosen else ""
        lines.append(
            f"│   {branch} {display(c):<{width}}  "
            f"cost≈{_fmt(c.cost):>10}  {c.formula}{candidate_order(c)}"
            f"{marker}"
        )
    cached = ", cached plan" if plan.cache_hit else ""
    price = (
        plan.chosen.formula
        if plan.predicted_cost is None
        else f"predicted cost {_fmt(plan.predicted_cost)}"
    )
    lines.append(
        f"└─ plan: {plan.backend}  (index {plan.index_kind}; "
        f"{price}{cached})"
    )
    if plan.num_shards > 1:
        lines.append(
            f"    └─ parallel: {plan.workers} worker"
            f"{'s' if plan.workers != 1 else ''} × {plan.num_shards} "
            f"shards, split on ({', '.join(plan.split_attrs)})"
        )
    return "\n".join(lines)


#: Decoded output rows shown by ``repro explain --execute`` before the
#: rendering elides the rest.
_MAX_RENDERED_ROWS = 20

#: Shards listed individually in the EXPLAIN shard tree (busiest first)
#: before the rendering elides the rest.
_MAX_RENDERED_SHARDS = 8


def _render_shard_tree(report) -> List[str]:
    """The parallel section of an executed plan: totals, then the shard
    tree — every executed shard's dyadic cell, worker, output size and
    in-worker compute time (busiest first)."""
    split = ", ".join(report.split_attrs)
    resh = (
        f" (+{report.rows_reshipped} re-shipped, "
        f"{report.shards_stolen} stolen)"
        if report.rows_reshipped or report.shards_stolen
        else ""
    )
    lines = [
        f"├─ parallel    : {report.workers} workers × "
        f"{report.executed_shards} shards run "
        f"({report.shards_in_parent} in parent), "
        f"{report.pruned_shards} pruned (split on {split})",
        f"│   ├─ shipped  : {report.rows_shipped} rows{resh}, "
        f"{report.bytes_shipped} B wire "
        f"(nominal {report.bytes_nominal} B), ref hits "
        f"{report.ref_hits}/{report.refs_total}",
    ]
    if report.shm_ships or report.shm_fallbacks:
        lines.append(
            f"│   ├─ shm      : {report.shm_ships} segment refs, "
            f"{report.shm_attached_bytes} B attached in "
            f"{report.shm_attaches} attaches "
            f"({report.shm_attach_seconds:.4f}s), "
            f"{report.shm_fallbacks} fallbacks"
        )
    if report.had_faults:
        serial = report.shards_quarantined + report.serial_fallback_shards
        notes = [
            f"{report.worker_respawns} workers respawned",
            f"{serial} run serially in-parent",
        ]
        if report.shm_export_errors:
            notes.append(
                f"{report.shm_export_errors} shm exports degraded"
            )
        if report.timed_out:
            notes.append("DEADLINE EXCEEDED (partial run)")
        lines.append(f"│   ├─ faults   : {', '.join(notes)}")
    lines.append(
        f"│   ├─ makespan : {report.makespan_seconds:.4f}s "
        f"(busiest worker {report.max_worker_seconds:.4f}s, "
        f"partition {report.partition_seconds:.4f}s, "
        f"balance {report.balance:.2f})"
    )
    details = sorted(report.shard_details, key=lambda d: -d[3])
    shown = details[:_MAX_RENDERED_SHARDS]
    for i, (desc, worker, rows, seconds) in enumerate(shown):
        last = i == len(shown) - 1 and len(details) <= len(shown)
        branch = "└─" if last else "├─"
        where = "parent (serial)" if worker < 0 else f"worker {worker}"
        lines.append(
            f"│   {branch} {desc}  → {where}: {rows} rows, "
            f"{seconds:.4f}s"
        )
    hidden = len(details) - len(shown)
    if hidden > 0:
        lines.append(f"│   └─ … {hidden} more shards")
    return lines


def render_execution(result: ExecutionResult) -> str:
    """Predicted-vs-actual postscript for an executed plan.

    When the result carries dictionary-decoded rows (``execute(...,
    decode=dictionary)``), a sample of them is appended so EXPLAIN output
    shows real values, not dictionary codes.
    """
    plan = result.plan
    tuple_note = (
        f"{len(result.tuples)} (limit {result.limit})"
        if result.limit is not None
        else f"{len(result.tuples)} "
        f"(predicted Ẑ ≈ {_fmt(plan.stats.output_estimate)})"
    )
    lines = [
        "execution",
        f"├─ backend     : {result.backend}",
        f"├─ tuples      : {tuple_note}",
        f"├─ wall time   : {result.elapsed:.4f}s",
        f"├─ kernels     : {kernel_cache_summary()}",
    ]
    if result.parallel is not None:
        lines.extend(_render_shard_tree(result.parallel))
    if result.decode is None:
        lines.append(f"└─ engine work : {result.stats.summary()}")
    else:
        lines.append(f"├─ engine work : {result.stats.summary()}")
        lines.append(
            f"└─ output ({', '.join(result.variables)}), decoded"
        )
        # Decode only the rendered sample — decoded_rows() is lazy.
        sample = itertools.islice(
            result.decoded_rows(), _MAX_RENDERED_ROWS
        )
        for row in sample:
            lines.append("    " + ", ".join(str(v) for v in row))
        hidden = len(result.tuples) - _MAX_RENDERED_ROWS
        if hidden > 0:
            lines.append(f"    … {hidden} more rows")
    return "\n".join(lines)


def explain_text(
    plan: Plan, result: "ExecutionResult | None" = None
) -> str:
    """Full EXPLAIN output: the plan tree plus execution stats if run."""
    text = render_plan(plan)
    if result is not None:
        text = f"{text}\n{render_execution(result)}"
    return text
