"""Every metric the benchmark emits, declared once.

``BENCHMARK.json`` lists the same names, units, directions and bounds (a test
holds the two equal); this table adds what the manifest has no room for: the
workloads a layer metric is measured on, the end-to-end metric it should
move, and its definition.  A layer metric is reported as 0 on a workload it
is not measured on.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

PRE = "tetris_preloaded_triangle"
REL = "tetris_reloaded_path"
MIX = "auto_mix"
PAR = "parallel_star_w2"
PLAN = "plan_bound_stream"
CLI = "cli_join_csv"

#: Each workload and why it was chosen.
WORKLOADS: Dict[str, str] = {
    PRE: "Tetris-Preloaded on a random-graph triangle: gap boxes bulk-loaded "
         "into the knowledge base, then probed; indexes, dyadic_tree and "
         "tetris do the work, joins, parallel and the planner almost none.",
    REL: "Tetris-Reloaded on a random 3-path: the same core layers driven by "
         "on-demand oracle probes with interleaved inserts, so a knowledge "
         "base tuned only for bulk insert shows here.",
    MIX: "Five planner shapes back to back under algorithm=auto: compiled "
         "leapfrog/hash kernels, Yannakakis and the output sort dominate and "
         "the planner's choice is on the line; the Tetris layers are idle.",
    PAR: "Forced leapfrog on 2 workers over a 4-ray star: partition, shm "
         "dispatch, worker compute and the merge of ~240k rows; the backend "
         "is pinned so planner changes cannot move it.",
    PLAN: "160 small never-seen instances of 8 shapes, plan and stats caches "
          "emptied first: planner, stats, cost model and width LPs do the work "
          "and execution almost none - the bypass for every kernel change.",
    CLI: "`python -m repro join` as a subprocess over string-labelled CSVs: "
         "interpreter start, import, CSV parse and encode, execute, decode, "
         "print - the process boundary users pay, touched by nothing else.",
}

ALL = tuple(WORKLOADS)
IN_PROCESS = (PRE, REL, MIX, PAR, PLAN)
TETRIS = (PRE, REL)


class EndToEnd(NamedTuple):
    unit: str
    better: str
    bound: float
    definition: str


class Layer(NamedTuple):
    unit: str
    better: str
    workloads: Tuple[str, ...]
    moves: str
    definition: str


END_TO_END: Dict[str, EndToEnd] = {
    "query_s": EndToEnd(
        "s", "lower", 0.25,
        "median wall time of a steady-state operation"),
    "cold_query_s": EndToEnd(
        "s", "lower", 0.25,
        "median wall time of an operation that starts with fresh Database "
        "objects, every program cache empty and no worker pool"),
    "peak_rss_mb": EndToEnd(
        "MB", "lower", 0.05,
        "ru_maxrss of the measuring process plus the largest of its reaped "
        "children"),
    "setup_s": EndToEnd(
        "s", "lower", 0.25,
        "median time to construct the workload's Database / Relation objects "
        "from raw tuples (database_from_csvs for cli_join_csv)"),
}

_Q, _C, _S = "query_s", "cold_query_s", "setup_s"

PER_LAYER: Dict[str, Layer] = {
    # relational
    "relational.build_s": Layer("s", "lower", IN_PROCESS, _S,
        "one construction of the workload's Database objects"),
    "relational.sorted_view_s": Layer("s", "lower", IN_PROCESS, _C,
        "first db.sorted_view for every (atom, GAO-restricted order), fresh db"),
    "relational.csv_load_s": Layer("s", "lower", (CLI,), _Q,
        "database_from_csvs on the operation's files, in process"),
    # cost / stats / planner
    "cost.structure_s": Layer("s", "lower", IN_PROCESS, _C,
        "structure_of(query) over the operation's queries: acyclicity, "
        "treewidth, fhtw LPs"),
    "stats.collect_s": Layer("s", "lower", IN_PROCESS, _C,
        "collect_stats on fresh databases with the stats cache empty"),
    "planner.plan_cold_s": Layer("s", "lower", IN_PROCESS, _C,
        "plan_query summed over the operation, plan and stats caches empty"),
    "planner.plan_warm_s": Layer("s", "lower", IN_PROCESS, _Q,
        "plan_query summed over the operation, plan cache hit"),
    "planner.auto_vs_best": Layer("ratio", "lower", (MIX,), _Q,
        "auto time / best forced serial backend (leapfrog, hash, yannakakis "
        "if acyclic), geometric mean over the operation's queries"),
    "planner.auto_vs_best_max": Layer("ratio", "lower", (MIX,), _Q,
        "the largest of those ratios"),
    # codegen
    "codegen.compile_s": Layer("s", "lower", IN_PROCESS, _C,
        "first build of each plan's kernel after clear_kernel_caches()"),
    "codegen.cache_hit_ratio": Layer("ratio", "higher", IN_PROCESS, _Q,
        "kernel cache hits / lookups over the warm phase (expected 1)"),
    # indexes
    "indexes.build_s": Layer("s", "lower", TETRIS, _Q,
        "make_oracle: one GAO-consistent B-tree per atom"),
    "indexes.gap_extract_s": Layer("s", "lower", TETRIS, _Q,
        "oracle.boxes(): every lifted gap box (outside the operation on "
        "tetris_reloaded_path, which never materializes them)"),
    "indexes.gap_boxes": Layer("count", "lower", TETRIS, _Q,
        "gap boxes extracted"),
    "indexes.probe_ns": Layer("ns", "lower", TETRIS, _Q,
        "oracle.containing per seeded unit point (2000 points)"),
    "indexes.oracle_queries": Layer("count", "lower", TETRIS, _Q,
        "ResolutionStats.oracle_queries of one operation"),
    # tetris
    "tetris.run_s": Layer("s", "lower", TETRIS, _Q,
        "TetrisEngine.run on a prebuilt oracle"),
    "tetris.resolutions": Layer("count", "lower", TETRIS + (MIX,), _Q,
        "geometric resolutions of one operation (0 on auto_mix)"),
    "tetris.containment_queries": Layer("count", "lower", TETRIS, _Q,
        "knowledge-base containment probes of one operation"),
    "tetris.boxes_loaded": Layer("count", "lower", TETRIS, _Q,
        "gap boxes loaded into the knowledge base"),
    "tetris.cache_hits": Layer("count", "higher", TETRIS, _Q,
        "ResolutionStats.cache_hits of one operation"),
    "tetris.ns_per_resolution": Layer("ns", "lower", TETRIS, _Q,
        "tetris.run_s / tetris.resolutions, the paper's unit"),
    "tetris.kb_hit_ratio": Layer("ratio", "higher", TETRIS, _Q,
        "cache_hits / containment_queries"),
    "tetris.split_cert_s": Layer("s", "lower", (REL,), "none",
        "Tetris-Reloaded on split_path(2000, depth 12): N grows, |C| is O(1)"),
    "tetris.split_cert_resolutions": Layer("count", "lower", (REL,), "none",
        "resolutions of that run; must stay O(1)"),
    # dyadic_tree
    "dyadic_tree.insert_ns": Layer("ns", "lower", TETRIS, _Q,
        "add_many of the workload's gap boxes into a fresh tree, per box"),
    "dyadic_tree.probe_hit_ns": Layer("ns", "lower", TETRIS, _Q,
        "find_container per covered unit box"),
    "dyadic_tree.probe_miss_ns": Layer("ns", "lower", TETRIS, _Q,
        "find_container per output point (no container)"),
    "dyadic_tree.boxes": Layer("count", "lower", TETRIS, _Q,
        "boxes the loaded tree holds"),
    # joins
    "joins.kernel_s": Layer("s", "lower", (MIX, PAR), _Q,
        "the plan's serial kernel streamed and sorted, warm views, summed "
        "over the operation"),
    "joins.sort_s": Layer("s", "lower", (MIX, PAR), _Q,
        "sorting the kernels' unsorted streams"),
    "joins.ns_per_output_row": Layer("ns", "lower", (MIX, PAR), _Q,
        "joins.kernel_s per output row"),
    "joins.limit10_s": Layer("s", "lower", (MIX, PAR), "none",
        "the operation with limit=10: the kernels used for early termination"),
    # partition / dispatch / parallel
    "partition.partition_cold_s": Layer("s", "lower", (PAR,), _C,
        "partition_shards after clear_job_cache()"),
    "partition.partition_s": Layer("s", "lower", (PAR,), _Q,
        "ParallelReport.partition_seconds of a warm operation"),
    "partition.shards": Layer("count", "lower", (PAR,), _Q, "shards planned"),
    "partition.pruned_shards": Layer("count", "higher", (PAR,), _Q,
        "shards pruned before dispatch"),
    "partition.balance": Layer("ratio", "lower", (PAR,), _Q,
        "busiest worker's share of mean load (1 = level)"),
    "dispatch.loop_s": Layer("s", "lower", (PAR,), _Q,
        "wall time of the deal/collect loop"),
    "dispatch.busiest_worker_s": Layer("s", "lower", (PAR,), _Q,
        "the busiest worker's compute"),
    "dispatch.total_compute_s": Layer("s", "lower", (PAR,), _Q,
        "compute summed over workers"),
    "dispatch.coordination_s": Layer("s", "lower", (PAR,), _Q,
        "loop wall minus worker compute, clamped at 0"),
    "dispatch.bytes_shipped": Layer("B", "lower", (PAR,), _C,
        "wire bytes of the first operation on a new pool"),
    "dispatch.ref_hit_ratio": Layer("ratio", "higher", (PAR,), _Q,
        "worker-cache reference hits / references, warm operation"),
    "dispatch.pool_start_s": Layer("s", "lower", (PAR,), _C,
        "first operation on a new pool minus query_s"),
    "dispatch.leaked_segments": Layer("count", "lower", (PAR,), "none",
        "new /dev/shm entries after shutdown_pools(); must be 0"),
    "parallel.serial_twin_s": Layer("s", "lower", (PAR,), "none",
        "the same call without workers"),
    "parallel.speedup_wallclock": Layer("ratio", "higher", (PAR,), _Q,
        "serial twin / query_s"),
    "parallel.auto_w2_vs_best": Layer("ratio", "lower", (PAR,), "none",
        "execute(auto, workers=2) / min(serial twin, forced parallel)"),
    # executor
    "executor.unattributed_s": Layer("s", "lower", ALL, _Q,
        "query_s minus the traced operation's child spans; may be slightly "
        "negative"),
    "executor.query_q3_s": Layer("s", "lower", ALL, _Q,
        "upper quartile of the traced run's untraced operations"),
    # obs
    "obs.trace_on_ratio": Layer("ratio", "lower", (PRE, REL, PLAN), _Q,
        "operation time with repro.obs tracing enabled / query_s"),
    "obs.metrics_off_ratio": Layer("ratio", "higher", (PRE, REL, PLAN), _Q,
        "operation time with the metrics registry disabled / query_s"),
    # cli
    "cli.interp_start_s": Layer("s", "lower", (CLI,), _Q, "python -c pass"),
    "cli.import_s": Layer("s", "lower", (CLI,), _Q,
        'python -c "import repro.cli" minus cli.interp_start_s'),
    "cli.execute_s": Layer("s", "lower", (CLI,), _Q,
        "execute(decode=dictionary) in process, caches empty"),
    "cli.output_s": Layer("s", "lower", (CLI,), _Q,
        "decoding and formatting the rows"),
    # the benchmark itself
    "bench.trace_overhead_ratio": Layer("ratio", "lower", ALL, "none",
        "traced operation wall / query_s"),
    "bench.host_factor": Layer("ratio", "lower", ALL, "none",
        "the host probe's median over the traced run / its reference time: "
        "how slow the host was; layer metrics in s and ns are divided by it"),
}


def declared_on(workload: str) -> Tuple[str, ...]:
    """The layer metrics measured on ``workload``."""
    return tuple(n for n, layer in PER_LAYER.items() if workload in layer.workloads)
