"""The six workloads: the operation, its stepwise twin and the layer probes.

Every workload gives the measurement loop the same things: ``build`` (what
``setup_s`` times), ``op`` (one operation through the public entry point),
``traced_op`` (the same work through the stepwise driver, inside spans) and
the layer probes of the traced run.  The raw inputs come from ``inputs``.
"""

from __future__ import annotations

import gc
import io
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dyadic_tree import MultilevelDyadicTree
from repro.engine import (
    clear_kernel_caches,
    clear_plan_cache,
    clear_stats_cache,
    collect_stats,
    execute,
    kernel_cache_info,
    plan_query,
    structure_of,
)
from repro.engine.codegen import hash_kernel, leapfrog_kernel, tetris_kernel
from repro.joins.hashjoin import iter_hash
from repro.joins.leapfrog import iter_leapfrog
from repro.joins.tetris_join import make_oracle
from repro.joins.yannakakis import iter_yannakakis
from repro.parallel import clear_job_cache, partition_shards, shutdown_pools
from repro.relational.io import database_from_csvs, parse_query

import inputs
from metrics import CLI, MIX, PAR, PLAN, PRE, REL
from spans import Span, Tracer
from stepwise import Call, build_call, run_call, tetris_engine

Row = Tuple[int, ...]
Metrics = Dict[str, float]

OP_TIMEOUT_S = 60.0


def clear_program_caches() -> None:
    """Empty every cache the program owns, and stop its worker pools."""
    clear_plan_cache()  # drops the stats cache with it
    clear_kernel_caches()
    clear_job_cache()
    shutdown_pools()


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    gc.collect()
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def median_time(fn: Callable[[], object], reps: int = 3) -> Tuple[float, object]:
    samples = []
    value = None
    for _ in range(reps):
        seconds, value = timed(fn)
        samples.append(seconds)
    return statistics.median(samples), value


def span_sums(tracer: Tracer) -> Dict[str, float]:
    """Per span name, the median over operations of its summed duration."""
    per_op = [tracer.by_name(root) for root in tracer.roots()]
    names = {name for sums in per_op for name in sums}
    return {
        name: statistics.median(sums.get(name, 0.0) for sums in per_op)
        for name in names
    }


def unit_box(point: Sequence[int], depth: int) -> Tuple[int, ...]:
    """The packed unit box of a point: one marker-bit int per dimension."""
    return tuple((1 << depth) | v for v in point)


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class Probe:
    """What the traced run hands the layer probes.

    ``plain`` / ``traced`` are the wall times of the alternating untraced and
    stepwise operations, ``results`` the last untraced operation's outputs;
    ``record`` logs one more operation so that it is verified like the rest.
    """

    def __init__(self, workload, calls, tracer, plain, traced, results,
                 record, seed, quick, shm_before, kernels_before):
        self.workload = workload
        self.calls = calls
        self.tracer = tracer
        self.plain = plain
        self.traced = traced
        self.results = results
        self.record = record
        self.seed = seed
        self.quick = quick
        self.shm_before = shm_before
        self.kernels_before = kernels_before
        self.query_s = statistics.median(plain)
        self.sums = span_sums(tracer)
        self.info: Dict[str, object] = {}

    def timed_op(self, phase: str, fn: Callable[[], list], first: int = 0,
                 check: Optional[Callable[[list], Optional[str]]] = None) -> float:
        """Median wall time of three runs of ``fn``, each verified.

        The outputs answer instances ``first``, ``first + 1``…; ``check``
        replaces the reference comparison where the full join is not asked for.
        """
        samples = []
        for _ in range(3):
            seconds, out = timed(fn)
            rows = self.workload.rows_of(out)
            if check is None:
                self.record(phase, seconds, rows, first=first)
            else:
                self.record(phase, seconds, error=check(rows))
            samples.append(seconds)
        return statistics.median(samples)


class Workload:
    """What the measurement loop needs from a workload."""

    name = ""
    #: Cold operations are timed apart from warm ones.
    has_cold_phase = True
    workers: Optional[int] = None

    def prepare(self, instances, workdir: str) -> None:
        """Benchmark-side, untimed preparation (files on disk)."""

    def build(self, instances):
        raise NotImplementedError

    def op(self, state) -> list:
        raise NotImplementedError

    def traced_op(self, state, tracer: Tracer) -> list:
        raise NotImplementedError

    @staticmethod
    def rows_of(outputs: list) -> List[Sequence[Row]]:
        return [getattr(out, "tuples", out) for out in outputs]

    def cold_layers(self, instances, record) -> Metrics:
        return {}

    def warm_layers(self, p: Probe) -> Metrics:
        # Untraced and stepwise operations alternate, so each pair met the
        # same host conditions: medians of paired differences and ratios.
        children = [sum(p.tracer.by_name(r).values()) for r in p.tracer.roots()]
        return {
            "executor.unattributed_s": statistics.median(
                plain - spans for plain, spans in zip(p.plain, children)),
            "executor.query_q3_s": statistics.quantiles(p.plain, n=4)[2],
            "bench.trace_overhead_ratio": statistics.median(
                traced / plain for plain, traced in zip(p.plain, p.traced)),
        }


class InProcess(Workload):
    """Every instance goes through ``execute()`` in the measuring process."""

    algorithm = "auto"

    def build(self, instances) -> List[Call]:
        return [build_call(i, self.algorithm, self.workers) for i in instances]

    def reset(self) -> None:
        """A cache reset that is part of every operation."""

    def op(self, calls: List[Call]) -> list:
        self.reset()
        return [execute(c.query, c.db, **c.kwargs) for c in calls]

    def traced_op(self, calls: List[Call], tracer: Tracer) -> list:
        self.reset()
        return [run_call(c, tracer) for c in calls]

    def cold_layers(self, instances, record) -> Metrics:
        """Layer costs paid once per process, each on fresh databases."""
        m: Metrics = {}
        m["relational.build_s"], calls = median_time(lambda: self.build(instances))
        clear_program_caches()
        tracer = Tracer()
        gc.collect()
        with tracer.operation("cold") as root:
            out = self.traced_op(calls, tracer)
        record("traced-cold", root.duration, out)
        m["planner.plan_cold_s"] = tracer.by_name(root)["planner.plan"]
        plans = [plan_query(c.query, c.db, **c.kwargs) for c in calls]

        fresh = self.build(instances)
        clear_stats_cache()
        m["stats.collect_s"], _ = timed(
            lambda: [collect_stats(c.query, c.db) for c in fresh])
        m["cost.structure_s"], _ = median_time(
            lambda: [structure_of(c.query) for c in calls])
        fresh = self.build(instances)
        m["relational.sorted_view_s"], _ = timed(lambda: [
            c.db.sorted_view(atom.name, [a for a in plan.gao if a in atom.attrs])
            for c, plan in zip(fresh, plans) for atom in c.query.atoms
        ])
        m["codegen.compile_s"] = self._compile_seconds(calls, plans)
        return m

    @staticmethod
    def _compile_seconds(calls, plans) -> float:
        """First build of each plan's kernel after ``clear_kernel_caches()``."""
        builders = []
        for call, plan in zip(calls, plans):
            query = call.query
            if plan.backend == "leapfrog":
                builders.append(lambda q=query, g=plan.gao: leapfrog_kernel(q, g))
            elif plan.backend == "hash":
                specs = [(a.name, a.attrs) for a in query.atoms]
                builders.append(
                    lambda s=specs, v=query.variables: hash_kernel(s, v))
            elif plan.variant is not None:
                oracle, gao = make_oracle(
                    query, call.db, index_kind=plan.index_kind, gao=plan.gao)
                engine = tetris_engine(call, oracle, gao)
                preload = plan.variant == "preloaded"
                builders.append(
                    lambda e=engine, o=oracle, p=preload:
                    tetris_kernel(e, o, not p, p, capped=False))
        clear_kernel_caches()
        seconds, _ = timed(lambda: [build() for build in builders])
        return seconds

    def warm_layers(self, p: Probe) -> Metrics:
        m = super().warm_layers(p)
        m["planner.plan_warm_s"] = p.sums["planner.plan"]
        now = kernel_cache_info()
        hits, misses = (
            sum(now[family][kind] - p.kernels_before[family][kind] for family in now)
            for kind in ("hits", "misses")
        )
        m["codegen.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 1.0
        return m


def obs_ratios(workload: InProcess, p: Probe) -> Metrics:
    """Operation time with tracing on, and with the metrics registry off.

    Zero when ``repro.obs`` is gone: the benchmark does not depend on it.
    """
    try:
        from repro.obs import metrics as obs_metrics
        from repro.obs import tracing as obs_tracing
    except ImportError:
        return {}
    out = {}
    for name, module, flag in (
        ("obs.trace_on_ratio", obs_tracing, True),
        ("obs.metrics_off_ratio", obs_metrics, False),
    ):
        module.set_enabled(flag)
        try:
            seconds = p.timed_op(name, lambda: workload.op(p.calls))
        finally:
            module.set_enabled(not flag)
        out[name] = seconds / p.query_s
    return out


# -- the two Tetris workloads --------------------------------------------------


class TetrisWorkload(InProcess):
    PROBES = 2000

    def warm_layers(self, p: Probe) -> Metrics:
        m = super().warm_layers(p)
        sums = p.sums
        run: Span = [s for s in p.tracer.spans if s.name == "tetris.run"][-1]
        counts = run.attrs
        # The stepwise engine must have done the work execute() did.
        if p.results[0].stats.resolutions != counts["resolutions"]:
            p.record("stepwise-parity", 0.0, error=(
                f"stepwise run made {counts['resolutions']} resolutions, "
                f"execute() {p.results[0].stats.resolutions}"))
        m.update({
            "indexes.build_s": sums["indexes.build"],
            "tetris.run_s": sums["tetris.run"],
            "tetris.resolutions": counts["resolutions"],
            "tetris.containment_queries": counts["containment_queries"],
            "tetris.boxes_loaded": counts["boxes_loaded"],
            "tetris.cache_hits": counts["cache_hits"],
            "indexes.oracle_queries": counts["oracle_queries"],
            "tetris.ns_per_resolution":
                1e9 * sums["tetris.run"] / max(1, counts["resolutions"]),
            "tetris.kb_hit_ratio":
                counts["cache_hits"] / max(1, counts["containment_queries"]),
        })

        call = p.calls[0]
        plan = plan_query(call.query, call.db, **call.kwargs)
        depth = call.db.domain.depth
        oracle, gao = make_oracle(
            call.query, call.db, index_kind=plan.index_kind, gao=plan.gao)
        seconds, boxes = timed(oracle.boxes)
        # Part of the operation on the preloaded workload; on the reloaded
        # one nothing materializes the gap set, so this stands in.
        m["indexes.gap_extract_s"] = sums.get("indexes.gap_extract", seconds)
        m["indexes.gap_boxes"] = len(boxes)
        ndim = len(oracle.attrs)
        rng = inputs.rng_for("probe_points", p.seed)
        units = [
            unit_box([rng.randrange(1 << depth) for _ in range(ndim)], depth)
            for _ in range(self.PROBES)
        ]
        seconds, _ = timed(lambda: [oracle.containing(u) for u in units])
        m["indexes.probe_ns"] = 1e9 * seconds / len(units)

        engine = tetris_engine(call, oracle, gao)
        internal = [engine.to_internal(b) for b in boxes]
        tree = MultilevelDyadicTree(ndim)
        seconds, _ = timed(lambda: tree.add_many(internal))
        m["dyadic_tree.insert_ns"] = 1e9 * seconds / len(internal)
        m["dyadic_tree.boxes"] = len(tree)
        find = tree.find_container
        probes = [engine.to_internal(u) for u in units]
        covered = [u for u in probes if find(u) is not None]
        outputs = [
            engine.to_internal(unit_box(row, depth))
            for row in p.results[0].tuples
        ]
        uncovered = (outputs * (self.PROBES // len(outputs) + 1))[:self.PROBES]
        seconds, _ = timed(lambda: [find(u) for u in covered])
        m["dyadic_tree.probe_hit_ns"] = 1e9 * seconds / len(covered)
        seconds, hits = timed(lambda: [find(u) for u in uncovered])
        if any(h is not None for h in hits):
            p.record("probe-miss", seconds, error="a gap box covers an output point")
        m["dyadic_tree.probe_miss_ns"] = 1e9 * seconds / len(uncovered)
        m.update(obs_ratios(self, p))
        return m


class TetrisPreloadedTriangle(TetrisWorkload):
    name = PRE
    algorithm = "tetris-preloaded"


class TetrisReloadedPath(TetrisWorkload):
    name = REL
    algorithm = "tetris-reloaded"

    def warm_layers(self, p: Probe) -> Metrics:
        m = super().warm_layers(p)
        split = build_call(inputs.split_instance(p.seed, p.quick), self.algorithm)
        samples = []
        for _ in range(3):
            seconds, result = timed(
                lambda: execute(split.query, split.db, **split.kwargs))
            p.record(
                "split-cert", seconds,
                error="the split instance joins to nothing, got "
                      f"{len(result.tuples)} rows" if result.tuples else None)
            samples.append(seconds)
        m["tetris.split_cert_s"] = statistics.median(samples)
        m["tetris.split_cert_resolutions"] = result.stats.resolutions
        return m


# -- auto_mix and the joins layer ------------------------------------------------

STREAMS = {
    "leapfrog": lambda c, plan: iter_leapfrog(c.query, c.db, gao=plan.gao),
    "hash": lambda c, plan: iter_hash(c.query, c.db),
    "yannakakis": lambda c, plan: iter_yannakakis(c.query, c.db),
}


def join_layers(p: Probe) -> Metrics:
    """``joins.*``: the serial kernels called directly, their sort, early exit."""
    stream_s = sort_s = 0.0
    rows_out = 0
    for call in p.calls:
        plan = plan_query(
            call.query, call.db, algorithm=call.algorithm, gao=call.instance.gao)
        stream = STREAMS.get(plan.backend)
        if stream is None:  # a Tetris or nested-loop plan has no joins kernel
            continue
        seconds, rows = median_time(lambda: list(stream(call, plan)))
        stream_s += seconds
        rows_out += len(rows)
        seconds, _ = median_time(lambda: sorted(rows))
        sort_s += seconds
    limit10 = p.timed_op(
        "limit10",
        lambda: [execute(c.query, c.db, limit=10, **c.kwargs) for c in p.calls],
        check=lambda outs: None if all(len(rows) <= 10 for rows in outs)
        else "limit=10 returned more than 10 rows")
    return {
        "joins.kernel_s": stream_s + sort_s,
        "joins.sort_s": sort_s,
        "joins.ns_per_output_row": 1e9 * (stream_s + sort_s) / max(1, rows_out),
        "joins.limit10_s": limit10,
    }


class AutoMix(InProcess):
    name = MIX

    def warm_layers(self, p: Probe) -> Metrics:
        m = super().warm_layers(p)
        m["tetris.resolutions"] = sum(r.stats.resolutions for r in p.results)
        m.update(join_layers(p))
        ratios = []
        races = {}
        for i, call in enumerate(p.calls):
            def race(algorithm: str) -> float:
                return p.timed_op(
                    f"race-{algorithm}",
                    lambda: [execute(call.query, call.db, algorithm=algorithm)],
                    first=i)
            plan = plan_query(call.query, call.db)
            forced = ["leapfrog", "hash"]
            if plan.structure.acyclic:
                forced.append("yannakakis")
            auto = race("auto")
            times = {algorithm: race(algorithm) for algorithm in forced}
            best = min(times, key=times.get)
            ratios.append(auto / times[best])
            races[call.instance.name] = {
                "auto": plan.backend, "auto_s": auto, "best": best, **times}
        p.info["races"] = races
        m["planner.auto_vs_best"] = math.exp(
            sum(map(math.log, ratios)) / len(ratios))
        m["planner.auto_vs_best_max"] = max(ratios)
        return m


# -- parallel_star_w2 ------------------------------------------------------------


class ParallelStar(InProcess):
    name = PAR
    algorithm = "leapfrog"
    workers = 2

    def warm_layers(self, p: Probe) -> Metrics:
        m = super().warm_layers(p)
        call = p.calls[0]
        query, db = call.query, call.db
        report = p.results[0].parallel
        m.update({
            "partition.partition_s": report.partition_seconds,
            "partition.shards": report.num_shards,
            "partition.pruned_shards": report.pruned_shards,
            "partition.balance": report.balance,
            "dispatch.loop_s": report.loop_seconds,
            "dispatch.busiest_worker_s": report.max_worker_seconds,
            "dispatch.total_compute_s": report.total_compute_seconds,
            "dispatch.coordination_s": report.coordination_seconds,
            "dispatch.ref_hit_ratio":
                report.ref_hits / report.refs_total if report.refs_total else 1.0,
        })
        plan = plan_query(query, db, **call.kwargs)
        clear_job_cache()
        m["partition.partition_cold_s"], _ = timed(
            lambda: partition_shards(query, db, plan.num_shards, plan.split_attrs))

        serial = p.timed_op(
            "serial-twin", lambda: [execute(query, db, algorithm=self.algorithm)])
        auto_w2 = p.timed_op(
            "auto-w2", lambda: [execute(query, db, workers=self.workers)])
        m["parallel.serial_twin_s"] = serial
        m["parallel.speedup_wallclock"] = serial / p.query_s
        m["parallel.auto_w2_vs_best"] = auto_w2 / min(serial, p.query_s)
        m.update(join_layers(p))

        # A new pool with every other cache warm: pool start plus first shipment.
        shipped = []

        def on_new_pool() -> list:
            shutdown_pools()
            out = self.op(p.calls)
            shipped.append(out[0].parallel.bytes_shipped)
            return out

        m["dispatch.pool_start_s"] = p.timed_op("pool-cold", on_new_pool) - p.query_s
        m["dispatch.bytes_shipped"] = shipped[-1]
        shutdown_pools()
        m["dispatch.leaked_segments"] = len(shm_entries() - p.shm_before)
        return m


# -- plan_bound_stream -----------------------------------------------------------


class PlanBoundStream(InProcess):
    name = PLAN

    def reset(self) -> None:
        clear_plan_cache()
        clear_stats_cache()

    def warm_layers(self, p: Probe) -> Metrics:
        m = super().warm_layers(p)
        # Every operation here plans from empty caches; the warm figure is a
        # second pass over the same instances without the reset.
        m["planner.plan_cold_s"] = m["planner.plan_warm_s"]
        tracer = Tracer()
        gc.collect()
        with tracer.operation("replan") as root:
            out = [run_call(c, tracer) for c in p.calls]
        p.record("replan", root.duration, out)
        m["planner.plan_warm_s"] = tracer.by_name(root)["planner.plan"]
        m.update(obs_ratios(self, p))
        return m


# -- cli_join_csv ----------------------------------------------------------------


class CliJoinCsv(Workload):
    name = CLI
    has_cold_phase = False  # every operation is a new process
    SPEC = "R(A,B), S(B,C), T(A,C)"

    def prepare(self, instances, workdir: str) -> None:
        self.workdir = workdir
        self.paths = {}
        for rel, rows in instances[0].data.items():
            self.paths[rel] = os.path.join(workdir, f"{rel}.csv")
            with open(self.paths[rel], "w") as handle:
                handle.writelines(f"v{a},v{b}\n" for a, b in rows)
        self.argv = [sys.executable, "-m", "repro", "join", self.SPEC]
        for rel, path in self.paths.items():
            self.argv += ["--csv", f"{rel}={path}"]

    def build(self, instances):
        return database_from_csvs(parse_query(self.SPEC), self.paths)

    def _run(self, argv: List[str]) -> str:
        done = subprocess.run(
            argv, cwd=self.workdir, capture_output=True, text=True,
            timeout=OP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"exit status {done.returncode}: {done.stderr.strip()[-300:]}")
        return done.stdout

    def op(self, state) -> list:
        return [self._run(self.argv)]

    @staticmethod
    def rows_of(outputs: list) -> List[Sequence[Row]]:
        return [
            [
                tuple(int(cell[1:]) for cell in line.split(","))
                for line in text.splitlines() if not line.startswith("#")
            ]
            for text in outputs
        ]

    def traced_op(self, state, tracer: Tracer) -> list:
        """The operation's pieces, each as its own twin, one after another."""
        with tracer.span("cli.import_process"):
            self._run([sys.executable, "-c", "import repro.cli"])
        clear_program_caches()
        with tracer.span("relational.csv_load"):
            db, dictionary = self.build(None)
        with tracer.span("cli.execute"):
            result = execute(parse_query(self.SPEC), db, decode=dictionary)
        with tracer.span("cli.output"):
            sink = io.StringIO()
            for row in result.decoded_rows():
                print(",".join(str(v) for v in row), file=sink)
        return [sink.getvalue()]

    def warm_layers(self, p: Probe) -> Metrics:
        m = super().warm_layers(p)
        sums = p.sums
        start, _ = median_time(lambda: self._run([sys.executable, "-c", "pass"]), 5)
        m.update({
            "cli.interp_start_s": start,
            "cli.import_s": sums["cli.import_process"] - start,
            "relational.csv_load_s": sums["relational.csv_load"],
            "cli.execute_s": sums["cli.execute"],
            "cli.output_s": sums["cli.output"],
        })
        return m


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        TetrisPreloadedTriangle(), TetrisReloadedPath(), AutoMix(),
        ParallelStar(), PlanBoundStream(), CliJoinCsv(),
    )
}
