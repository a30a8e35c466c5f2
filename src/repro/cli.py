"""Command-line interface for the Tetris reproduction.

Subcommands::

    python -m repro join "R(A,B), S(B,C)" --csv R=r.csv --csv S=s.csv
    python -m repro explain "R(A,B), S(B,C)" [--csv ...] [--execute]
    python -m repro explain "..." --csv ... --analyze [--trace-out t.json]
    python -m repro triangles edges.txt [--algorithm auto|tetris|...]
    python -m repro sat formula.cnf [--enumerate]
    python -m repro analyze "R(A,B), S(B,C), T(A,C)"
    python -m repro metrics ["R(A,B), S(B,C)" --csv ... --workers 4]

``join`` evaluates an arbitrary natural join over CSV files through the
adaptive engine (``--algorithm auto`` picks the cost-optimal backend;
naming one forces it; ``--limit K`` streams just the first K rows
through the cursor API), decoding result rows back to the original CSV
values; ``explain`` prints the planner's decision tree for a query,
with or without data, and with ``--analyze`` runs it traced and prints
its waterfall — each span's wall and self time, then the time no span
covers — which ``--trace-out`` exports; ``triangles`` lists/counts
triangles in an edge list; ``sat`` counts models of a DIMACS CNF via
Tetris-as-DPLL; ``analyze`` prints a query's structural profile
(acyclicity, treewidth, fhtw, recommended GAO) and which Table 1 runtime
row applies; ``metrics`` dumps the process metrics registry — optionally
after running a query to populate it — as aligned text (quantiles
included) or OpenMetrics (``--openmetrics``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.executor import ALGORITHM_ALIASES
from repro.engine.planner import INDEX_KINDS
from repro.errors import QueryTimeout


def _parse_gao(spec: Optional[str]) -> Optional[Tuple[str, ...]]:
    if spec is None:
        return None
    return tuple(a.strip() for a in spec.split(",") if a.strip())


def _load_join_db(args: argparse.Namespace):
    """(query, db, dictionary) from a join/explain namespace, or an error."""
    from repro.relational.io import database_from_csvs, parse_query

    query = parse_query(args.query)
    names = [atom.name for atom in query.atoms]
    paths: Dict[str, str] = {}
    for item in args.csv:
        name, _, path = item.partition("=")
        if not path:
            raise ValueError(f"--csv expects NAME=PATH, got {item!r}")
        if name not in names:
            raise ValueError(
                f"--csv {item}: the query has no relation {name} "
                f"(it names {', '.join(names)})"
            )
        if name in paths:
            raise ValueError(
                f"--csv gives relation {name} twice "
                f"({paths[name]} and {path})"
            )
        paths[name] = path
    if not paths:
        return query, None, None
    db, dictionary = database_from_csvs(
        query, paths, delimiter=args.delimiter,
        skip_header=args.skip_header,
    )
    return query, db, dictionary


def _run_query(run):
    """Run a subcommand's query: ``(run(), 0)``, or ``(None, 3)``.

    A parallel run past its ``--timeout-ms`` deadline prints the error
    and what the run had done so far, and exits 3 (bad input is
    ``main``'s: status 2).
    """
    try:
        return run(), 0
    except QueryTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(f"# partial: {exc.report.summary()}", file=sys.stderr)
        return None, 3


def _cmd_join(args: argparse.Namespace) -> int:
    from repro.engine import execute
    from repro.relational.io import row_blocks

    query, db, dictionary = _load_join_db(args)
    if db is None:
        raise ValueError("join needs --csv NAME=PATH for every relation")
    t0 = time.perf_counter()
    result, status = _run_query(lambda: execute(
        query, db, algorithm=args.algorithm,
        index_kind=args.index_kind, gao=_parse_gao(args.gao),
        limit=args.limit, decode=dictionary, workers=args.workers,
        timeout_ms=args.timeout_ms,
    ))
    if status:
        return status
    elapsed = time.perf_counter() - t0
    print(f"# query: {query}")
    print(f"# variables: {', '.join(result.variables)}")
    # Lazy: decoded a block at a time, as the blocks are written.
    for block in row_blocks(result.decoded_rows()):
        # CSV cells decode to the strings they were read as.
        lines = map(args.delimiter.join, block)
        sys.stdout.write("\n".join(lines) + "\n")
    limited = f" (limit {args.limit})" if args.limit is not None else ""
    # Only Tetris counts resolutions: another backend's are all zero.
    counters = (
        f" ({result.stats.summary()})"
        if result.backend.startswith("tetris-")
        else ""
    )
    print(
        f"# {len(result)} tuples{limited} in {elapsed:.3f}s "
        f"via {result.backend}{counters}",
        file=sys.stderr,
    )
    if result.parallel is not None:
        print(f"# parallel: {result.parallel.summary()}", file=sys.stderr)
    return 0


def _write_trace(tracer, path: str) -> None:
    """Export a run's spans: ``.jsonl`` → raw log, else Chrome trace."""
    from repro.obs.tracing import write_chrome_trace, write_jsonl

    spans = tracer.serialized()
    if path.endswith(".jsonl"):
        write_jsonl(spans, path)
    else:
        write_chrome_trace(spans, path)


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.engine import execute, explain_text, plan_query

    if args.trace_out and not args.analyze:
        raise ValueError("--trace-out needs --analyze")
    query, db, dictionary = _load_join_db(args)
    if (args.analyze or args.execute) and db is None:
        flag = "--analyze" if args.analyze else "--execute"
        raise ValueError(f"{flag} needs --csv data")

    def run():
        if args.analyze:
            from repro.obs.analyze import analyze

            report = analyze(
                query, db, algorithm=args.algorithm,
                index_kind=args.index_kind, gao=_parse_gao(args.gao),
                workers=args.workers, decode=dictionary,
                timeout_ms=args.timeout_ms,
            )
            return report.result.plan, report.result, report
        plan = plan_query(
            query, db, algorithm=args.algorithm,
            index_kind=args.index_kind, gao=_parse_gao(args.gao),
            assumed_rows=args.assume_rows, workers=args.workers,
        )
        if not args.execute:
            return plan, None, None
        result = execute(
            query, db, plan=plan, decode=dictionary,
            timeout_ms=args.timeout_ms,
        )
        return plan, result, None

    ran, status = _run_query(run)
    if status:
        return status
    plan, result, report = ran
    print(f"# query: {query}")
    print(explain_text(plan, result))
    if report is not None:
        from repro.obs.analyze import render_analyze

        print(render_analyze(report))
        if args.trace_out:
            _write_trace(report.tracer, args.trace_out)
            print(f"# trace written to {args.trace_out}", file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.metrics import REGISTRY, render_metrics

    if args.repeat < 1:
        raise ValueError(f"--repeat must be at least 1, got {args.repeat}")
    if args.query:
        from repro.engine import execute

        query, db, dictionary = _load_join_db(args)
        if db is None:
            raise ValueError(
                "a query needs --csv NAME=PATH for every relation"
            )

        def run():
            for _ in range(args.repeat):
                execute(
                    query, db, algorithm=args.algorithm,
                    index_kind=args.index_kind, gao=_parse_gao(args.gao),
                    workers=args.workers, timeout_ms=args.timeout_ms,
                )

        _, status = _run_query(run)
        if status:
            return status
    if args.openmetrics:
        from repro.obs.export import render_openmetrics

        sys.stdout.write(render_openmetrics())
    else:
        print("\n".join(render_metrics(REGISTRY.snapshot())))
    return 0


def _cmd_triangles(args: argparse.Namespace) -> int:
    from repro.engine import execute
    from repro.relational.io import ValueDictionary, read_edge_list
    from repro.workloads.generators import graph_triangle_db

    dictionary = ValueDictionary()
    edges = dictionary.encode_rows(read_edge_list(args.edges))
    query, db = graph_triangle_db(edges)
    t0 = time.perf_counter()
    result, status = _run_query(
        lambda: execute(query, db, algorithm=args.algorithm)
    )
    if status:
        return status
    tuples = result.tuples
    elapsed = time.perf_counter() - t0
    # Each undirected triangle appears as 6 ordered tuples.
    unique = {tuple(sorted(t)) for t in tuples}
    if not args.count_only:
        for a, b, c in sorted(unique):
            print(dictionary.decode(a), dictionary.decode(b),
                  dictionary.decode(c))
    print(
        f"# {len(unique)} triangles ({len(tuples)} ordered embeddings) "
        f"in {elapsed:.3f}s via {result.backend}",
        file=sys.stderr,
    )
    return 0


def _cmd_sat(args: argparse.Namespace) -> int:
    from repro.core.resolution import ResolutionStats
    from repro.relational.io import read_dimacs
    from repro.sat.dpll import count_models_tetris, enumerate_models_tetris

    cnf = read_dimacs(args.formula)
    stats = ResolutionStats()
    t0 = time.perf_counter()
    if args.enumerate:
        models = enumerate_models_tetris(cnf, stats=stats)
        count = len(models)
        for model in models:
            print(" ".join(
                str(v + 1 if bit else -(v + 1))
                for v, bit in enumerate(model)
            ))
    else:
        count = count_models_tetris(cnf, stats=stats)
    elapsed = time.perf_counter() - t0
    print(
        f"# {count} models of {len(cnf.clauses)} clauses over "
        f"{cnf.num_vars} vars in {elapsed:.3f}s "
        f"({stats.resolutions} learned clauses)",
        file=sys.stderr,
    )
    print(count)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.relational.agm import fhtw
    from repro.relational.hypergraph import Hypergraph
    from repro.relational.io import parse_query

    query = parse_query(args.query)
    h = Hypergraph.of_query(query)
    print(f"query        : {query}")
    print(f"variables    : {', '.join(query.variables)}")
    gao = h.acyclic_gao()
    acyclic = gao is not None
    print(f"α-acyclic    : {acyclic}")
    if acyclic:
        print(f"β-acyclic    : {h.is_beta_acyclic()}")
        print(f"GAO (rev-GYO): {', '.join(gao)}")
    width, order = h.treewidth()
    print(f"treewidth    : {width}  (elimination order "
          f"{', '.join(order)})")
    if len(query.variables) <= 7:
        value, fh_order = fhtw(h)
        print(f"fhtw         : {value:g}  (elimination order "
              f"{', '.join(fh_order)})")
    else:
        value, fh_order = fhtw(h)  # treewidth-order upper bound
        print(f"fhtw ≤       : {value:g}  (treewidth-order bound, "
              f"{', '.join(fh_order)})")
    from repro.relational.agm import bag_cover_number

    decomposition = h.tree_decomposition(fh_order)
    print("tree decomposition (bag ← parent, ρ* per bag):")
    for v in decomposition.order:
        bag = decomposition.bags[v]
        parent = decomposition.parent[v]
        cover = bag_cover_number(bag, h.edges)
        link = f" ← {parent}" if parent is not None else " (root)"
        print(
            f"  {v}: {{{', '.join(sorted(bag))}}}{link}  ρ*={cover:g}"
        )
    print("\nTable 1 guarantees for this query:")
    if acyclic:
        print("  Tetris-Preloaded : Õ(N + Z)        [Yannakakis bound]")
    else:
        print(f"  Tetris-Preloaded : Õ(N^{value:g} + Z)   [fhtw bound]")
    if width == 1:
        print("  Tetris-Reloaded  : Õ(|C| + Z)      [Theorem 4.7]")
    else:
        print(
            f"  Tetris-Reloaded  : Õ(|C|^{width + 1} + Z)  [Theorem 4.9]"
        )
    n = len(query.variables)
    print(f"  Tetris-LB        : Õ(|C|^{n / 2:g} + Z)  [Theorem 4.11]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Joins via geometric resolutions (Tetris, PODS 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    algorithms = sorted(ALGORITHM_ALIASES)

    def add_query_options(
        p: argparse.ArgumentParser, query_required: bool = True
    ) -> None:
        if query_required:
            p.add_argument("query", help='e.g. "R(A,B), S(B,C)"')
        else:
            p.add_argument(
                "query", nargs="?", default=None,
                help='optional query to run first, e.g. "R(A,B), S(B,C)"',
            )
        p.add_argument(
            "--csv", action="append", default=[], metavar="NAME=PATH",
            help="CSV file for a relation (repeatable)",
        )
        p.add_argument(
            "--algorithm", default="auto", choices=algorithms,
            help="backend to run ('auto' lets the planner choose)",
        )
        p.add_argument(
            "--index-kind", default=None, choices=INDEX_KINDS,
            help="index family for the Tetris backends (default btree)",
        )
        p.add_argument(
            "--gao", default=None, metavar="A,B,C",
            help="comma-separated global attribute order override",
        )
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="shard-parallel execution on a pool of N worker "
                 "processes (with --algorithm auto the planner decides "
                 "serial vs. parallel; a named backend forces parallel)",
        )
        p.add_argument(
            "--timeout-ms", type=int, default=None, metavar="MS",
            help="per-query deadline for parallel runs: past it the "
                 "query aborts with a timeout error and hung workers "
                 "are killed and respawned, what ran is summarised "
                 "and the exit status is 3 (serial plans ignore it)",
        )
        p.add_argument("--delimiter", default=",")
        p.add_argument("--skip-header", action="store_true")

    p_join = sub.add_parser("join", help="evaluate a natural join on CSVs")
    add_query_options(p_join)
    p_join.add_argument(
        "--limit", type=int, default=None, metavar="K",
        help="stop after K output rows (streamed early termination)",
    )
    p_join.set_defaults(func=_cmd_join)

    p_explain = sub.add_parser(
        "explain", help="show the planner's decision tree for a query"
    )
    add_query_options(p_explain)
    p_explain.add_argument(
        "--assume-rows", type=int, default=1000,
        help="per-relation cardinality assumed when no --csv data is given",
    )
    p_explain.add_argument(
        "--execute", action="store_true",
        help="run the plan and append predicted-vs-actual stats",
    )
    p_explain.add_argument(
        "--analyze", action="store_true",
        help="execute traced and annotate: per-span wall and self "
             "time with the unaccounted rest, actual-vs-predicted "
             "cardinality and cost, metrics delta",
    )
    p_explain.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="with --analyze, write its spans (.jsonl → raw log, "
             "anything else → Chrome trace-event JSON for Perfetto)",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_tri = sub.add_parser("triangles", help="list triangles in a graph")
    p_tri.add_argument("edges", help="edge-list file (u v per line)")
    p_tri.add_argument(
        "--algorithm", default="auto",
        choices=algorithms,
        help="backend to run ('auto' lets the planner choose)",
    )
    p_tri.add_argument("--count-only", action="store_true")
    p_tri.set_defaults(func=_cmd_triangles)

    p_sat = sub.add_parser("sat", help="count models of a DIMACS CNF")
    p_sat.add_argument("formula", help="DIMACS .cnf file")
    p_sat.add_argument("--enumerate", action="store_true",
                       help="print every model")
    p_sat.set_defaults(func=_cmd_sat)

    p_an = sub.add_parser("analyze", help="structural profile of a query")
    p_an.add_argument("query", help='e.g. "R(A,B), S(B,C), T(A,C)"')
    p_an.set_defaults(func=_cmd_analyze)

    p_met = sub.add_parser(
        "metrics",
        help="dump the process metrics registry "
             "(quantile histograms, worker counters)",
    )
    add_query_options(p_met, query_required=False)
    p_met.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the query N times before dumping (warms caches and "
             "populates the latency histograms)",
    )
    p_met.add_argument(
        "--openmetrics", action="store_true",
        help="emit OpenMetrics/Prometheus exposition text instead of "
             "the aligned human-readable dump",
    )
    p_met.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader (`| head`) has what it wanted: not a failure.
        # Interpreter shutdown flushes stdout once more; give it
        # somewhere to go.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        # Bad input — a malformed query, flag or file, a missing file,
        # a backend that does not apply — in every subcommand.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
