"""Planner benchmark: auto-selection vs. every fixed backend.

Runs the engine's ``algorithm="auto"`` against each fixed backend on the
five query-shape families (triangle / path / star / cycle / clique) the
planner's Table 1 decision table distinguishes, and records the results
to ``BENCH_planner.json`` (runs already in the file under other labels
move to its ``history`` list).  The headline number is the geometric
mean of ``auto_time / best_fixed_time`` across workloads — the price of
adaptive selection, which must stay within 1.1× (plan caching amortizes
the planning work across the repeated executions a served workload
sees).

Usage::

    PYTHONPATH=src python benchmarks/bench_planner.py \
        [--quick] [--repeats 3] [--output BENCH_planner.json] \
        [--max-ratio 1.1]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Fixed backends every workload is raced against.
FIXED_BACKENDS = (
    "tetris-preloaded",
    "tetris-reloaded",
    "leapfrog",
    "yannakakis",
    "hash",
    "nested-loop",
)

#: Per-backend wall-time budget multiplier: a fixed backend slower than
#: BAILOUT × the current best is recorded from its first repeat only.
BAILOUT = 50.0


def _workloads(quick: bool):
    """(name, query, db) triples covering the planner's decision space."""
    import random

    from repro.relational.query import (
        clique_query,
        cycle_query,
        star_query,
        triangle_query,
    )
    from repro.relational.relation import Relation
    from repro.relational.schema import Domain
    from repro.relational.query import Database
    from repro.workloads.generators import (
        agm_tight_triangle,
        chained_path_db,
        dense_cycle_db,
        graph_triangle_db,
        random_graph_edges,
        random_path_db,
        split_path_instance,
    )

    def random_db(query, seed, n, depth):
        rng = random.Random(seed)
        rels = []
        for atom in query.atoms:
            rows = {
                tuple(rng.randrange(1 << depth) for _ in atom.attrs)
                for _ in range(n)
            }
            rels.append(Relation(atom, rows, Domain(depth)))
        return Database(rels)

    out = []

    # Triangles: a sparse social-network-style graph and the AGM-tight
    # worst case (where binary plans historically blow up).
    n_edges = 150 if quick else 600
    edges = random_graph_edges(80 if quick else 250, n_edges, seed=3)
    query, db = graph_triangle_db(edges)
    out.append(("triangle_sparse", query, db))
    query, db = agm_tight_triangle(5 if quick else 9)
    out.append(("triangle_agm_tight", query, db))

    # Paths: random (moderate output) and chained (output-controlled).
    query, db = random_path_db(3, 150 if quick else 500, seed=7, depth=8)
    out.append(("path3_random", query, db))
    query, db = chained_path_db(4, 120 if quick else 700, depth=10)
    out.append(("path4_chained", query, db))

    # The beyond-worst-case split instance: N grows, |C| stays O(1).
    query, db, _gao = split_path_instance(
        400 if quick else 2000, depth=12, seed=1
    )
    out.append(("path2_split_cert", query, db))

    # Star: acyclic, treewidth 1, high fan-out.
    q = star_query(4)
    out.append(("star4_random", q, random_db(q, 11, 150 if quick else 500, 8)))

    # Cycle: treewidth 2, the fhtw regime.
    query, db = dense_cycle_db(4, 60 if quick else 150, depth=7, seed=5)
    out.append(("cycle4_dense", query, db))

    # Clique: K4, treewidth 3 — the densest shape the suite prices.
    q = clique_query(4)
    out.append(("clique4_random", q, random_db(q, 13, 80 if quick else 200, 6)))

    return out


def _time_call(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    fn()  # warm-up: fills plan/index caches, stabilizes timing
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def run_suite(quick: bool, repeats: int) -> Dict[str, dict]:
    from repro.engine import clear_plan_cache, execute, plan_query

    results: Dict[str, dict] = {}
    for name, query, db in _workloads(quick):
        clear_plan_cache()
        entry: Dict[str, object] = {"backends": {}}
        reference: Optional[list] = None
        best_fixed = float("inf")
        best_backend = None
        for backend in FIXED_BACKENDS:
            t0 = time.perf_counter()
            try:
                probe = execute(query, db, algorithm=backend)
            except ValueError:
                entry["backends"][backend] = None  # not applicable
                continue
            first = time.perf_counter() - t0
            if reference is None:
                reference = probe.tuples
            elif probe.tuples != reference:
                raise AssertionError(
                    f"{backend} disagrees on {name}: "
                    f"{len(probe.tuples)} vs {len(reference)} tuples"
                )
            if best_fixed < float("inf") and first > BAILOUT * best_fixed:
                best_s = first  # too slow to repeat; one sample is plenty
            else:
                best_s, _ = _time_call(
                    lambda b=backend: execute(query, db, algorithm=b),
                    repeats,
                )
            entry["backends"][backend] = best_s
            if best_s < best_fixed:
                best_fixed = best_s
                best_backend = backend

        # Auto: plan once (cached thereafter), then time execution the
        # same way the fixed backends were timed.
        clear_plan_cache()
        plan = plan_query(query, db)
        auto_s, auto_result = _time_call(
            lambda: execute(query, db, algorithm="auto"), repeats
        )
        if auto_result.tuples != reference:
            raise AssertionError(f"auto disagrees on {name}")
        entry.update(
            auto_s=auto_s,
            auto_backend=plan.backend,
            best_fixed_s=best_fixed,
            best_fixed_backend=best_backend,
            ratio=auto_s / best_fixed,
            output_tuples=len(reference),
            n_tuples=db.total_tuples,
        )
        results[name] = entry
        print(
            f"  {name:20s} auto={plan.backend:17s} "
            f"{auto_s * 1e3:9.2f} ms   best={best_backend:17s} "
            f"{best_fixed * 1e3:9.2f} ms   ratio {entry['ratio']:.2f}"
        )
    return results


def previous_records(path: str, label: str) -> List[dict]:
    """Earlier runs kept in ``path`` under other labels, oldest first."""
    try:
        with open(path) as fh:
            old = json.load(fh)
    except (OSError, ValueError):
        return []
    records = old.pop("history", []) + [old]
    return [r for r in records if r.get("label") != label]


def geometric_mean(xs: List[float]) -> float:
    prod = 1.0
    for x in xs:
        prod *= x
    return prod ** (1.0 / len(xs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="planner")
    parser.add_argument("--output", default="BENCH_planner.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="small sizes")
    parser.add_argument(
        "--max-ratio", type=float, default=None,
        help="exit non-zero when geomean(auto/best) exceeds this",
    )
    args = parser.parse_args(argv)

    print(f"[{args.label}] planner benchmark "
          f"({'quick' if args.quick else 'full'}, best of {args.repeats})")
    results = run_suite(args.quick, args.repeats)
    ratios = [e["ratio"] for e in results.values()]
    geomean = geometric_mean(ratios)
    print(f"  {'geomean auto/best':20s} {geomean:.3f}")

    record = {
        "label": args.label,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": results,
        "auto_vs_best_geomean": geomean,
        "history": previous_records(args.output, args.label),
    }
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    if args.max_ratio is not None and geomean > args.max_ratio:
        print(f"FAIL: geomean {geomean:.3f} > {args.max_ratio}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
