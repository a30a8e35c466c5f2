#!/usr/bin/env python3
"""The paper's results as one table, in the paper's units.

    python benchmarks/paper.py

runs every row below, prints each sweep, writes ``PAPER_RESULTS.json`` at
the repository root and the README's results table generated from it, and
exits 1 if any row fails its check.

A row is one claim of the paper measured on one generator of
``repro.workloads``: Table 1's bounds (α-acyclic, AGM, fhtw, treewidth 1,
treewidth w, Tetris-LB), Figure 2's separations (``shared_suffix_instance``,
``example_f1``, the 4-D ``staircase_instance``), #SAT and Klee's measure as
parity rows, and Appendix B's certificate and gap-box claims.  Each sweep
point records the swept quantity ``x`` (N, N + Z or |C|) and, per run,
resolutions — the interpreter-neutral work unit of Lemma 4.5 — with the
wall seconds of a warm call (indexes built and kernels compiled by one
untimed call first) and µs per resolution.  A row's exponent is the
least-squares slope of log(resolutions) against log(x), printed beside the
bound's; every row states the checks it passes or fails.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.balance import (  # noqa: E402
    balanced_partition,
    strictly_inside_count,
    tetris_preloaded_lb,
    tetris_reloaded_lb,
)
from repro.core.certificates import minimal_certificate  # noqa: E402
from repro.core.intervals import pdecompose_range  # noqa: E402
from repro.core.resolution import ResolutionStats  # noqa: E402
from repro.core.stores import ListStore  # noqa: E402
from repro.core.tetris import BoxSetOracle, TetrisEngine, solve_bcp  # noqa: E402
from repro.indexes.btree import BTreeIndex  # noqa: E402
from repro.indexes.dyadic_index import DyadicTreeIndex, KDTreeIndex  # noqa: E402
from repro.joins.leapfrog import join_leapfrog  # noqa: E402
from repro.joins.tetris_join import join_tetris  # noqa: E402
from repro.klee.measure import klee_covers_space, klee_measure_sweep  # noqa: E402
from repro.relational.query import cycle_query, path_query, star_query  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.relational.schema import Domain, RelationSchema  # noqa: E402
from repro.sat import random_cnf  # noqa: E402
from repro.sat.dpll import count_models_dpll, count_models_tetris  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    agm_tight_triangle,
    chained_path_db,
    db_from_tuples,
    dense_cycle_db,
    random_path_db,
    split_cycle_instance,
    split_path_instance,
)
from repro.workloads.hard_instances import (  # noqa: E402
    example_f1,
    msb_join,
    msb_relation,
    msb_triangle,
    shared_suffix_instance,
    staircase_instance,
)
from tests.helpers import (  # noqa: E402
    interpreted_tetris,
    random_boxes,
    reference_run_restarting,
)

RESULTS = ROOT / "PAPER_RESULTS.json"
README = ROOT / "README.md"
BEGIN = "<!-- paper-results:begin (generated by benchmarks/paper.py) -->"
END = "<!-- paper-results:end -->"


def slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x): the measured exponent
    of a power law y ≈ c·x^slope (a count of 0 counts as 1)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y or 1) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return round(num / sum((a - mx) ** 2 for a in lx), 2) + 0.0  # no -0.0


def fit(points, key) -> float:
    """The exponent of ``key`` against ``x``: a run's resolutions, or a
    point field such as ``ratio``."""
    return slope([p["x"] for p in points],
                 [p["runs"][key]["resolutions"] if key in p.get("runs", ()) else p[key]
                  for p in points])


def run(fn, *args, **kwargs):
    """``fn(*args, stats=..., **kwargs)`` warmed by one untimed call, then
    timed once: (output, the run's record in the paper's units)."""
    fn(*args, **kwargs)
    stats = ResolutionStats()
    t0 = time.perf_counter()
    out = fn(*args, stats=stats, **kwargs)
    seconds = time.perf_counter() - t0
    return out, {
        "resolutions": stats.resolutions,
        "boxes_loaded": stats.boxes_loaded,
        "containment_queries": stats.containment_queries,
        "seconds": round(seconds, 6),
        "us_per_resolution": round(1e6 * seconds / max(stats.resolutions, 1), 3),
    }


def row(paper, bound, instance, param, x, points, exponents, checks):
    """``exponents`` maps a run (or ``ratio``) to (measured, bound's)."""
    return {
        "paper": paper,
        "bound": bound,
        "instance": instance,
        "param": param,
        "x": x,
        "points": points,
        "exponents": {
            k: {"measured": m, "bound": b} for k, (m, b) in exponents.items()
        },
        "checks": checks,
        "pass": all(checks.values()),
    }


def join_sweep(param, values, make, x, **kwargs):
    """One Tetris join per swept value; ``make(v)`` returns (query, db) or
    (query, db, gao) and ``x(db, result)`` the quantity fitted against."""
    points = []
    for v in values:
        query, db, *gao = make(v)
        result, tetris = run(join_tetris, query, db, gao=(gao or [None])[0], **kwargs)
        points.append({param: v, "x": x(db, result), "Z": len(result),
                       "runs": {"tetris": tetris}})
    return points


def n_plus_z(db, result):
    return db.total_tuples + len(result)


def flat(points, run="tetris"):
    return len({p["runs"][run]["resolutions"] for p in points}) == 1


# --- Table 1 ---------------------------------------------------------------

def table1_acyclic():
    points = join_sweep("k", (16, 64, 256, 1024, 4096),
                        lambda k: chained_path_db(3, k, depth=12), n_plus_z)
    e = fit(points, "tetris")
    return row("Table 1 α-acyclic, Thm D.8", "Õ(N + Z)",
               "chained_path_db(3, k, depth=12), Preloaded", "k", "N + Z",
               points, {"tetris": (e, 1.0)},
               {"0.85 < exponent < 1.15": 0.85 < e < 1.15,
                "Z = k": all(p["Z"] == p["k"] for p in points)})


def table1_acyclic_random():
    points = join_sweep("m", (200, 400, 800, 1600, 3200, 6400),
                        lambda m: random_path_db(3, m, seed=17, depth=12), n_plus_z)
    e = fit(points, "tetris")
    return row("Table 1 α-acyclic, Thm D.8", "Õ(N + Z), Õ = d²",
               "random_path_db(3, m, seed=17, depth=12), Preloaded", "m",
               "N + Z", points, {"tetris": (e, 1.0)},
               {"exponent < 1.8": e < 1.8,
                "resolutions ≤ d²·(N + Z)": all(
                    p["runs"]["tetris"]["resolutions"] <= 144 * p["x"]
                    for p in points)})


def table1_acyclic_star():
    def make(m):
        rng = random.Random(3)
        query = star_query(3)
        data = {a.name: sorted({(rng.randrange(4096), rng.randrange(4096))
                                for _ in range(m)}) for a in query.atoms}
        return query, db_from_tuples(query, data, 12)

    points = join_sweep("m", (100, 400, 1600), make, n_plus_z)
    e = fit(points, "tetris")
    return row("Table 1 α-acyclic, Thm D.8", "Õ(N + Z), Õ = d²",
               "star_query(3), m random rows per ray, depth 12, Preloaded",
               "m", "N + Z", points, {"tetris": (e, 1.0)},
               {"resolutions ≤ d²·(N + Z)": all(
                   p["runs"]["tetris"]["resolutions"] <= 144 * p["x"]
                   for p in points)})


def table1_agm():
    points = join_sweep("m", (4, 8, 12, 16, 24, 32, 48), agm_tight_triangle,
                        lambda db, result: db.total_tuples // 3)
    e = fit(points, "tetris")
    return row("Table 1 AGM, Thm D.2", "Õ(N + AGM), AGM = N^1.5",
               "agm_tight_triangle(m), Preloaded", "m", "N per relation",
               points, {"tetris": (e, 1.5)},
               {"1.25 < exponent < 1.75": 1.25 < e < 1.75,
                "Z = m³ = AGM": all(p["Z"] == p["m"] ** 3 for p in points)})


def table1_agm_figure5():
    points = []
    for d in (4, 8, 16, 32):
        _, tetris = run(solve_bcp, msb_triangle(d), 3, d)
        points.append({"d": d, "x": 1 << d, "runs": {"tetris": tetris}})
    return row("Table 1 AGM, Figure 5", "O(1) with dyadic gap boxes",
               "msb_triangle(d), Preloaded", "d", "domain 2^d", points,
               {"tetris": (fit(points, "tetris"), 0.0)},
               {"resolutions flat in d": flat(points)})


def table1_agm_figure5_relations():
    made = {}
    kwargs = {"variant": "reloaded", "index_kind": "dyadic"}
    points = join_sweep("d", (6, 7, 8, 9), lambda d: made.setdefault(d, msb_join(d)),
                        lambda db, result: db.total_tuples // 3, **kwargs)
    for p in points:  # one sub-ms call can catch a collector pass: gate on the best of 5
        p["best_seconds"] = min(run(join_tetris, *made[p["d"]], **kwargs)[1]["seconds"]
                                for _ in range(5))
    seconds = [p["best_seconds"] for p in points]
    return row("Table 1 AGM, Figure 5", "O(1) with dyadic gap boxes",
               "msb_join(d) as relations, Reloaded over dyadic indexes", "d",
               "N per relation", points, {"tetris": (fit(points, "tetris"), 0.0)},
               {"resolutions flat in d": flat(points),
                "warm seconds flat in d (max / min ≤ 3)": max(seconds) <= 3 * min(seconds)})


def table1_fhtw():
    points = join_sweep("m", (20, 40, 80, 160, 320, 640),
                        lambda m: dense_cycle_db(4, m, depth=9, seed=5),
                        lambda db, result: db.total_tuples / 4)
    e = fit(points, "tetris")
    return row("Table 1 fhtw, Thm 4.6", "Õ(N^fhtw + Z), fhtw = 2",
               "dense_cycle_db(4, m, depth=9, seed=5), Preloaded", "m",
               "N per relation", points, {"tetris": (e, 2.0)},
               {"exponent ≤ 2.25": e <= 2.25,
                "resolutions ≤ N² + Z": all(
                    p["runs"]["tetris"]["resolutions"] <= p["x"] ** 2 + p["Z"]
                    for p in points)})


def table1_fhtw_6cycle():
    points = join_sweep("m", (15, 30, 60, 120),
                        lambda m: dense_cycle_db(6, m, depth=6, seed=9),
                        lambda db, result: db.total_tuples / 6)
    e = fit(points, "tetris")
    return row("Table 1 fhtw, Thm 4.6", "Õ(N^fhtw + Z), fhtw = 2",
               "dense_cycle_db(6, m, depth=6, seed=9), Preloaded", "m",
               "N per relation", points, {"tetris": (e, 2.0)},
               {"resolutions ≤ N² + Z": all(
                   p["runs"]["tetris"]["resolutions"] <= p["x"] ** 2 + p["Z"]
                   for p in points)})


def table1_tw1():
    points = join_sweep("m", (50, 200, 800, 3200, 12800),
                        lambda m: split_path_instance(m, depth=12, seed=1),
                        lambda db, result: db.total_tuples, variant="reloaded")
    for p in points:  # the worst-case-optimal baseline, warm, for contrast
        query, db, gao = split_path_instance(p["m"], depth=12, seed=1)
        join_leapfrog(query, db, gao=gao)
        t0 = time.perf_counter()
        join_leapfrog(query, db, gao=gao)
        p["leapfrog_seconds"] = round(time.perf_counter() - t0, 6)
    return row("Table 1 treewidth 1, Thm 4.7", "Õ(|C| + Z), |C| = O(1)",
               "split_path_instance(m, depth=12, seed=1), Reloaded", "m", "N",
               points, {"tetris": (fit(points, "tetris"), 0.0)},
               {"resolutions flat in N": flat(points),
                "boxes loaded ≤ 8": all(
                    p["runs"]["tetris"]["boxes_loaded"] <= 8 for p in points),
                "Z = 0": all(p["Z"] == 0 for p in points)})


def _bridged_path(k):
    """R's B-values in the lower half except ``k`` bridge values S shares:
    the certificate and the output both grow with ``k``."""
    rng = random.Random(0)
    half = 1 << 11
    bridges = list(range(half, half + k))
    r_rows = sorted({(rng.randrange(1 << 12), rng.randrange(half))
                     for _ in range(400)}) + list(enumerate(bridges))
    s_rows = [t for t in sorted({(half + rng.randrange(half), rng.randrange(1 << 12))
                                 for _ in range(400)}) if t[0] not in set(bridges)]
    query = path_query(2)
    db = db_from_tuples(query, {"R0": r_rows, "R1": s_rows + [(b, 7) for b in bridges]}, 12)
    return query, db, ("A1", "A0", "A2")


def table1_tw1_output():
    points = join_sweep("k", (4, 16, 64, 256), _bridged_path,
                        lambda db, result: len(result) + result.stats.boxes_loaded,
                        variant="reloaded")
    e = fit(points, "tetris")
    return row("Table 1 treewidth 1, Thm 4.7", "Õ(|C| + Z)",
               "path with k bridge values, depth 12, Reloaded", "k",
               "|C| + Z", points, {"tetris": (e, 1.0)},
               {"exponent < 1.4": e < 1.4,
                "Z ≥ k": all(p["Z"] >= p["k"] for p in points)})


def table1_tww():
    points = join_sweep("m", (30, 90, 270, 810, 3240),
                        lambda m: split_cycle_instance(m, depth=10, seed=2),
                        lambda db, result: db.total_tuples, variant="reloaded")
    return row("Table 1 treewidth w, Thm 4.9", "Õ(|C|^(w+1) + Z), |C| = O(1)",
               "split_cycle_instance(m, depth=10, seed=2), Reloaded", "m", "N",
               points, {"tetris": (fit(points, "tetris"), 0.0)},
               {"resolutions flat in N": flat(points),
                "boxes loaded ≤ 10": all(
                    p["runs"]["tetris"]["boxes_loaded"] <= 10 for p in points),
                "Z = 0": all(p["Z"] == 0 for p in points)})


def _banded_cycle(bands):
    """A 4-cycle whose R0 A1-values avoid ``bands`` stripes that R1's
    cover: emptiness needs ≈ 2·bands boxes."""
    rng = random.Random(4)
    width = 64 // (2 * bands)
    r0 = [v for v in range(64) if (v // width) % 2 == 0]
    r1 = [v for v in range(64) if (v // width) % 2 == 1]
    everywhere = range(64)
    rows = {
        "R0": sorted({(rng.choice(everywhere), rng.choice(r0)) for _ in range(150)}),
        "R1": sorted({(rng.choice(r1), rng.choice(everywhere)) for _ in range(150)}),
        "R2": sorted({(rng.choice(everywhere), rng.choice(everywhere)) for _ in range(150)}),
        "R3": sorted({(rng.choice(everywhere), rng.choice(everywhere)) for _ in range(150)}),
    }
    query = cycle_query(4)
    return query, db_from_tuples(query, rows, 6), ("A1", "A0", "A2", "A3")


def table1_tww_banded():
    points = join_sweep("bands", (1, 2, 4, 8, 16, 32), _banded_cycle,
                        lambda db, result: result.stats.boxes_loaded,
                        variant="reloaded")
    e = fit(points, "tetris")
    return row("Table 1 treewidth w, Thm 4.9", "Õ(|C|^(w+1) + Z), w = 2",
               "4-cycle, R0 / R1 in alternating stripes, depth 6, Reloaded",
               "bands", "|C| (boxes loaded)", points, {"tetris": (e, 3.0)},
               {"exponent ≤ 3": e <= 3,
                "resolutions ≤ d⁴·(|C|³ + 1)": all(
                    p["runs"]["tetris"]["resolutions"] <= 6 ** 4 * (p["x"] ** 3 + 1)
                    for p in points),
                "Z = 0": all(p["Z"] == 0 for p in points)})


def table1_lb():
    points, agree = [], True
    for d in (2, 3, 4):
        boxes = staircase_instance(4, d)
        lb_out, lb = run(tetris_preloaded_lb, boxes, 4, d)
        out, ordered = run(solve_bcp, boxes, 4, d)
        agree &= sorted(out) == lb_out
        points.append({"d": d, "|C|": len(boxes), "Z": len(out),
                       "x": len(boxes) ** 2 + len(out),
                       "runs": {"lb": lb, "ordered": ordered},
                       "ratio": round(ordered["resolutions"] / lb["resolutions"], 3)})
    return row("Table 1 Tetris-LB, Thm 4.11", "Õ(|C|^(n/2) + Z), n = 4",
               "staircase_instance(4, d), LB vs ordered Preloaded", "d",
               "|C|² + Z", points,
               {"lb": (fit(points, "lb"), 1.0), "ordered": (fit(points, "ordered"), None),
                "ratio": (fit(points, "ratio"), None)},
               {"LB output = ordered output": agree,
                "LB resolutions ≤ d²·(|C|² + Z)": all(
                    p["runs"]["lb"]["resolutions"] <= p["d"] ** 2 * p["x"] for p in points)})


# --- Figure 2 --------------------------------------------------------------

def fig2_tree_ordered_agm():
    points = join_sweep("m", (4, 8, 16, 32), agm_tight_triangle,
                        lambda db, result: db.total_tuples // 3,
                        cache_resolvents=False)
    e = fit(points, "tetris")
    return row("Figure 2 Tree Ordered, Thm 5.1", "Õ(N + AGM), no caching",
               "agm_tight_triangle(m), Preloaded, cache_resolvents=False", "m",
               "N per relation", points, {"tetris": (e, 1.5)},
               {"exponent < 1.8": e < 1.8,
                "Z = m³": all(p["Z"] == p["m"] ** 3 for p in points)})


def fig2_caching():
    points, empty = [], True
    for d in (2, 3, 4, 5, 6, 7):
        boxes = shared_suffix_instance(d)
        out, cached = run(solve_bcp, boxes, 3, d)
        out2, uncached = run(solve_bcp, boxes, 3, d, cache_resolvents=False)
        empty &= out == out2 == []
        points.append({"d": d, "x": len(boxes), "runs": {"cached": cached, "uncached": uncached},
                       "ratio": round(uncached["resolutions"] / cached["resolutions"], 3)})
    c, u = fit(points, "cached"), fit(points, "uncached")
    return row("Figure 2 Tree Ordered vs Ordered, Thm 5.2",
               "Ω(N^(n/2)) uncached vs Õ(N) cached, treewidth 1",
               "shared_suffix_instance(d)", "d", "N", points,
               {"cached": (c, 1.0), "uncached": (u, 1.5),
                "ratio": (fit(points, "ratio"), 0.5)},
               {"cached exponent < 1.2": c < 1.2,
                "uncached exponent > cached + 0.25": u > c + 0.25,
                "Z = 0": empty})


def fig2_ordered_vs_lb():
    points, empty = [], True
    for d in (4, 5, 6, 7, 8):
        boxes = example_f1(d)
        best = min((run(solve_bcp, boxes, 3, d, sao=sao)
                    for sao in itertools.permutations(range(3))),
                   key=lambda r: r[1]["resolutions"])
        lb_out, lb = run(tetris_preloaded_lb, boxes, 3, d)
        online_out, online = run(tetris_reloaded_lb, boxes, 3, d)
        empty &= best[0] == lb_out == online_out == []
        points.append({"d": d, "x": len(boxes),
                       "runs": {"ordered": best[1], "lb": lb, "lb_reloaded": online},
                       "ratio": round(best[1]["resolutions"] / lb["resolutions"], 3)})
    o, b = fit(points, "ordered"), fit(points, "lb")
    return row("Figure 2 Ordered vs Geometric, Thms 5.4 / 4.11",
               "Ω(|C|^(n-1)) ordered (best SAO) vs Õ(|C|^(n/2)) LB, n = 3",
               "example_f1(d)", "d", "|C|", points,
               {"ordered": (o, 2.0), "lb": (b, 1.5), "lb_reloaded": (fit(points, "lb_reloaded"), 1.5),
                "ratio": (fit(points, "ratio"), 0.5)},
               {"ordered exponent > 1.6": o > 1.6,
                "LB exponent < ordered − 0.3": b < o - 0.3,
                "LB wins at the largest d": points[-1]["ratio"] > 1,
                "Z = 0 (all three)": empty})


# --- parity rows -----------------------------------------------------------

def parity_sat():
    points = []
    for n, ratio, seed in [(14, r, r) for r in (1, 2, 3, 4, 5)] + [(10, 8, 11)]:
        cnf = random_cnf(n, ratio * n, width=3, seed=seed)
        models, tetris = run(count_models_tetris, cnf)
        t0 = time.perf_counter()
        dpll = count_models_dpll(cnf)
        points.append({"variables": n, "x": ratio * n, "models": models, "dpll": dpll,
                       "dpll_seconds": round(time.perf_counter() - t0, 6),
                       "runs": {"tetris": tetris}})
    return row("Section 4.2.4 / Appendix I: Tetris as #SAT", "model count = DPLL's",
               "random_cnf(n, m, width=3, seed)", "variables", "clauses m",
               points, {},
               {"Tetris count = DPLL count": all(p["models"] == p["dpll"] for p in points)})


def parity_klee():
    points = []
    for count in (20, 40, 80, 160):
        boxes = random_boxes(count, count, 3, 4)
        covered, tetris = run(klee_covers_space, boxes, 3, 4)
        points.append({"boxes": count, "x": count, "covers": covered,
                       "measure": klee_measure_sweep(boxes, 3, 4), "space": 1 << 12,
                       "runs": {"tetris": tetris}})
    return row("Corollary F.8: Klee's measure, Boolean", "covers ⇔ measure = space",
               "random_boxes(count, count, 3, 4), LB Tetris vs slab sweep",
               "boxes", "boxes", points, {},
               {"covers ⇔ measure = space": all(
                   p["covers"] == (p["measure"] == p["space"]) for p in points)})


def corollary_f8_klee():
    points, covered = [], True
    for d in (4, 5, 6, 7, 8):
        boxes = example_f1(d)
        out, tetris = run(klee_covers_space, boxes, 3, d)
        covered &= out
        points.append({"d": d, "x": len(boxes), "runs": {"tetris": tetris}})
    e = fit(points, "tetris")
    return row("Corollary F.8: Klee's measure, Boolean", "Õ(|C|^(n/2)), n = 3",
               "example_f1(d), LB decision", "d", "|C|", points, {"tetris": (e, 1.5)},
               {"covers at every d": covered,
                "resolutions ≤ 3·|C|^1.5": all(
                    p["runs"]["tetris"]["resolutions"] <= 3 * p["x"] ** 1.5 for p in points)})


def parity_lb():
    points = []
    for seed in (1, 2, 3, 4):
        boxes = random_boxes(seed, 40, 4, 3)
        out, ordered = run(solve_bcp, boxes, 4, 3)
        lb_out, lb = run(tetris_preloaded_lb, boxes, 4, 3)
        points.append({"seed": seed, "x": len(boxes), "Z": len(out),
                       "agree": sorted(out) == lb_out,
                       "runs": {"ordered": ordered, "lb": lb}})
    return row("Theorem 4.11: Tetris-LB in 4-D", "LB output = ordered output",
               "random_boxes(seed, 40, 4, 3)", "seed", "boxes", points, {},
               {"LB = ordered on every seed": all(p["agree"] for p in points)})


# --- Appendix B: certificates and gap boxes --------------------------------

def _relation(tuples, depth, name="R"):
    return Relation(RelationSchema(name, ("A", "B")), tuples, Domain(depth))


def _gaps(index):
    return [b for b, _ in index.gap_boxes()]


def appb_certificate_order():
    points = []
    for depth in (3, 4, 5, 6, 7):
        rel = _relation([(a, 1 << (depth - 1)) for a in range(1 << depth)], depth, "S")
        points.append({"depth": depth, "x": len(rel),
                       "cert_AB": len(minimal_certificate(_gaps(BTreeIndex(rel, ("A", "B"))), 2, depth)),
                       "cert_BA": len(minimal_certificate(_gaps(BTreeIndex(rel, ("B", "A"))), 2, depth))})
    return row("Example B.3: the certificate depends on the GAO",
               "Ω(N) under (A,B), O(d) under (B,A)",
               "band relation S = [2^d] × {2^(d-1)}, B-tree gap boxes", "depth", "N",
               points, {},
               {"|C(A,B)| ≥ N / 2d": all(p["cert_AB"] >= p["x"] / (2 * p["depth"]) for p in points),
                "|C(B,A)| ≤ 2d": all(p["cert_BA"] <= 2 * p["depth"] for p in points)})


def appb_msb_relation():
    points = []
    for depth in (3, 4, 5, 6, 7):
        rel = _relation(msb_relation(depth), depth)
        quad, bt = _gaps(DyadicTreeIndex(rel)), _gaps(BTreeIndex(rel, ("A", "B")))
        points.append({"depth": depth, "x": len(rel), "gaps_quadtree": len(quad),
                       "gaps_btree": len(bt),
                       "cert_quadtree": len(minimal_certificate(quad, 2, depth)),
                       "cert_btree": len(minimal_certificate(bt, 2, depth))})
    return row("Examples B.7 / B.8, footnote 9: index power",
               "O(1) dyadic vs Ω(2^d) B-tree boxes",
               "MSB-complement relation, quadtree vs B-tree(A,B)", "depth", "N",
               points, {},
               {"quadtree: 2 gap boxes, |C| = 2": all(
                   p["gaps_quadtree"] == p["cert_quadtree"] == 2 for p in points),
                "B-tree: ≥ 2^d gap boxes, |C| ≥ 2^(d-1)": all(
                    p["gaps_btree"] >= 1 << p["depth"]
                    and p["cert_btree"] >= 1 << (p["depth"] - 1) for p in points)})


def appb_gap_boxes():
    points = []
    for n in (25, 50, 100, 200):
        rng = random.Random(n)
        rel = _relation({(rng.randrange(256), rng.randrange(256)) for _ in range(n)}, 8)
        ab = _gaps(BTreeIndex(rel, ("A", "B")))
        points.append({"n": n, "x": len(rel), "btree_AB": len(ab),
                       "btree_BA": BTreeIndex(rel, ("B", "A")).count_gap_boxes(),
                       "quadtree": DyadicTreeIndex(rel).count_gap_boxes(),
                       "kdtree": KDTreeIndex(rel).count_gap_boxes(),
                       "cert_AB": len(minimal_certificate(ab, 2, 8))})
    return row("Figures 1 / 3, Section 1: gap boxes and |C|", "Õ(N) gap boxes, |C| ≤ gap boxes",
               "n random rows, depth 8, four index kinds", "n", "N", points,
               {"btree_AB": (fit(points, "btree_AB"), 1.0)},
               {"B-tree gap boxes ≤ 4d·(N + 1)": all(
                   p["btree_AB"] <= 32 * (p["x"] + 1) for p in points),
                "|C| ≤ gap boxes": all(p["cert_AB"] <= p["btree_AB"] for p in points)})


def appb_decomposition():
    rng = random.Random(0)
    points = []
    for depth in (8, 12, 16, 24, 32):
        worst = 0
        for _ in range(500):
            lo, hi = sorted((rng.randrange(1 << depth), rng.randrange(1 << depth)))
            worst = max(worst, len(pdecompose_range(lo, hi, depth)))
        points.append({"depth": depth, "x": depth, "worst_pieces": worst})
    return row("Proposition B.14 / Figure 4: dyadic decomposition", "≤ 2d pieces per range",
               "500 random ranges per depth", "depth", "d", points, {},
               {"worst ≤ 2d": all(p["worst_pieces"] <= 2 * p["x"] for p in points)})


# --- ablations of the design the bounds rest on ----------------------------

def _engine_run(boxes, ndim, depth, stats=None, store=None):
    engine = TetrisEngine(ndim, depth, stats=stats,
                          knowledge_base=store and store(ndim))
    return engine.run(BoxSetOracle(boxes, ndim), preload=True)


def _printed_run(boxes, ndim, depth, stats=None):
    """Algorithms 1 and 2 as printed (``tests/helpers.py``), preloaded."""
    with interpreted_tetris(reference_run_restarting):
        return _engine_run(boxes, ndim, depth, stats=stats)


def ablation_store():
    points, agree = [], True
    for name, boxes, d in (("example_f1(6)", example_f1(6), 6),
                           ("shared_suffix(4)", shared_suffix_instance(4), 4),
                           ("shared_suffix(5)", shared_suffix_instance(5), 5)):
        out, tree = run(_engine_run, boxes, 3, d)
        out2, flat_list = run(_engine_run, boxes, 3, d, store=ListStore)
        agree &= sorted(out) == sorted(out2)
        points.append({"instance": name, "x": len(boxes),
                       "runs": {"dyadic_tree": tree, "list": flat_list},
                       "slowdown": round(flat_list["seconds"] / tree["seconds"], 2)})
    return row("Appendix C.1: the multilevel dyadic tree", "Õ(1) containment query",
               "hard instances, dyadic tree vs linear-scan ListStore", "instance", "boxes",
               points, {},
               {"same output": agree, "list ≥ 3× slower on the largest": points[-1]["slowdown"] > 3})


def ablation_one_pass():
    points, agree = [], True
    for count in (4, 8, 16, 32):
        boxes = random_boxes(count + 1, count, 3, 4)
        out, one = run(_engine_run, boxes, 3, 4)
        out2, restart = run(_printed_run, boxes, 3, 4)
        agree &= sorted(out) == sorted(out2)
        points.append({"boxes": count, "x": count, "Z": len(out),
                       "runs": {"one_pass": one, "restart": restart}})
    return row("Theorem D.2's skeleton: one pass vs restart",
               "same output, one descent instead of one per output",
               "random_boxes(count + 1, count, 3, 4), kernel vs Algorithm 2 as printed", "boxes", "boxes", points, {},
               {"same output": agree,
                "restart probes the knowledge base more": all(
                    p["runs"]["restart"]["containment_queries"]
                    > p["runs"]["one_pass"]["containment_queries"] for p in points)})


def ablation_sao():
    boxes = shared_suffix_instance(3)
    points = []
    for sao in itertools.permutations(range(3)):
        out, tetris = run(solve_bcp, boxes, 3, 3, sao=sao)
        points.append({"sao": list(sao), "x": len(boxes), "Z": len(out), "runs": {"tetris": tetris}})
    counts = [p["runs"]["tetris"]["resolutions"] for p in points]
    return row("Theorems 4.7 / 4.9: the SAO matters", "best SAO ≪ worst",
               "shared_suffix_instance(3), all six SAOs", "sao", "boxes", points, {},
               {"worst / best > 1.5": max(counts) > 1.5 * min(counts),
                "Z = 0": all(p["Z"] == 0 for p in points)})


def balance_partition():
    points = []
    for count in (50, 200, 800, 3200):
        boxes = random_boxes(count, count, 3, 8)
        parts = balanced_partition(boxes, 0, 8)
        components = [b[0] for b in boxes]
        heavy = sum(1 for p in parts if p.bit_length() - 1 < 8
                    and strictly_inside_count(components, p) > count ** 0.5)
        points.append({"boxes": count, "x": count, "parts": len(parts), "heavy": heavy})
    return row("Definition 4.13: balanced partitions", "Õ(√|C|) parts, none heavy",
               "random_boxes(count, count, 3, 8), axis 0", "boxes", "|C|", points,
               {"parts": (fit(points, "parts"), 0.5)},
               {"no heavy part": all(p["heavy"] == 0 for p in points),
                "parts ≤ 8d·√|C|": all(p["parts"] <= 32 * p["x"] ** 0.5 for p in points)})


ROWS = (
    table1_acyclic, table1_acyclic_random, table1_acyclic_star, table1_agm,
    table1_agm_figure5, table1_agm_figure5_relations, table1_fhtw,
    table1_fhtw_6cycle, table1_tw1, table1_tw1_output, table1_tww,
    table1_tww_banded, table1_lb,
    fig2_tree_ordered_agm, fig2_caching, fig2_ordered_vs_lb,
    parity_sat, parity_klee, corollary_f8_klee, parity_lb,
    appb_certificate_order, appb_msb_relation, appb_gap_boxes, appb_decomposition,
    ablation_store, ablation_one_pass, ablation_sao, balance_partition,
)


# --- output ----------------------------------------------------------------

def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.machine()


def _num(v) -> str:
    return f"{v:,}" if isinstance(v, int) else f"{v:g}"


def render(results) -> str:
    """The README's results table: one line per row of ``results``."""
    lines = [
        "| row | paper | bound | x swept | resolutions | µs / res. | exponent (bound) | pass |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in results["rows"]:
        pts = r["points"]
        main = next(iter(pts[0].get("runs", {})), None)
        res = us = "—"
        if main:
            res = f"{_num(pts[0]['runs'][main]['resolutions'])} → {_num(pts[-1]['runs'][main]['resolutions'])}"
            us = f"{statistics.median(p['runs'][main]['us_per_resolution'] for p in pts):.2f}"
        exps = ", ".join(
            f"{k} {e['measured']:.2f}" + ("" if e["bound"] is None else f" ({e['bound']:g})")
            for k, e in r["exponents"].items()) or "—"
        swept = f"{r['x']} {_num(pts[0]['x'])} → {_num(pts[-1]['x'])}"
        verdict = "✓" if r["pass"] else "✗ " + "; ".join(k for k, ok in r["checks"].items() if not ok)
        cells = (f"`{r['id']}`", r["paper"], r["bound"], swept, res, us, exps, verdict)
        lines.append("| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
    host = results["host"]
    lines.append("")
    lines.append(f"Measured on {host['cpu']} ({host['cpus']} CPUs), Python {host['python']}; "
                 f"{sum(r['pass'] for r in results['rows'])} / {len(results['rows'])} rows pass.")
    return "\n".join(lines)


def dumps(results) -> str:
    """``results`` as JSON with one line per sweep point, so that a diff
    of the committed file shows which points moved."""
    def row(r):
        head = json.dumps({k: v for k, v in r.items() if k != "points"}, ensure_ascii=False)
        points = ",\n  ".join(json.dumps(p, ensure_ascii=False) for p in r["points"])
        return f'{head[:-1]}, "points": [\n  {points}]}}'
    host = json.dumps(results["host"], ensure_ascii=False)
    return f'{{"host": {host},\n "rows": [\n' + ",\n".join(map(row, results["rows"])) + "]}\n"


def write_readme(results) -> None:
    text = README.read_text()
    head, rest = text.split(BEGIN, 1)
    README.write_text(f"{head}{BEGIN}\n{render(results)}\n{END}{rest.split(END, 1)[1]}")


def main() -> int:
    rows = []
    for fn in ROWS:
        t0 = time.perf_counter()
        r = {"id": fn.__name__, **fn()}
        rows.append(r)
        print(f"[{r['id']}] {r['paper']}: {'pass' if r['pass'] else 'FAIL'} "
              f"({time.perf_counter() - t0:.1f} s)")
        for p in r["points"]:
            print("   ", json.dumps(p, ensure_ascii=False))
        print("   ", json.dumps({"exponents": r["exponents"], "checks": r["checks"]},
                                ensure_ascii=False))
    results = {
        "host": {"cpu": _cpu(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "rows": rows,
    }
    RESULTS.write_text(dumps(results))
    write_readme(results)
    failed = [r["id"] for r in rows if not r["pass"]]
    print(f"{len(rows) - len(failed)} / {len(rows)} rows pass"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
