"""Ablations of the engine design choices the paper's bounds rest on.

* **Multilevel dyadic tree vs linear scan** (Appendix C.1): the Õ(1)
  containment query is what makes Lemma 4.5's "runtime ≈ #resolutions"
  true; with a flat list each containment query costs O(|A|) and the
  engine slows superlinearly as the knowledge base grows.
* **One-pass vs restarting outer loop** (TetrisSkeleton2, Theorem D.2's
  proof): ``mode="resume"`` handles each uncovered point in place,
  ``mode="faithful"`` restarts Algorithm 1 from the root after every
  one.  Both produce identical output; the restarts cost one
  root-to-leaf re-descent (containment queries) per output.
* **Resolvent caching** is ablated in bench_fig2_tree_ordered.
"""

import time

import pytest

from benchmarks.conftest import print_sweep
from repro.core.resolution import ResolutionStats
from repro.core.stores import ListStore
from repro.core.tetris import BoxSetOracle, TetrisEngine
from tests.helpers import random_boxes

NDIM, DEPTH = 3, 4


def _run(boxes, store=None, mode="resume", stats=None):
    engine = TetrisEngine(
        NDIM, DEPTH, stats=stats,
        knowledge_base=store,
    )
    oracle = BoxSetOracle(boxes, NDIM)
    return engine.run(oracle, preload=True, mode=mode)


def test_store_ablation(benchmark):
    """Dyadic tree vs flat list: same answers, diverging runtimes.

    Measured on the structured hard instances, where most containment
    queries *miss* and the flat list pays O(|A|) per miss; the tree walks
    only stored prefixes (Õ(1), Prop B.12).  On random fat-box inputs the
    list can even win — hits come early — which is why the paper's claim
    is about the worst case.
    """
    from repro.workloads.hard_instances import (
        example_f1,
        shared_suffix_instance,
    )

    workloads = [
        ("shared-suffix d=4", shared_suffix_instance(4), 4),
        ("shared-suffix d=5", shared_suffix_instance(5), 5),
        ("example F.1 d=6", example_f1(6), 6),
    ]
    rows = []
    for name, boxes, depth in workloads:
        engine_kwargs = dict(ndim=3, depth=depth)
        t0 = time.perf_counter()
        tree_engine = TetrisEngine(**engine_kwargs)
        tree_out = tree_engine.run(BoxSetOracle(boxes, 3), preload=True)
        t_tree = time.perf_counter() - t0
        t0 = time.perf_counter()
        list_engine = TetrisEngine(
            **engine_kwargs, knowledge_base=ListStore(3)
        )
        list_out = list_engine.run(BoxSetOracle(boxes, 3), preload=True)
        t_list = time.perf_counter() - t0
        assert sorted(tree_out) == sorted(list_out)
        rows.append(
            (name, len(boxes), round(t_tree * 1e3, 1),
             round(t_list * 1e3, 1), t_list / max(t_tree, 1e-9))
        )
    print_sweep(
        "Ablation: multilevel dyadic tree vs linear-scan store (ms)",
        ("workload", "boxes", "dyadic tree", "linear scan", "slowdown"),
        rows,
    )
    assert rows[-1][4] > 3.0, "dyadic tree shows no advantage"
    boxes = shared_suffix_instance(4)
    benchmark(
        lambda: TetrisEngine(3, 4).run(BoxSetOracle(boxes, 3), preload=True)
    )


def test_one_pass_ablation(benchmark):
    """One-pass and restarting traversals agree tuple-for-tuple."""
    rows = []
    for count in (50, 150):
        boxes = random_boxes(count + 1, count, NDIM, DEPTH)
        s_one = ResolutionStats()
        s_restart = ResolutionStats()
        one = _run(boxes, mode="resume", stats=s_one)
        restart = _run(boxes, mode="faithful", stats=s_restart)
        assert sorted(one) == sorted(restart)
        rows.append(
            (count, len(one), s_one.resolutions, s_restart.resolutions,
             s_one.containment_queries, s_restart.containment_queries)
        )
    print_sweep(
        "Ablation: one-pass vs restarting outer loop",
        ("boxes", "Z", "res (1-pass)", "res (restart)",
         "queries (1-pass)", "queries (restart)"),
        rows,
    )
    boxes = random_boxes(9, 150, NDIM, DEPTH)
    benchmark(lambda: _run(boxes, mode="faithful"))


def test_sao_choice_matters(benchmark):
    """SAO ablation: Example F.1 defeats every SAO, but on GAO-friendly
    instances the theorem-recommended order wins measurably."""
    import itertools

    from repro.core.tetris import solve_bcp
    from repro.workloads.hard_instances import shared_suffix_instance

    boxes = shared_suffix_instance(3)
    counts = {}
    for sao in itertools.permutations(range(3)):
        stats = ResolutionStats()
        assert solve_bcp(boxes, 3, 3, sao=sao, stats=stats) == []
        counts[sao] = stats.resolutions
    spread = max(counts.values()) / min(counts.values())
    print(f"\nSAO resolution counts: {counts}")
    print(f"best/worst spread: {spread:.1f}×")
    assert spread > 1.5, "SAO choice should matter on this instance"
    benchmark(lambda: solve_bcp(boxes, 3, 3))
