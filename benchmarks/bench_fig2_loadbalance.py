"""Figure 2, Geometric Resolution row — Tetris-LB beyond n = 3.

Theorem 4.11 holds for every n; this bench exercises the Balance map on
4-dimensional BCP instances (the lifted space has 2n-2 = 6 dimensions,
with two code/remainder dimension pairs) and confirms

* correctness against plain Tetris on random 4-D instances,
* the Õ(|C|^{n/2}) = Õ(|C|²) envelope on structured 4-D instances,
* that balanced partitions stay balanced (Definition 4.13) as inputs grow.
"""

import pytest

from benchmarks.conftest import loglog_slope, print_sweep
from repro.core.balance import (
    BalanceMap,
    balanced_partition,
    strictly_inside_count,
    tetris_preloaded_lb,
)
from repro.core.resolution import ResolutionStats
from repro.core.tetris import solve_bcp
from repro.workloads.hard_instances import staircase_instance
from tests.helpers import random_boxes


def test_lb_correct_in_4d(benchmark):
    """LB and plain Tetris agree on random 4-D instances."""
    for seed in (1, 2, 3):
        boxes = random_boxes(seed, 40, 4, 3)
        plain = sorted(solve_bcp(boxes, 4, 3))
        lb = tetris_preloaded_lb(boxes, 4, 3)
        assert lb == plain
    boxes = random_boxes(1, 40, 4, 3)
    benchmark(lambda: tetris_preloaded_lb(boxes, 4, 3))


def test_lb_envelope_on_staircase_4d(benchmark):
    """Resolution counts on 4-D staircases stay inside the |C|² envelope."""
    rows = []
    xs, ys = [], []
    for d in (2, 3, 4):
        boxes = staircase_instance(4, d)
        stats = ResolutionStats()
        tetris_preloaded_lb(boxes, 4, d, stats=stats)
        c = len(boxes)
        xs.append(c)
        ys.append(max(stats.resolutions, 1))
        rows.append((d, c, stats.resolutions, c * c))
        assert stats.resolutions <= c * c * (d + 2) ** 4
    slope = loglog_slope(xs, ys)
    print_sweep(
        "Figure 2: Tetris-LB on 4-D staircases",
        ("depth", "|C|", "resolutions", "|C|^2"),
        rows,
    )
    print(f"measured exponent: {slope:.2f} (paper envelope: ≤ 2 = n/2)")
    boxes = staircase_instance(4, 3)
    benchmark(lambda: tetris_preloaded_lb(boxes, 4, 3))


def test_partitions_stay_balanced(benchmark):
    """Definition 4.13 invariants hold as the box count scales."""
    rows = []
    for count in (50, 200, 800):
        boxes = random_boxes(count, count, 3, 8)
        parts = balanced_partition(boxes, 0, 8)
        threshold = count ** 0.5
        components = [b[0] for b in boxes]
        heavy = sum(
            1
            for p in parts
            if p.bit_length() - 1 < 8
            and strictly_inside_count(components, p) > threshold
        )
        rows.append((count, len(parts), int(threshold), heavy))
        assert heavy == 0
        # Õ(√|C|) parts: generous constant for the polylog.
        assert len(parts) <= 4 * threshold * 8
    print_sweep(
        "Balanced partitions (Definition 4.13) at scale",
        ("boxes", "parts", "√|C|", "heavy parts"),
        rows,
    )
    boxes = random_boxes(800, 800, 3, 8)
    benchmark(lambda: balanced_partition(boxes, 0, 8))
