"""Klee's measure problem over the Boolean semiring (§2, Corollary F.8).

Given n-dimensional boxes, decide whether their union covers the whole
space (the Boolean box cover problem) and compute the measure of the
union.  Tetris solves the Boolean question in Õ(|C|^{n/2}) via load
balancing; we also provide a classical coordinate-compression sweep as an
exact reference for the measure itself.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core import intervals as dy
from repro.core.balance import tetris_preloaded_lb
from repro.core.boxes import PackedBox
from repro.core.resolution import ResolutionStats
from repro.core.tetris import boolean_box_cover


def klee_covers_space(
    boxes: Sequence[PackedBox],
    ndim: int,
    depth: int,
    use_load_balancing: bool = True,
    stats: Optional[ResolutionStats] = None,
) -> bool:
    """Boolean Klee: does the union of boxes cover the whole space?

    With load balancing this is the Õ(|C|^{n/2}) bound of Corollary F.8
    (matching Chan's O(m^{n/2}) but in certificate size).
    """
    if not use_load_balancing or ndim <= 2:
        return boolean_box_cover(boxes, ndim, depth, stats=stats)
    uncovered = tetris_preloaded_lb(boxes, ndim, depth, stats=stats)
    return not uncovered


def klee_measure_sweep(
    boxes: Sequence[PackedBox], ndim: int, depth: int
) -> int:
    """Exact measure of the union by coordinate-compression sweeping.

    Recursive slab decomposition: split on the distinct coordinates of
    the first dimension, recurse on the remaining dimensions.  O(m^n)
    worst case; the classical baseline the Overmars–Yap / Chan line
    improves on.
    """
    ranges = [
        tuple(dy.pto_range(p, depth) for p in box) for box in boxes
    ]
    side = 1 << depth

    def measure(dim: int, active: List[Tuple[Tuple[int, int], ...]]) -> int:
        if not active:
            return 0
        if dim == ndim - 1:
            # 1-D: merge intervals.
            spans = sorted(r[dim] for r in active)
            total = 0
            cur_lo, cur_hi = spans[0]
            for lo, hi in spans[1:]:
                if lo > cur_hi + 1:
                    total += cur_hi - cur_lo + 1
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            total += cur_hi - cur_lo + 1
            return total
        cuts = sorted(
            {r[dim][0] for r in active}
            | {r[dim][1] + 1 for r in active}
        )
        total = 0
        for lo, hi_excl in zip(cuts, cuts[1:]):
            slab = [
                r for r in active if r[dim][0] <= lo and r[dim][1] >= hi_excl - 1
            ]
            if slab:
                total += (hi_excl - lo) * measure(dim + 1, slab)
        return total

    return measure(0, ranges)


def klee_uncovered_count(
    boxes: Sequence[PackedBox], ndim: int, depth: int
) -> int:
    """Points *not* covered by the union (measure of the complement)."""
    return (1 << (depth * ndim)) - klee_measure_sweep(boxes, ndim, depth)
