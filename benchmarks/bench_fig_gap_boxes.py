"""Figures 1, 3, 4 — gap-box geometry of the index structures.

* Figures 1b / 3a: the two B-tree sort orders of the running example
  produce different gap-box sets, each covering the exact complement.
* Figure 3b + footnote 9: a dyadic (quadtree) index can need
  exponentially fewer boxes (the MSB-complement relation: 2 vs ≥ 2^{d-1}).
* Figure 4 / Proposition B.14: dyadic decomposition of an arbitrary
  interval costs ≤ 2d segments — so B-tree gap counts stay Õ(N).
"""

import random

import pytest

from benchmarks.conftest import print_sweep
from repro.core.intervals import pdecompose_range
from repro.indexes.btree import BTreeIndex
from repro.indexes.dyadic_index import DyadicTreeIndex, KDTreeIndex
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema


def _random_relation(n, depth, seed):
    rng = random.Random(seed)
    rows = {
        (rng.randrange(1 << depth), rng.randrange(1 << depth))
        for _ in range(n)
    }
    return Relation(RelationSchema("R", ("A", "B")), rows, Domain(depth))


def test_gap_box_counts_by_index(benchmark):
    """Per-index gap-box counts on random relations (the Fig 1/3 story)."""
    depth = 8
    rows = []
    for n in (25, 50, 100, 200):
        rel = _random_relation(n, depth, seed=n)
        bt = BTreeIndex(rel, ("A", "B")).count_gap_boxes()
        bt2 = BTreeIndex(rel, ("B", "A")).count_gap_boxes()
        quad = DyadicTreeIndex(rel).count_gap_boxes()
        kd = KDTreeIndex(rel).count_gap_boxes()
        rows.append((len(rel), bt, bt2, quad, kd))
        # Õ(N) for B-trees: each tuple contributes ≤ 2d boxes per level.
        assert bt <= (len(rel) + 1) * 2 * depth * 2
    print_sweep(
        "Figures 1/3: gap boxes per index type (random relations)",
        ("N", "btree(A,B)", "btree(B,A)", "quadtree", "kdtree"),
        rows,
    )
    rel = _random_relation(100, depth, seed=100)
    benchmark(lambda: BTreeIndex(rel, ("A", "B")).count_gap_boxes())


def test_msb_exponential_separation(benchmark):
    """Footnote 9: quadtree needs 2 boxes, B-tree ≥ 2^{d-1}."""
    rows = []
    for depth in (3, 4, 5, 6):
        side = 1 << depth
        tuples = [
            (a, b)
            for a in range(side)
            for b in range(side)
            if (a >> (depth - 1)) != (b >> (depth - 1))
        ]
        rel = Relation(
            RelationSchema("R", ("A", "B")), tuples, Domain(depth)
        )
        quad = DyadicTreeIndex(rel).count_gap_boxes()
        bt = BTreeIndex(rel, ("A", "B")).count_gap_boxes()
        rows.append((depth, len(rel), quad, bt))
        assert quad == 2
        assert bt >= side
    print_sweep(
        "Footnote 9: MSB-complement relation, quadtree vs B-tree",
        ("depth", "N", "quadtree boxes", "btree boxes"),
        rows,
    )
    rel = Relation(
        RelationSchema("R", ("A", "B")),
        [(a, b) for a in range(32) for b in range(32)
         if (a >> 4) != (b >> 4)],
        Domain(5),
    )
    benchmark(lambda: DyadicTreeIndex(rel).count_gap_boxes())


def test_dyadic_decomposition_bound(benchmark):
    """Proposition B.14: any range decomposes into ≤ 2d dyadic pieces."""
    rng = random.Random(0)
    for depth in (8, 12, 16):
        worst = 0
        for _ in range(500):
            a = rng.randrange(1 << depth)
            b = rng.randrange(1 << depth)
            lo, hi = min(a, b), max(a, b)
            worst = max(worst, len(pdecompose_range(lo, hi, depth)))
        print(f"depth {depth}: worst decomposition {worst} ≤ {2 * depth}")
        assert worst <= 2 * depth
    benchmark(
        lambda: [
            pdecompose_range(1, (1 << 16) - 2, 16) for _ in range(100)
        ]
    )
