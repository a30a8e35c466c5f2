"""QueryGapOracle against a spelled-out lift of its indexes' boxes.

The oracle restricts probe boxes and lifts index boxes through
per-index getters computed once; the boxes it returns, and their
order, must be what the obvious per-box loop produces.
"""

import random

import pytest

from repro.core.boxes import box_contains
from repro.core.intervals import PLAMBDA
from repro.joins.tetris_join import make_oracle
from repro.relational.query import JoinQuery
from repro.relational.schema import RelationSchema
from repro.workloads.generators import db_from_tuples, split_path_instance

DEPTH = 4


def _instance(seed):
    rng = random.Random(seed)
    query = JoinQuery([
        RelationSchema("R", ("a",)),
        RelationSchema("S", ("c", "a")),
        RelationSchema("T", ("b", "c")),
        RelationSchema("U", ("b",)),
    ])
    size = 1 << DEPTH
    tuples = {
        "R": sorted({(rng.randrange(size),) for _ in range(6)}),
        "S": sorted({(rng.randrange(size), rng.randrange(size))
                     for _ in range(20)}),
        "T": sorted({(rng.randrange(size), rng.randrange(size))
                     for _ in range(20)}),
        "U": sorted({(rng.randrange(size),) for _ in range(9)}),
    }
    return query, db_from_tuples(query, tuples, DEPTH)


def _lift(oracle, index, box):
    lifted = [PLAMBDA] * len(oracle.attrs)
    for comp, attr in zip(box, oracle._index_attr_order(index)):
        lifted[oracle.attrs.index(attr)] = comp
    return tuple(lifted)


def _containing(oracle, unit_box):
    unit = 1 << DEPTH
    out = []
    for index in oracle.indexes:
        point = [
            unit_box[oracle.attrs.index(attr)] ^ unit
            for attr in oracle._index_attr_order(index)
        ]
        out += [
            _lift(oracle, index, box)
            for box in index.gap_boxes_containing(point)
        ]
    return out


@pytest.mark.parametrize("index_kind", ["btree", "dyadic", "kdtree"])
@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_boxes_are_the_lifted_index_boxes(index_kind, seed):
    query, db = _instance(seed)
    oracle, _gao = make_oracle(query, db, index_kind=index_kind)
    assert oracle.attrs == query.variables

    expected = []
    for index in oracle.indexes:
        for box, _attrs in index.gap_boxes():
            lifted = _lift(oracle, index, box)
            if lifted not in expected:
                expected.append(lifted)
    assert oracle.boxes() == expected
    assert oracle.boxes() is oracle.boxes()  # materialized once

    rng = random.Random(seed)
    unit = 1 << DEPTH
    points = [
        tuple(unit | rng.randrange(unit) for _ in oracle.attrs)
        for _ in range(60)
    ]
    for point in points:
        assert oracle.containing(point) == _containing(oracle, point)
    # A box probe answers with a box the point probe at the box's
    # corner returns — the loaded set can only shrink.
    for point in points:
        cut = rng.randrange(len(point))
        box = point[:cut] + tuple(
            p >> rng.randint(0, DEPTH) for p in point[cut:]
        )
        found = oracle.container(box)
        corner = tuple(p << (DEPTH + 1 - p.bit_length()) for p in box)
        containers = [
            b for b in oracle.containing(corner) if box_contains(b, box)
        ]
        if found is None:
            assert not containers
        else:
            assert found == containers[0]


def test_container_hit_returns_the_gap_box_and_miss_returns_none():
    """On the split path R0(A0,A1) ⋈ R1(A1,A2) every R0 value of A1 is in
    the lower half: under the generator's GAO, R0's B-tree has the
    upper half of A1 as one gap box, and the universe, holding tuples
    of both relations, is in none."""
    query, db, gao = split_path_instance(400, depth=12, seed=1)
    oracle, _ = make_oracle(query, db, gao=gao)
    universe = (PLAMBDA,) * len(oracle.attrs)
    upper_b = tuple(3 if a == "A1" else PLAMBDA for a in oracle.attrs)
    assert oracle.container(universe) is None
    assert oracle.container(upper_b) == upper_b
