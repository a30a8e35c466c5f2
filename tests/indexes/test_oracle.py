"""QueryGapOracle against a spelled-out lift of its indexes' boxes.

The oracle's probes (``container`` / ``containing``) are generated; the
hand-written loop they replaced stays here as the reference
(``ReferenceOracle``, over ``tests.helpers.reference_gap_box_around``):
the same answers, in the same index order.
"""

import random
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boxes import box_contains
from repro.core.intervals import PLAMBDA
from repro.indexes import (
    BTreeIndex,
    QueryGapOracle,
    build_all_order_btrees,
)
from repro.joins.tetris_join import make_oracle
from repro.relational.query import JoinQuery
from repro.relational.schema import RelationSchema
from repro.workloads.generators import db_from_tuples, split_path_instance
from tests.helpers import gap_boxes_containing, reference_gap_box_around

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
            for box in gap_boxes_containing(index, point)
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


# -- the reference: the hand-written loops the probes replaced -----------------


def _tuple_getter(positions):
    """``t -> tuple(t[i] for i in positions)``."""
    if len(positions) == 1:
        (i,) = positions
        return itemgetter(slice(i, i + 1))
    return itemgetter(*positions)


class ReferenceOracle:
    """``container`` / ``containing`` as loops over per-index getters:
    restrict the probe to the index's attributes, ask the index, lift
    its answer with λ appended for the axes it does not mention."""

    def __init__(self, oracle):
        axis_of = {a: i for i, a in enumerate(oracle.attrs)}
        self._probes = []
        for idx in oracle.indexes:
            axes = [axis_of[a] for a in idx.attr_order]
            template = [len(axes)] * len(oracle.attrs)
            for pos, axis in enumerate(axes):
                template[axis] = pos
            around = (
                (lambda comps, idx=idx: reference_gap_box_around(idx, comps))
                if type(idx) is BTreeIndex else idx.gap_box_around
            )
            self._probes.append(
                (around, _tuple_getter(axes), _tuple_getter(template))
            )

    def containing(self, unit_box):
        out = []
        for around, restrict, lift in self._probes:
            box = around(restrict(unit_box))
            if box is not None:
                out.append(lift(box + (PLAMBDA,)))
        return out

    def container(self, box):
        for around, restrict, lift in self._probes:
            found = around(restrict(box))
            if found is not None:
                return lift(found + (PLAMBDA,))
        return None


@st.composite
def oracle_and_probes(draw):
    """An oracle over one to three relations of arity 1–3 (empty,
    single-row and the domain's end values included) at depth 0–6,
    indexed by one kind or by every B-tree order, and probe boxes:
    the universe, unit boxes and boxes with λ tails."""
    depth = draw(st.integers(0, 6))
    top = (1 << depth) - 1
    names = "ABCD"
    atoms = []
    for r in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(1, 3))
        attrs = draw(st.permutations(names))[:arity]
        atoms.append(RelationSchema(f"R{r}", tuple(attrs)))
    query = JoinQuery(atoms)
    value = st.one_of(st.integers(0, top), st.sampled_from([0, top]))
    rows = {
        atom.name: sorted(draw(st.one_of(
            st.sets(st.tuples(*[value] * len(atom.attrs)), max_size=10),
            st.sets(st.tuples(*[value] * len(atom.attrs)), max_size=1),
        )))
        for atom in atoms
    }
    db = db_from_tuples(query, rows, depth)
    kind = draw(st.sampled_from(["btree", "dyadic", "kdtree", "all-orders"]))
    if kind == "all-orders":
        indexes = build_all_order_btrees(query, db)
    else:
        gao = tuple(draw(st.permutations(query.variables)))
        indexes = make_oracle(query, db, index_kind=kind, gao=gao)[0].indexes
    ndim = len(query.variables)
    unit = st.integers(1 << depth, (2 << depth) - 1)
    component = st.integers(0, depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )
    tailed = st.tuples(st.integers(0, ndim), st.tuples(*[unit] * ndim)).map(
        lambda cut_box: cut_box[1][:cut_box[0]]
        + (PLAMBDA,) * (ndim - cut_box[0])
    )
    probes = draw(st.lists(
        st.one_of(st.tuples(*[component] * ndim), st.tuples(*[unit] * ndim),
                  tailed),
        min_size=1, max_size=12,
    ))
    return QueryGapOracle(query, indexes), [(PLAMBDA,) * ndim] + probes


@settings(max_examples=150, deadline=None)
@given(case=oracle_and_probes())
def test_generated_probes_match_the_reference_loops(case):
    """The generated ``container`` and ``containing`` give the reference
    loops' answers, box for box (``gap_box_around`` against its own
    reference: ``test_gap_box_around_against_the_materialised_gap_boxes``)."""
    oracle, probes = case
    reference = ReferenceOracle(oracle)
    unit = 1 << oracle.indexes[0].depth
    for box in probes:
        assert oracle.container(box) == reference.container(box)
        point = tuple(p << (unit.bit_length() - p.bit_length()) for p in box)
        assert oracle.containing(point) == reference.containing(point)
        assert oracle.containing(box) == reference.containing(box)
