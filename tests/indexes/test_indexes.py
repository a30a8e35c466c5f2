"""Tests for B-tree, dyadic, and KD-tree indexes and their gap boxes.

The central invariant for every index kind (Section 3.3): the union of an
index's gap boxes is *exactly* the complement of the relation in its own
attribute space.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import intervals as dy
from repro.indexes.btree import BTreeIndex
from repro.indexes.dyadic_index import DyadicTreeIndex, KDTreeIndex
from repro.joins.tetris_join import tetris_engine
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema
from repro.workloads.generators import db_from_tuples
from repro.workloads.hard_instances import msb_relation
from tests.helpers import (
    check_container_answer,
    gap_boxes_containing,
    pcovers_point,
    reference_cell_gap_box_around,
    reference_gap_box_around,
    reference_oracle_container,
)

DEPTH = 3
DOMAIN = 1 << DEPTH


def make_relation(tuples, arity=2, depth=DEPTH, name="R"):
    attrs = tuple("ABCDE"[:arity])
    return Relation(RelationSchema(name, attrs), tuples, Domain(depth))


def covered_points(gap_boxes, arity, depth):
    # Gap boxes come out of the indexes in packed marker-bit form.
    pts = set()
    for box, _ in gap_boxes:
        ranges = []
        for p in box:
            lo, hi = dy.pto_range(p, depth)
            ranges.append(range(lo, hi + 1))
        pts.update(itertools.product(*ranges))
    return pts


def full_space(arity, depth):
    return set(itertools.product(range(1 << depth), repeat=arity))


pairs = st.sets(
    st.tuples(st.integers(0, DOMAIN - 1), st.integers(0, DOMAIN - 1)),
    max_size=10,
)


class TestBTreeIndex:
    def test_bad_order(self):
        rel = make_relation([(0, 1)])
        with pytest.raises(ValueError):
            BTreeIndex(rel, ("A", "C"))

    def test_contains(self):
        idx = BTreeIndex(make_relation([(1, 2), (3, 0)]), ("B", "A"))
        assert idx.contains((1, 2))
        assert not idx.contains((2, 1))

    def test_gao_consistency_check(self):
        idx = BTreeIndex(make_relation([(0, 0)]), ("B", "A"))
        assert idx.is_consistent_with(("B", "A", "C"))
        assert idx.is_consistent_with(("C", "B", "A"))
        assert not idx.is_consistent_with(("A", "B"))

    @settings(max_examples=40, deadline=None)
    @given(pairs)
    def test_gap_boxes_cover_exact_complement(self, tuples):
        rel = make_relation(tuples)
        for order in (("A", "B"), ("B", "A")):
            idx = BTreeIndex(rel, order)
            pts = covered_points(idx.gap_boxes(), 2, DEPTH)
            # Boxes are in attr_order layout; translate the expected
            # complement accordingly.
            perm = [rel.schema.position(a) for a in order]
            stored = {tuple(t[i] for i in perm) for t in tuples}
            assert pts == full_space(2, DEPTH) - stored

    @settings(max_examples=40, deadline=None)
    @given(pairs, st.tuples(st.integers(0, DOMAIN - 1),
                            st.integers(0, DOMAIN - 1)))
    def test_lazy_probe_matches_materialized(self, tuples, probe):
        rel = make_relation(tuples)
        idx = BTreeIndex(rel, ("A", "B"))
        lazy = gap_boxes_containing(idx, probe)
        if probe in rel.tuples():
            assert lazy == []
        else:
            assert len(lazy) == 1
            box = lazy[0]
            # The probe is inside the returned box and the box is one of
            # the materialized gap boxes.
            for p, c in zip(box, probe):
                assert pcovers_point(p, c, DEPTH)
            materialized = {b for b, _ in idx.gap_boxes()}
            assert box in materialized

    def test_example_1_1_gap_shapes(self):
        """Figure 1b: the (A,B)-ordered B-tree of the running example."""
        tuples = (
            [(3, b) for b in (1, 3, 5, 7)]
            + [(a, 3) for a in (1, 3, 5, 7)]
        )
        rel = make_relation(tuples)
        idx = BTreeIndex(rel, ("A", "B"))
        boxes = [b for b, _ in idx.gap_boxes()]
        # Gap boxes with λ on B correspond to missing A-values
        # (A ∈ {0,2,4,6} have no tuples): e.g. the dyadic piece for A=0.
        lambda_b = [b for b in boxes if b[1] == dy.PLAMBDA]
        a_values = set()
        for b in lambda_b:
            lo, hi = dy.pto_range(b[0], DEPTH)
            a_values.update(range(lo, hi + 1))
        assert a_values == {0, 2, 4, 6}


class TestDyadicTreeIndex:
    @settings(max_examples=30, deadline=None)
    @given(pairs)
    def test_gap_boxes_cover_exact_complement(self, tuples):
        rel = make_relation(tuples)
        idx = DyadicTreeIndex(rel)
        pts = covered_points(idx.gap_boxes(), 2, DEPTH)
        assert pts == full_space(2, DEPTH) - set(map(tuple, tuples))

    @settings(max_examples=30, deadline=None)
    @given(pairs, st.tuples(st.integers(0, DOMAIN - 1),
                            st.integers(0, DOMAIN - 1)))
    def test_lazy_probe(self, tuples, probe):
        rel = make_relation(tuples)
        idx = DyadicTreeIndex(rel)
        lazy = gap_boxes_containing(idx, probe)
        if probe in rel.tuples():
            assert lazy == []
        else:
            assert len(lazy) == 1
            for p, c in zip(lazy[0], probe):
                assert pcovers_point(p, c, DEPTH)

    def test_quadtree_beats_btree_on_msb_relation(self):
        """Footnote 9: the MSB-complement relation of Figure 5a needs 2 gap
        boxes in a dyadic tree but Θ(2^{d-1}) in a B-tree."""
        rel = make_relation(msb_relation(DEPTH))
        quad = DyadicTreeIndex(rel).count_gap_boxes()
        bt_ab = BTreeIndex(rel, ("A", "B")).count_gap_boxes()
        assert quad == 2  # ⟨0,0⟩ and ⟨1,1⟩
        assert bt_ab >= DOMAIN  # one gap per A value at least

    def test_empty_relation(self):
        rel = make_relation([])
        boxes = [b for b, _ in DyadicTreeIndex(rel).gap_boxes()]
        assert boxes == [(dy.PLAMBDA, dy.PLAMBDA)]


class TestKDTreeIndex:
    @settings(max_examples=30, deadline=None)
    @given(pairs)
    def test_gap_boxes_cover_exact_complement(self, tuples):
        rel = make_relation(tuples)
        idx = KDTreeIndex(rel)
        pts = covered_points(idx.gap_boxes(), 2, DEPTH)
        assert pts == full_space(2, DEPTH) - set(map(tuple, tuples))

    @settings(max_examples=30, deadline=None)
    @given(pairs, st.tuples(st.integers(0, DOMAIN - 1),
                            st.integers(0, DOMAIN - 1)))
    def test_lazy_probe(self, tuples, probe):
        rel = make_relation(tuples)
        idx = KDTreeIndex(rel)
        lazy = gap_boxes_containing(idx, probe)
        if probe in rel.tuples():
            assert lazy == []
        else:
            assert len(lazy) == 1
            for p, c in zip(lazy[0], probe):
                assert pcovers_point(p, c, DEPTH)

    def test_unary_relation(self):
        rel = make_relation([(3,)], arity=1)
        idx = KDTreeIndex(rel)
        pts = covered_points(idx.gap_boxes(), 1, DEPTH)
        assert pts == {(v,) for v in range(DOMAIN) if v != 3}


# -- the box probe, all three kinds -------------------------------------------------


@st.composite
def relation_and_boxes(draw):
    """A small relation (empty, single-row and the domain's end values
    included) and dyadic probe boxes over its index's attributes: every
    component length from λ to unit."""
    arity = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 6))
    top = (1 << depth) - 1
    value = st.one_of(st.integers(0, top), st.sampled_from([0, top]))
    rows = draw(st.sets(st.tuples(*[value] * arity), max_size=12))
    order = tuple(draw(st.permutations("ABC"[:arity])))
    component = st.integers(0, depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )
    unit_box = st.tuples(*[st.integers(1 << depth, (2 << depth) - 1)] * arity)
    boxes = draw(st.lists(
        st.one_of(st.tuples(*[component] * arity), unit_box),
        min_size=1, max_size=12,
    ))
    return make_relation(sorted(rows), arity, depth), order, boxes


@pytest.mark.parametrize("kind", ["btree", "dyadic", "kdtree"])
@settings(max_examples=120, deadline=None)
@given(case=relation_and_boxes())
def test_gap_box_around_against_the_materialised_gap_boxes(kind, case):
    """``gap_box_around(b)`` is ``None`` iff no materialised gap box
    contains ``b``; otherwise it contains ``b`` and lies inside one.  The
    answer is exactly the reference's: a B-tree's generated walk answers
    what the hand-written loop did, and a cell index's Morton descent
    the maximal empty cell the per-level row filter finds."""
    rel, order, boxes = case
    idx = {
        "btree": lambda: BTreeIndex(rel, order),
        "dyadic": lambda: DyadicTreeIndex(rel),
        "kdtree": lambda: KDTreeIndex(rel),
    }[kind]()
    reference = (
        reference_gap_box_around if kind == "btree"
        else reference_cell_gap_box_around
    )
    gap_boxes = [box for box, _attrs in idx.gap_boxes()]
    for b in boxes:
        check_container_answer(idx.gap_box_around(b), b, gap_boxes)
        assert idx.gap_box_around(b) == reference(idx, b)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["btree", "dyadic", "kdtree"]),
    probes=st.lists(
        st.lists(st.integers(0, DEPTH), min_size=3, max_size=3),
        min_size=1, max_size=10,
    ),
)
def test_oracle_container_under_a_non_identity_sao(seed, kind, probes):
    """``QueryGapOracle.container`` through the engine's SAO translation:
    atoms list their attributes out of space order and the GAO is not
    the variable order, so restrict, lift and both SAO maps permute."""
    rng = random.Random(seed)
    query = JoinQuery([
        RelationSchema("R", ("b", "a")),
        RelationSchema("S", ("c", "b")),
        RelationSchema("T", ("c", "a")),
    ])
    rows = {
        name: sorted({
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN))
            for _ in range(rng.randrange(8))
        })
        for name in "RST"
    }
    db = db_from_tuples(query, rows, DEPTH)
    engine, oracle, _gao = tetris_engine(
        query, db, index_kind=kind, gao=("c", "a", "b")
    )
    assert engine.sao != tuple(range(3))
    gap_boxes = oracle.boxes()
    for lengths in probes:
        box = tuple(
            (1 << length) | rng.getrandbits(length) for length in lengths
        )
        found = oracle.container(box)
        check_container_answer(found, box, gap_boxes)
        internal = reference_oracle_container(
            engine, oracle, engine.to_internal(box)
        )
        assert internal == (
            None if found is None else engine.to_internal(found)
        )
