"""An index is built, and its geometry extracted, once per (relation, order).

The index lives on the relation's sorted view for its order, its gap
boxes live in the index as flat ``array('Q')`` columns, and the oracle
streams them into the knowledge base already lifted and in the engine's
axis order.  The fence is exactness against the spelled-out
per-query pipeline this replaced — walk the trie per node with the
public (unsorted-input) gap helper, lift box by box, de-duplicate, permute,
insert — which stays here as the reference: same boxes, same insertion
order, every ``ResolutionStats`` field equal.
"""

import itertools
import pickle
import random
import weakref
from array import array
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.intervals as intervals_module
from repro.core.intervals import PLAMBDA
from repro.core.resolution import ResolutionStats
from repro.core.tetris import BoxSetOracle, TetrisEngine
from repro.engine import execute
from repro.indexes import (
    BTreeIndex,
    DyadicTreeIndex,
    KDTreeIndex,
    QueryGapOracle,
    build_all_order_btrees,
    build_btree_indexes,
    build_dyadic_indexes,
    build_kdtree_indexes,
)
from repro.indexes.gaps import pdyadic_gaps
from repro.joins.tetris_join import join_tetris, make_oracle
from repro.obs.metrics import REGISTRY
from repro.relational.query import Database, JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema
from repro.workloads.generators import (
    agm_tight_triangle,
    db_from_tuples,
    dense_cycle_db,
    random_path_db,
    split_path_instance,
)
from tests.helpers import interpreted_tetris

INDEX_KINDS = ("btree", "dyadic", "kdtree")
INDEX_CLASSES = (BTreeIndex, DyadicTreeIndex, KDTreeIndex)


# -- the reference: per-query extraction, box by box ------------------------------


def _btree_boxes(relation, order):
    """Gap boxes of the trie on ``order``, gaps of a node before its children."""
    depth = relation.domain.depth
    unit = 1 << depth
    arity = len(order)

    def walk(rows, path):
        level = len(path)
        tail = (PLAMBDA,) * (arity - level - 1)
        for piece in pdyadic_gaps({row[level] for row in rows}, depth):
            yield path + (piece,) + tail
        if level + 1 < arity:
            for key, group in itertools.groupby(rows, lambda r: r[level]):
                yield from walk(list(group), path + (unit | key,))

    return list(walk(relation.sorted_by(order), ()))


def _cell_boxes(relation, children):
    """Empty cells of a recursive subdivision, maximal first, pre-order."""
    depth = relation.domain.depth

    def holds(cell, row):
        return all(
            ((1 << depth) | v) >> (depth + 1 - p.bit_length()) == p
            for p, v in zip(cell, row)
        )

    def walk(cell, level, rows):
        if not rows:
            yield cell
            return
        for child in children(cell, level):
            yield from walk(
                child, level + 1, [r for r in rows if holds(child, r)]
            )

    return list(walk((PLAMBDA,) * relation.arity, 0, relation.rows()))


def _dyadic_boxes(relation):
    arity, depth = relation.arity, relation.domain.depth

    def children(cell, level):
        if level == depth:
            return []
        return [
            tuple((p << 1) | ((mask >> i) & 1) for i, p in enumerate(cell))
            for mask in range(1 << arity)
        ]

    return _cell_boxes(relation, children)


def _kd_boxes(relation):
    arity, depth = relation.arity, relation.domain.depth

    def children(cell, level):
        if level == depth * arity:
            return []
        axis = level % arity
        return [
            cell[:axis] + ((cell[axis] << 1) | bit,) + cell[axis + 1:]
            for bit in (0, 1)
        ]

    return _cell_boxes(relation, children)


def _index_boxes(index):
    if isinstance(index, BTreeIndex):
        return _btree_boxes(index.relation, index.attr_order)
    if isinstance(index, DyadicTreeIndex):
        return _dyadic_boxes(index.relation)
    return _kd_boxes(index.relation)


def _lifted(oracle):
    """Every index box lifted into space order, duplicates kept."""
    out = []
    for index in oracle.indexes:
        axes = [oracle.attrs.index(a) for a in index.attr_order]
        for box in _index_boxes(index):
            lifted = [PLAMBDA] * len(oracle.attrs)
            for axis, comp in zip(axes, box):
                lifted[axis] = comp
            out.append(tuple(lifted))
    return out


def _reference_run(oracle, depth, sao):
    """Tetris-Preloaded on the reference boxes, loaded one by one."""
    engine = TetrisEngine(
        len(oracle.attrs), depth, sao=sao, stats=ResolutionStats()
    )
    for box in dict.fromkeys(_lifted(oracle)):
        engine.add_box(box)
    points = engine.run(BoxSetOracle([], len(oracle.attrs)), preload=True)
    return sorted(points), asdict(engine.stats)


def _run(oracle, depth, sao):
    engine = TetrisEngine(
        len(oracle.attrs), depth, sao=sao, stats=ResolutionStats()
    )
    points = engine.run(oracle, preload=True)
    return sorted(points), asdict(engine.stats)


# -- instances ------------------------------------------------------------------


def _triangle(seed, depth=4, edges=18):
    rng = random.Random(seed)
    query = JoinQuery([
        RelationSchema("R", ("A", "B")),
        RelationSchema("S", ("B", "C")),
        RelationSchema("T", ("A", "C")),
    ])
    size = 1 << depth
    tuples = {
        name: {(rng.randrange(size), rng.randrange(size))
               for _ in range(edges)}
        for name in "RST"
    }
    return query, db_from_tuples(query, tuples, depth)


def _with_relation(query, db, name, rows):
    """The same database with one relation's rows replaced."""
    return Database([
        Relation(rel.schema, rows, rel.domain) if rel.name == name else rel
        for rel in (db[atom.name] for atom in query.atoms)
    ])


def _table1_instances():
    yield "agm-tight-triangle", agm_tight_triangle(4)
    yield "random-path", random_path_db(3, 20, seed=3, depth=4)
    yield "split-path", split_path_instance(8, 4)[:2]
    yield "dense-cycle", dense_cycle_db(4, 12, depth=3, seed=2)
    query, db = _triangle(5)
    yield "empty-relation", (query, _with_relation(query, db, "S", []))
    yield "single-row", (query, _with_relation(query, db, "T", [(3, 9)]))


TABLE1 = dict(_table1_instances())


# -- (i) a repeated execution builds and decomposes nothing ---------------------------


@pytest.fixture
def build_counts(monkeypatch):
    """Index constructions and ``pdecompose_range`` calls, counted."""
    counts = Counter()
    for cls in INDEX_CLASSES:
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            counts["builds"] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    decompose = intervals_module.pdecompose_range

    def counted(lo, hi, depth):
        counts["decompose"] += 1
        return decompose(lo, hi, depth)

    monkeypatch.setattr(intervals_module, "pdecompose_range", counted)
    return counts


@pytest.mark.parametrize("variant", ["preloaded", "reloaded"])
@pytest.mark.parametrize("index_kind", INDEX_KINDS)
def test_second_execution_builds_and_decomposes_nothing(
    index_kind, variant, build_counts
):
    query, db = _triangle(1)
    kwargs = dict(algorithm=f"tetris-{variant}", index_kind=index_kind)
    metric = REGISTRY.value("relation.index.builds")

    first = execute(query, db, **kwargs)
    assert build_counts["builds"] == len(query.atoms)
    # Only a materialized B-tree decomposes ranges; the probes do not.
    assert (build_counts["decompose"] > 0) == (
        (index_kind, variant) == ("btree", "preloaded")
    )
    built = REGISTRY.value("relation.index.builds") - metric
    assert built == len(query.atoms)
    build_counts.clear()

    second = execute(query, db, **kwargs)
    assert build_counts == Counter()
    built = REGISTRY.value("relation.index.builds") - metric
    assert built == len(query.atoms)

    fresh = execute(query, _triangle(1)[1], **kwargs)
    with interpreted_tetris():
        interpreted = join_tetris(
            query, db, variant=variant, index_kind=index_kind,
            gao=first.gao,
        )
    for other in (second, fresh, interpreted):
        assert other.tuples == first.tuples
        assert asdict(other.stats) == asdict(first.stats)


# -- (ii) same boxes, same load, as the per-query pipeline ---------------------------


@pytest.mark.parametrize("index_kind", INDEX_KINDS)
@pytest.mark.parametrize("name", sorted(TABLE1))
def test_boxes_and_load_match_the_per_query_pipeline(name, index_kind):
    query, db = TABLE1[name]
    oracle, gao = make_oracle(query, db, index_kind=index_kind)
    depth = db.domain.depth
    want = list(dict.fromkeys(_lifted(oracle)))
    assert oracle.boxes() == want  # same boxes, same first-seen order
    assert len(oracle) == len(want)
    for index in oracle.indexes:
        assert index.count_gap_boxes() == len(_index_boxes(index))

    identity = tuple(range(len(oracle.attrs)))
    gao_order = tuple(oracle.attrs.index(a) for a in gao)
    for sao in {identity, gao_order, identity[::-1]}:
        assert list(oracle.ordered_boxes(sao)) == [
            tuple(box[axis] for axis in sao) for box in _lifted(oracle)
        ]
        points, stats = _run(oracle, depth, sao)
        assert (points, stats) == _reference_run(oracle, depth, sao)
        with interpreted_tetris():
            assert (points, stats) == _run(oracle, depth, sao)
        assert stats["boxes_loaded"] == len(want) + len(points)


def test_empty_relations_share_the_universe_box():
    """Each empty relation's index exposes ⟨λ,...,λ⟩; it is loaded once."""
    query, db = _triangle(2)
    db = _with_relation(query, db, "R", [])
    db = _with_relation(query, db, "S", [])
    oracle, _gao = make_oracle(query, db)
    universe = (PLAMBDA,) * 3
    assert list(oracle.ordered_boxes((0, 1, 2))).count(universe) == 2
    assert oracle.boxes().count(universe) == 1
    points, stats = _run(oracle, db.domain.depth, (2, 0, 1))
    assert points == []
    assert stats["boxes_loaded"] == len(oracle)


def test_several_orders_of_one_relation():
    """Both B-tree orders of every atom: attributes repeat across indexes."""
    query, db = _triangle(3)
    oracle = QueryGapOracle(query, build_all_order_btrees(query, db))
    assert len(oracle.indexes) == 6
    assert oracle.boxes() == list(dict.fromkeys(_lifted(oracle)))
    depth = db.domain.depth
    for sao in [(0, 1, 2), (1, 2, 0)]:
        assert _run(oracle, depth, sao) == _reference_run(oracle, depth, sao)
    again = build_all_order_btrees(query, db)
    assert all(a is b for a, b in zip(again, oracle.indexes))


# -- (iii) the index lives and dies with its view -------------------------------------


def _wide_relation():
    rng = random.Random(4)
    schema = RelationSchema("W", ("A", "B", "C", "D"))
    rows = {tuple(rng.randrange(8) for _ in range(4)) for _ in range(12)}
    query = JoinQuery([schema])
    return query, Database([Relation(schema, rows, Domain(3))])


def test_index_is_evicted_with_its_view():
    query, db = _wide_relation()
    rel = db["W"]
    (dyadic,) = build_dyadic_indexes(query, db)
    (kd,) = build_kdtree_indexes(query, db)
    orders = [
        o for o in itertools.permutations(rel.attrs) if o != rel.attrs
    ][:Relation.VIEW_CACHE_CAP + 1]
    (first,) = build_btree_indexes(query, db, orders[0])
    first.gap_columns()
    assert build_btree_indexes(query, db, orders[0])[0] is first
    gone = weakref.ref(first)
    del first
    evictions = rel.view_evictions
    for order in orders[1:]:
        build_btree_indexes(query, db, order)
    assert rel.view_evictions == evictions + 1
    assert orders[0] not in rel.cached_view_orders()
    assert gone() is None  # nothing but the view held it
    # The canonical view is pinned, and the order-free indexes with it.
    assert build_dyadic_indexes(query, db)[0] is dyadic
    assert build_kdtree_indexes(query, db)[0] is kd
    rebuilt = build_btree_indexes(query, db, orders[0])[0]
    assert list(rebuilt.gap_boxes()) == [
        (box, orders[0]) for box in _btree_boxes(rel, orders[0])
    ]


# -- (iv) shipped relations arrive bare and rebuild lazily -----------------------------


def _shm_copy(rel):
    total, header = rel.shm_layout()
    buf = bytearray(total)
    rel.to_shm(buf, header)
    return Relation.from_shm(buf)


@pytest.mark.parametrize("ship", [
    lambda rel: pickle.loads(pickle.dumps(rel)), _shm_copy,
], ids=["pickle", "shm"])
@pytest.mark.parametrize("index_kind", INDEX_KINDS)
def test_shipped_relation_rebuilds_identical_geometry(
    index_kind, ship, build_counts
):
    query, db = _triangle(6)
    oracle, gao = make_oracle(query, db, index_kind=index_kind)
    boxes = oracle.boxes()
    build_counts.clear()

    shipped = Database([ship(db[atom.name]) for atom in query.atoms])
    assert all(
        shipped[atom.name].cached_view_orders() == () for atom in query.atoms
    )
    assert build_counts["builds"] == 0  # nothing until someone asks
    arrived, _ = make_oracle(query, shipped, index_kind=index_kind, gao=gao)
    assert build_counts["builds"] == len(query.atoms)
    assert arrived.boxes() == boxes
    for mine, theirs in zip(oracle.indexes, arrived.indexes):
        assert mine is not theirs
        assert mine.gap_columns() == theirs.gap_columns()


# -- (v) the widest domains fit the unsigned columns ----------------------------------


@pytest.mark.parametrize("depth", [62, 63])
@pytest.mark.parametrize("cls", INDEX_CLASSES)
def test_widest_domains_round_trip_through_the_columns(cls, depth):
    top = (1 << depth) - 1
    schema = RelationSchema("R", ("A", "B"))
    rel = Relation(schema, [(top, 0), (top, top), (top - 2, 5)], Domain(depth))
    index = cls(rel, ("B", "A")) if cls is BTreeIndex else cls(rel)
    cols = index.gap_columns()
    assert all(isinstance(c, array) and c.typecode == "Q" for c in cols)
    boxes = [box for box, _attrs in index.gap_boxes()]
    assert boxes == _index_boxes(index)
    assert max(map(max, boxes)) >= 1 << depth  # a full-length component
    assert index.count_gap_boxes() == len(boxes)


# -- (vi) random relations, random attribute orders ------------------------------------


@st.composite
def relations_and_gaos(draw):
    arity = draw(st.integers(2, 3))
    depth = draw(st.integers(0, 3))
    attrs = ("A", "B", "C")[:arity]
    rows = draw(st.sets(
        st.tuples(*[st.integers(0, (1 << depth) - 1)] * arity), max_size=12
    ))
    extra = draw(st.sets(st.integers(0, (1 << depth) - 1), max_size=4))
    variables = attrs + ("X",)
    gao = tuple(draw(st.permutations(variables)))
    axes = tuple(draw(st.permutations(range(len(variables)))))
    query = JoinQuery([
        RelationSchema("R", attrs), RelationSchema("U", ("X",)),
    ])
    tuples = {"R": rows, "U": {(x,) for x in extra}}
    return query, db_from_tuples(query, tuples, depth), gao, axes


@settings(max_examples=120, deadline=None)
@given(case=relations_and_gaos(), index_kind=st.sampled_from(INDEX_KINDS))
def test_streamed_boxes_are_the_lifted_index_boxes(case, index_kind):
    query, db, gao, axes = case
    oracle, _ = make_oracle(query, db, index_kind=index_kind, gao=gao)
    want = Counter(_lifted(oracle))
    assert Counter(oracle.ordered_boxes(range(oracle.ndim))) == want
    assert Counter(oracle.ordered_boxes(axes)) == Counter(
        tuple(box[axis] for axis in axes) for box in want.elements()
    )
    assert sorted(oracle.boxes()) == sorted(want)
    for index in oracle.indexes:
        zipped = list(zip(*index.gap_columns()))
        assert zipped == _index_boxes(index)
        assert zipped == [box for box, _attrs in index.gap_boxes()]
