"""Gap-box oracles: the bridge from indexed relations to BCP instances.

``QueryGapOracle`` aggregates the gap boxes of every index of every input
relation (multiple indexes per relation are explicitly supported — that is
the Appendix B.2 generalization the paper advertises) and lifts them into
the query's output space with λ wildcards on the missing attributes
(Section 3.3).  It implements the interface the Tetris engine expects:

* ``containing(unit_box)`` — all gap boxes containing a probe point,
  answered *lazily* by the underlying indexes in Õ(1) per index;
* ``boxes()`` — the full materialized set B(Q), used by Tetris-Preloaded.

Everything is **packed** end to end: the indexes emit packed gap boxes,
lifting pads with the packed λ (``1``), and probe coordinates are read
straight off the packed unit components — no pair tuples between the
index layer and the Tetris engine.

Index *builds* ride the relation's order-cached columnar core: every
B-tree build reads the memoized sorted view for its attribute order and
the dyadic/kd trees share the canonical rows zero-copy, so constructing
the same oracle for repeated executions of a served workload never
re-sorts the data plane.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.boxes import PackedBox
from repro.core.intervals import PLAMBDA
from repro.indexes.btree import BTreeIndex
from repro.indexes.dyadic_index import DyadicTreeIndex, KDTreeIndex
from repro.relational.hypergraph import Hypergraph, gao_for_acyclic
from repro.relational.query import Database, JoinQuery

#: The one-component tail appended to an index box before lifting.
_LAMBDA = (PLAMBDA,)


def _tuple_getter(positions: Sequence[int]):
    """``t -> tuple(t[i] for i in positions)`` as one C-level call."""
    if len(positions) == 1:
        # itemgetter with one index returns the bare item; slice instead.
        (i,) = positions
        return itemgetter(slice(i, i + 1))
    return itemgetter(*positions)


class QueryGapOracle:
    """Oracle access to B(Q) = ∪_R B(R) lifted into the output space."""

    def __init__(
        self,
        query: JoinQuery,
        indexes: Iterable[object],
        attrs: Optional[Sequence[str]] = None,
    ):
        self.query = query
        self.attrs: Tuple[str, ...] = (
            tuple(attrs) if attrs is not None else query.variables
        )
        self.indexes: List[object] = list(indexes)
        if not self.indexes:
            raise ValueError("at least one index is required")
        self._materialized: Optional[List[PackedBox]] = None
        # Per index, computed once: ``restrict`` reads a probe point's
        # components on the index's attributes, ``lift`` scatters an
        # index box (with one λ appended) into the output space — every
        # axis the index does not mention reads the appended λ.
        axis_of = {a: i for i, a in enumerate(self.attrs)}
        self._probes: List[tuple] = []
        for idx in self.indexes:
            axes = [axis_of[a] for a in self._index_attr_order(idx)]
            template = [len(axes)] * len(self.attrs)
            for pos, axis in enumerate(axes):
                template[axis] = pos
            self._probes.append(
                (idx, _tuple_getter(axes), _tuple_getter(template))
            )

    @staticmethod
    def _index_attr_order(index: object) -> Tuple[str, ...]:
        if hasattr(index, "attr_order"):
            return tuple(index.attr_order)
        return tuple(index.relation.attrs)

    @property
    def ndim(self) -> int:
        return len(self.attrs)

    def containing(self, unit_box: PackedBox) -> List[PackedBox]:
        """All gap boxes containing the probe point, straight off the indexes.

        ``unit_box`` is packed; each probe coordinate is the packed unit
        component with its marker bit cleared.
        """
        out: List[PackedBox] = []
        for idx, restrict, lift in self._probes:
            point = tuple(
                [p ^ (1 << (p.bit_length() - 1)) for p in restrict(unit_box)]
            )
            for box in idx.gap_boxes_containing(point):
                out.append(lift(box + _LAMBDA))
        return out

    def containing_many(
        self, unit_boxes: Sequence[PackedBox]
    ) -> List[List[PackedBox]]:
        """Per-point container lists for a batch of probe points.

        Each index is visited once per *distinct* restricted probe point:
        batch points that agree on an index's attributes (sibling unit
        boxes differ in one attribute only) share the index walk and the
        lifting of its gap boxes.
        """
        results: List[List[PackedBox]] = [[] for _ in unit_boxes]
        for idx, restrict, lift in self._probes:
            memo: dict = {}
            for out, unit_box in zip(results, unit_boxes):
                comps = restrict(unit_box)
                lifted = memo.get(comps)
                if lifted is None:
                    point = tuple(
                        [p ^ (1 << (p.bit_length() - 1)) for p in comps]
                    )
                    lifted = memo[comps] = [
                        lift(box + _LAMBDA)
                        for box in idx.gap_boxes_containing(point)
                    ]
                out.extend(lifted)
        return results

    def boxes(self) -> List[PackedBox]:
        """Materialize the full lifted gap-box set (cached)."""
        if self._materialized is None:
            # dict.fromkeys dedups in first-seen order in one pass.
            self._materialized = list(dict.fromkeys(
                lift(box + _LAMBDA)
                for idx, _restrict, lift in self._probes
                for box, _attrs in idx.gap_boxes()
            ))
        return self._materialized

    def __len__(self) -> int:
        return len(self.boxes())


def build_btree_indexes(
    query: JoinQuery, db: Database, gao: Sequence[str]
) -> List[BTreeIndex]:
    """One GAO-consistent B-tree per atom (the Minesweeper setting)."""
    indexes = []
    for atom in query.atoms:
        order = tuple(a for a in gao if a in atom.attrs)
        indexes.append(BTreeIndex(db[atom.name], order))
    return indexes


def build_dyadic_indexes(
    query: JoinQuery, db: Database
) -> List[DyadicTreeIndex]:
    """One quadtree-style dyadic index per atom."""
    return [DyadicTreeIndex(db[atom.name]) for atom in query.atoms]


def build_kdtree_indexes(
    query: JoinQuery, db: Database
) -> List[KDTreeIndex]:
    """One KD-tree index per atom."""
    return [KDTreeIndex(db[atom.name]) for atom in query.atoms]


def build_all_order_btrees(
    query: JoinQuery, db: Database
) -> List[BTreeIndex]:
    """Every possible B-tree order for every atom (Example B.7's setting).

    Exponential in arity — meant for the small-arity relations of the
    paper's examples, where multiple indexes per relation shrink the box
    certificate.
    """
    import itertools

    indexes = []
    for atom in query.atoms:
        for order in itertools.permutations(atom.attrs):
            indexes.append(BTreeIndex(db[atom.name], order))
    return indexes


def default_gao(query: JoinQuery) -> Tuple[str, ...]:
    """A good global attribute order: reverse-GYO for α-acyclic queries,
    otherwise a minimum-induced-width elimination order."""
    h = Hypergraph.of_query(query)
    if h.is_alpha_acyclic():
        return gao_for_acyclic(h)
    _, order = h.treewidth()
    return tuple(order)
