"""Gap-box oracles: the bridge from indexed relations to BCP instances.

``QueryGapOracle`` aggregates the gap boxes of every index of every input
relation (multiple indexes per relation are explicitly supported — that is
the Appendix B.2 generalization the paper advertises) and lifts them into
the query's output space with λ wildcards on the missing attributes
(Section 3.3).  It implements the interface the Tetris engine expects:

* ``container(box)`` — a gap box containing all of a dyadic probe box
  (or ``None``), answered *lazily* by the first index whose walk finds
  one, in Õ(1) per index — the one question resume-mode
  Tetris-Reloaded asks;
* ``containing(unit_box)`` — all gap boxes containing a probe point,
  one per index that has one (Algorithm 2 as printed: ``mode="faithful"``
  and Tetris-LB);
* ``boxes()`` — the full materialized set B(Q), used by Tetris-Preloaded.

* ``ordered_boxes(axes)`` — the bulk side: the same boxes as one lazy
  stream laid out in the caller's axis order, which is how
  ``TetrisEngine.run(preload=True)`` loads them (``boxes()`` is that
  stream in space order, de-duplicated and kept as a list).

Everything is **packed** end to end: the indexes emit packed gap boxes,
lifting pads with the packed λ (``1``), and the indexes walk the packed
probe components as they come.

**Per relation, not per query.**  An index and the gap boxes it exposes
depend only on the stored relation and the index's attribute order, so
the ``build_*`` functions fetch each index through the relation's
memoized :class:`~repro.relational.relation.SortedView` for that order
(the pinned canonical view for the order-free dyadic/kd indexes), and
each index keeps its gap boxes as flat columns once extracted
(:class:`~repro.indexes.gaps.GapColumns`).  A repeated execution over
the same :class:`Database` builds no index and decomposes no gap.  The
only per-query work left here is the **lift**: which output axis each
index column lands on, with λ everywhere else.
"""

from __future__ import annotations

from itertools import chain, permutations, repeat
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.boxes import PackedBox
from repro.core.intervals import PLAMBDA
from repro.indexes.btree import BTreeIndex
from repro.indexes.dyadic_index import DyadicTreeIndex, KDTreeIndex
from repro.relational.hypergraph import Hypergraph, gao_for_acyclic
from repro.relational.query import Database, JoinQuery
from repro.relational.relation import Relation

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
        # Per index, computed once: its ``gap_box_around`` probe,
        # ``restrict`` reading a probe box's components on the index's
        # attributes, and ``lift`` scattering an index box (with one λ
        # appended) into the output space — every axis the index does
        # not mention reads the appended λ.
        axis_of = {a: i for i, a in enumerate(self.attrs)}
        self._probes: List[tuple] = []
        for idx in self.indexes:
            axes = [axis_of[a] for a in self._index_attr_order(idx)]
            template = [len(axes)] * len(self.attrs)
            for pos, axis in enumerate(axes):
                template[axis] = pos
            self._probes.append(
                (
                    idx.gap_box_around,
                    _tuple_getter(axes),
                    _tuple_getter(template),
                )
            )

    @staticmethod
    def _index_attr_order(index: object) -> Tuple[str, ...]:
        return tuple(index.attr_order)

    @property
    def ndim(self) -> int:
        return len(self.attrs)

    def containing(self, unit_box: PackedBox) -> List[PackedBox]:
        """All gap boxes containing the probe point, straight off the
        indexes: each index's one gap box around it (Algorithm 2,
        line 4)."""
        out: List[PackedBox] = []
        for around, restrict, lift in self._probes:
            box = around(restrict(unit_box))
            if box is not None:
                out.append(lift(box + _LAMBDA))
        return out

    def container(self, box: PackedBox) -> Optional[PackedBox]:
        """A gap box of B(Q) containing all of ``box``, else ``None``.

        Restrict ``box`` to each index's attributes, take the first
        index whose walk answers, lift its gap box.  Every box returned
        is one ``containing`` would return for a point of ``box``.
        """
        for around, restrict, lift in self._probes:
            found = around(restrict(box))
            if found is not None:
                return lift(found + _LAMBDA)
        return None

    def ordered_boxes(self, axes: Sequence[int]) -> Iterable[PackedBox]:
        """Every index's gap boxes lifted into the output space, in one pass.

        The bulk side of the oracle protocol: component ``k`` of each
        streamed box lies on space axis ``axes[k]`` (the engine passes
        its SAO and loads the stream as is).  Per index this is one
        ``zip`` of its memoized gap columns with λ on the axes it does
        not mention; a box exposed by several indexes appears once per
        index — ``add_many`` skips what it already holds.
        """
        wild = repeat(PLAMBDA)
        attrs = [self.attrs[axis] for axis in axes]
        streams = []
        for idx in self.indexes:
            column_of = dict(
                zip(self._index_attr_order(idx), idx.gap_columns())
            )
            streams.append(zip(*[column_of.get(a, wild) for a in attrs]))
        return chain.from_iterable(streams)

    def boxes(self) -> List[PackedBox]:
        """The full lifted gap-box set in space order, de-duplicated (cached)."""
        if self._materialized is None:
            # dict.fromkeys dedups in first-seen order in one pass.
            self._materialized = list(
                dict.fromkeys(self.ordered_boxes(range(self.ndim)))
            )
        return self._materialized

    def __len__(self) -> int:
        return len(self.boxes())


def _index(cls, relation: Relation, order: Optional[Sequence[str]] = None):
    """The relation's one ``cls`` index (under ``order``, for B-trees).

    Built on first request and kept on the relation's sorted view for
    that order — the canonical view for the order-free dyadic and kd
    indexes — so it, and the gap boxes it memoizes, are shared by every
    later query and evicted with the view.
    """
    if order is None:
        view = relation.view(relation.attrs)
        return view.derived(cls, lambda: cls(relation))
    return relation.view(order).derived(cls, lambda: cls(relation, order))


def build_btree_indexes(
    query: JoinQuery, db: Database, gao: Sequence[str]
) -> List[BTreeIndex]:
    """One GAO-consistent B-tree per atom (the Minesweeper setting)."""
    return [
        _index(
            BTreeIndex, db[atom.name],
            tuple(a for a in gao if a in atom.attrs),
        )
        for atom in query.atoms
    ]


def build_dyadic_indexes(
    query: JoinQuery, db: Database
) -> List[DyadicTreeIndex]:
    """One quadtree-style dyadic index per atom."""
    return [_index(DyadicTreeIndex, db[atom.name]) for atom in query.atoms]


def build_kdtree_indexes(
    query: JoinQuery, db: Database
) -> List[KDTreeIndex]:
    """One KD-tree index per atom."""
    return [_index(KDTreeIndex, db[atom.name]) for atom in query.atoms]


def build_all_order_btrees(
    query: JoinQuery, db: Database
) -> List[BTreeIndex]:
    """Every possible B-tree order for every atom (Example B.7's setting).

    Exponential in arity — meant for the small-arity relations of the
    paper's examples, where multiple indexes per relation shrink the box
    certificate.
    """
    return [
        _index(BTreeIndex, db[atom.name], order)
        for atom in query.atoms
        for order in permutations(atom.attrs)
    ]


def default_gao(query: JoinQuery) -> Tuple[str, ...]:
    """A good global attribute order: reverse-GYO for α-acyclic queries,
    otherwise a minimum-induced-width elimination order."""
    h = Hypergraph.of_query(query)
    if h.is_alpha_acyclic():
        return gao_for_acyclic(h)
    _, order = h.treewidth()
    return tuple(order)
