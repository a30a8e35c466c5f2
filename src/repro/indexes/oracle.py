"""Gap-box oracles: the bridge from indexed relations to BCP instances.

``QueryGapOracle`` aggregates the gap boxes of every index of every input
relation (multiple indexes per relation are explicitly supported — that is
the Appendix B.2 generalization the paper advertises) and lifts them into
the query's output space with λ wildcards on the missing attributes
(Section 3.3).  It implements the interface the Tetris engine expects:

* ``container(box)`` — a gap box containing all of a dyadic probe box
  (or ``None``), answered *lazily* by the first index whose walk finds
  one, in Õ(1) per index — the one question Tetris-Reloaded asks;
* ``boxes()`` — the full materialized set B(Q), used by Tetris-Preloaded;
* ``ordered_boxes(axes)`` — the bulk side: the same boxes as one lazy
  stream laid out in the caller's axis order, which is how
  ``TetrisEngine.run(preload=True)`` loads them (``boxes()`` is that
  stream in space order, de-duplicated and kept as a list).

Beside them ``containing(unit_box)`` answers Algorithm 2's point
question — all gap boxes containing a probe point, one per index that
has one.  No Tetris run asks it; it is kept only because the benchmark
times it as its index-probe metric (``indexes.probe_ns``).

``container`` and ``containing`` are **generated**
(:func:`repro.engine.codegen.probe_kernel`), once per oracle shape —
each index's kind and output axes, ``ndim``, ``depth`` — and kept in
the ``probe`` kernel family.  The probe unpacks the box into locals,
walks every B-tree index inline (one ``bisect_left`` per level, the
answer written straight in the oracle's axes), and calls a dyadic or
kd index's own ``gap_box_around`` on the restricted box, lifting its
answer inline: a descent of one ``bisect`` per bit of the index's sorted
Morton key column (:mod:`repro.indexes.dyadic_index`), so Reloaded runs
the Figure 5 triangle over dyadic boxes in under 1 ms warm for d = 6 … 10.
Indexes are asked in list order, so "the first index that answers" is
fixed by the order the ``build_*`` function returns.

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
index column lands on, with λ everywhere else — and, for a probe, binding
the shape's compiled probe to the indexes.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, permutations, repeat
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.boxes import PackedBox
from repro.core.intervals import PLAMBDA
from repro.indexes.btree import BTreeIndex
from repro.indexes.dyadic_index import DyadicTreeIndex, KDTreeIndex
from repro.relational.hypergraph import Hypergraph
from repro.relational.query import Database, JoinQuery
from repro.relational.relation import Relation


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
        # Per index, computed once: how the generated probe treats it
        # (walked inline or called) and the output axis of each of its
        # attributes — every other axis of an answer is λ.
        axis_of = {a: i for i, a in enumerate(self.attrs)}
        self._specs = tuple(
            (
                "btree" if type(idx) is BTreeIndex else "call",
                tuple(axis_of[a] for a in self._index_attr_order(idx)),
                idx.depth,
            )
            for idx in self.indexes
        )

    @staticmethod
    def _index_attr_order(index: object) -> Tuple[str, ...]:
        return tuple(index.attr_order)

    @property
    def ndim(self) -> int:
        return len(self.attrs)

    def _probe(self, collect: bool):
        """The generated probe over this oracle's indexes."""
        # Imported here: ``repro.engine``'s package imports the joins,
        # which import the indexes.
        from repro.engine.codegen import probe_kernel

        make = probe_kernel(self._specs, self.ndim, collect)
        return make(*[
            idx._root if kind == "btree" else idx.gap_box_around
            for (kind, _axes, _depth), idx in zip(self._specs, self.indexes)
        ])

    @cached_property
    def containing(self) -> Callable[[PackedBox], List[PackedBox]]:
        """All gap boxes containing a probe point, straight off the
        indexes: each index's one gap box around it, in index order
        (Algorithm 2, line 4).  Kept for the benchmark's probe metric;
        no Tetris run asks it."""
        return self._probe(True)

    @cached_property
    def container(self) -> Callable[[PackedBox], Optional[PackedBox]]:
        """A gap box of B(Q) containing all of a box, else ``None``.

        The first index, in index order, whose walk answers gives the
        box, lifted; every box returned is one ``containing`` would
        return for a point of the probe box.  Generated on first use
        (:func:`repro.engine.codegen.probe_kernel`) for the oracle's
        shape — each index's kind and output axes, ``ndim``, ``depth``
        — with every B-tree walk inlined.
        """
        return self._probe(False)

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
    gao = h.acyclic_gao()
    if gao is not None:
        return gao
    _, order = h.treewidth()
    return tuple(order)
