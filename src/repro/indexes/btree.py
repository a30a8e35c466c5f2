"""B-tree / trie index with GAO-consistent gap boxes (Sections 3.2, B.1).

The paper's "B-tree with sort order σ" is, for gap-extraction purposes, a
trie that branches on the attributes of the relation in σ-order (Figure 11:
an unbounded-fanout B-tree).  Between any two consecutive children of a
trie node lies a *gap*: no tuple of the relation extends the node's path
with a value in that gap.  Each gap becomes a family of dyadic gap boxes

    ⟨v_1, ..., v_{k-1}, g, λ, ..., λ⟩

with unit components pinning the path, one (possibly non-trivial) dyadic
gap interval ``g``, and wildcards after — exactly the σ-consistent shape of
Definition 3.11 (Figures 1b and 3a show the two sort orders of the running
example).

Gap boxes are emitted directly in **packed** marker-bit form (see
:mod:`repro.core.intervals`), which the Tetris oracle consumes as is.

All of this is **per-relation geometry**: the trie and its gap boxes
depend on the stored relation and σ alone.  The index extracts the boxes
once, in one walk of the trie, into flat columns — one ``array('Q')``
per attribute of ``attr_order`` (:class:`~repro.indexes.gaps.GapColumns`)
— and serves ``gap_columns()`` / ``gap_boxes()`` / ``count_gap_boxes()``
from them; :mod:`repro.indexes.oracle` keeps the index itself on the
relation's sorted view for σ.  Lifting a box into a query's output space
is the per-query part and happens in the oracle, not here.

The lazy probe, :attr:`BTreeIndex.gap_box_around`, is not written here:
it is the B-tree walk :func:`repro.engine.codegen.probe_kernel` emits
(one ``bisect_left`` per level, unrolled for the index's arity and
depth) bound to this trie.  The oracle inlines the same emitted walk
for every B-tree it holds.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.boxes import PackedBox
from repro.core.intervals import PLAMBDA
from repro.indexes.gaps import (
    GAP_TYPECODE,
    GapColumns,
    pdyadic_gaps_sorted,
)
from repro.relational.relation import Relation


class _TrieNode:
    """One trie level: sorted child values and their subtrees."""

    __slots__ = ("keys", "children")

    def __init__(self):
        self.keys: List[int] = []
        self.children: List[Optional["_TrieNode"]] = []

    def child(self, value: int) -> Optional["_TrieNode"]:
        i = bisect_left(self.keys, value)
        if i < len(self.keys) and self.keys[i] == value:
            return self.children[i]
        return None


#: Shared terminal for the deepest trie level: its subtree is never
#: descended into, so every leaf can point at one sentinel node.
_LEAF = _TrieNode()


class BTreeIndex(GapColumns):
    """A trie index on a relation with a fixed attribute search order.

    ``attr_order`` must be a permutation of the relation's attributes; the
    index is *consistent with a GAO* σ when ``attr_order`` lists the
    relation's attributes in σ's relative order.
    """

    def __init__(self, relation: Relation, attr_order: Sequence[str]):
        self.relation = relation
        self.attr_order: Tuple[str, ...] = tuple(attr_order)
        self.depth = relation.domain.depth
        self._perm = list(relation.schema.permutation(self.attr_order))
        # Build from the relation's cached sorted view for this order:
        # the rows arrive already permuted and sorted (computed once per
        # (relation, order) and shared zero-copy), so each trie node's
        # keys arrive in increasing order and construction is append-only
        # — O(N · arity) with no per-build sort and no per-tuple
        # bisect/insert churn.  attr_order is a full permutation, so the
        # projection is injective and needs no dedup.
        arity = len(self._perm)
        rows = relation.sorted_by(self.attr_order)
        self._root = _TrieNode()
        path: List[_TrieNode] = [self._root] + [None] * arity
        last = arity - 1
        prev: Optional[Tuple[int, ...]] = None
        for row in rows:
            level = 0
            if prev is not None:
                while row[level] == prev[level]:
                    level += 1
            for lv in range(level, last):
                node = path[lv]
                child = _TrieNode()
                node.keys.append(row[lv])
                node.children.append(child)
                path[lv + 1] = child
            node = path[last]
            node.keys.append(row[last])
            node.children.append(_LEAF)
            prev = row

    @property
    def arity(self) -> int:
        return len(self.attr_order)

    def contains(self, tuple_in_schema_order: Sequence[int]) -> bool:
        """Membership probe following the trie."""
        node = self._root
        for pos in self._perm:
            node = node.child(tuple_in_schema_order[pos])
            if node is None:
                return False
        return True

    def is_consistent_with(self, gao: Sequence[str]) -> bool:
        """True when the search order follows the global attribute order."""
        positions = [gao.index(a) for a in self.attr_order]
        return positions == sorted(positions)

    # -- gap boxes -------------------------------------------------------------

    def _extract_gap_columns(self) -> Tuple[array, ...]:
        """One pre-order walk of the trie, appending to the columns.

        A node at level ``k`` with ``m`` gap pieces between its keys
        contributes ``m`` boxes ``⟨path, piece, λ, ..., λ⟩``: the path's
        unit components repeated down columns ``< k``, the pieces
        themselves into column ``k`` and λ into the rest.  A node's own
        gaps precede its children's.
        """
        depth = self.depth
        arity = self.arity
        unit = 1 << depth
        cols = tuple(array(GAP_TYPECODE) for _ in range(arity))
        wild = array(GAP_TYPECODE, (PLAMBDA,))
        stack: List[Tuple[_TrieNode, PackedBox]] = [(self._root, ())]
        while stack:
            node, path = stack.pop()
            level = len(path)
            pieces = pdyadic_gaps_sorted(node.keys, depth)
            count = len(pieces)
            for col, comp in zip(cols, path):
                col.extend(array(GAP_TYPECODE, (comp,)) * count)
            cols[level].extend(pieces)
            for col in cols[level + 1:]:
                col.extend(wild * count)
            if level + 1 < arity:
                stack.extend(
                    (child, path + (unit | key,))
                    for key, child in zip(
                        reversed(node.keys), reversed(node.children)
                    )
                )
        return cols

    @cached_property
    def gap_box_around(self) -> Callable[[PackedBox], Optional[PackedBox]]:
        """The maximal dyadic gap box around a box ``comps``, lazily.

        ``comps`` gives packed components in ``attr_order``.  The probe
        returns ``None`` when no gap box of this index contains all of
        it: a unit box that is a tuple of the relation, or a box with a
        thick component that straddles a stored key — every gap box is
        unit before its gap interval, so nothing deeper can contain it.
        For a σ-consistent index there is exactly one maximal gap box
        around a non-tuple point (Appendix B.3); the walk returns the
        dyadic piece of it around ``comps`` in O(arity · (log N + d)) —
        one ``bisect`` per level — without materializing anything.

        The walk is generated (:func:`repro.engine.codegen.probe_kernel`,
        unrolled for ``(arity, depth)``) and bound to this trie on first
        use; :class:`~repro.indexes.oracle.QueryGapOracle` inlines the
        same walk in its own probe instead of calling it.
        """
        # Imported here: ``repro.engine``'s package imports the joins,
        # which import the indexes.
        from repro.engine.codegen import probe_kernel

        spec = ("btree", tuple(range(self.arity)), self.depth)
        return probe_kernel((spec,), self.arity, False)(self._root)
