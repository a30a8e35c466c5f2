"""Cell indexes (Figure 3b): gap boxes as the empty cells of a subdivision.

A *dyadic index* recursively subdivides the relation's box space into
2^k equal sub-cells (a quadtree for binary relations, an octree for
ternary, ...); a *KD-tree index* halves one dimension at a time,
round-robin.  A cell containing no tuples is emitted as a single gap box
— this is how Figure 3b covers the running-example relation with far
fewer boxes than either B-tree order, and how Example B.8's "non-B-tree
gap boxes" arise.

Both read one Z-order layout (Orenstein & Merrett, PODS 1984): each row
is kept once as its **Morton key** — the value bits interleaved most
significant first, axis 0 leading each group of ``arity`` — and the keys
are sorted once per build.  A KD cell at level k is a k-bit key prefix, a
lock-step quadtree cell at level ℓ an ℓ·arity-bit prefix, so a cell's rows
are one ``[lo, hi)`` slice of the key column and "is this cell empty?" is
one ``bisect``.  The kinds differ only in the key bits a step adds
(``stride``).  The lazy probe — the *largest* empty cell containing a
dyadic box, on its root-to-leaf path — is one ``bisect`` per key bit.
Cells and gap boxes are **packed** marker-bit tuples
(:mod:`repro.core.intervals`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from operator import or_
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.boxes import PackedBox
from repro.core.intervals import PLAMBDA
from repro.indexes.gaps import GapColumns, gap_columns_of
from repro.relational.relation import Relation


def _morton_keys(columns: Sequence[array], depth: int) -> List[int]:
    """The rows' Morton keys, unsorted: bit j of axis a's value lands at
    key bit j·arity + arity-1-a, by one table lookup per value byte."""
    arity = len(columns)
    spread = [0]  # spread[b]: bit j of the byte b moved to bit j·arity
    for b in range(1, 256):
        spread.append(spread[b >> 1] << arity | b & 1)
    keys = [0] * (len(columns[0]) if columns else 0)
    for axis, col in enumerate(columns):
        for shift in range(0, depth, 8):
            table = [s << (shift * arity + arity - 1 - axis) for s in spread]
            byte = map(shift.__rrshift__, col) if shift else col
            if shift + 8 < depth:
                byte = map((255).__and__, byte)
            keys = list(map(or_, keys, map(table.__getitem__, byte)))
    return keys


class _CellIndex(GapColumns):
    """An order-free index over the relation's sorted Morton keys whose
    gap boxes are its empty cells; one step adds ``stride`` key bits."""

    stride: int

    def __init__(self, relation: Relation):
        self.relation = relation
        self.attr_order = relation.attrs
        self.depth = relation.domain.depth
        self.arity = relation.arity
        self._keys = _morton_keys(relation.columns(), self.depth)
        self._keys.sort()

    def _extract_gap_columns(self) -> Tuple[array, ...]:
        return gap_columns_of(self._empty_cells(), self.arity)

    def _empty_cells(self) -> Iterator[PackedBox]:
        """The empty cells, maximal first: depth first, children in mask
        order (mask bit j is the step's j-th axis' new bit)."""
        keys, arity, stride = self._keys, self.arity, self.stride
        bits, fanout = self.depth * arity, 1 << stride
        # The step's first axis is its top key bit, so a child's key
        # chunk is its mask bit-reversed.
        chunks = [
            int(format(mask, f"0{stride}b")[::-1], 2) for mask in range(fanout)
        ]
        # (cell, key bits fixed, key prefix, [lo, hi) of its rows)
        stack = [((PLAMBDA,) * arity, 0, 0, 0, len(keys))]
        while stack:
            cell, used, prefix, lo, hi = stack.pop()
            if lo == hi:
                yield cell
                continue
            if hi - lo == 1 << (bits - used):
                continue  # a full cell, a unit cell holding a tuple included
            rest, prefix = bits - used - stride, prefix << stride
            bounds = [lo] + [
                bisect_left(keys, (prefix | chunk) << rest, lo, hi)
                for chunk in range(1, fanout)
            ] + [hi]
            axes = [(used + j) % arity for j in range(stride)]
            for mask in range(fanout - 1, -1, -1):
                child = list(cell)
                for j, axis in enumerate(axes):
                    child[axis] = child[axis] << 1 | (mask >> j & 1)
                chunk = chunks[mask]
                stack.append((tuple(child), used + stride, prefix | chunk,
                              bounds[chunk], bounds[chunk + 1]))

    def gap_box_around(self, comps: PackedBox) -> Optional[PackedBox]:
        """The maximal empty cell containing the box ``comps``, or ``None``.

        The descent fixes ``comps``' bits in key order, narrowing the row
        slice by one ``bisect`` per bit, and tests emptiness after each
        step.  It stops with ``None`` where the next bit would cut
        ``comps`` (or past a unit cell: the cell is a stored tuple).
        """
        keys, arity, stride = self._keys, self.arity, self.stride
        lo, hi = 0, len(keys)
        if lo == hi:
            return (PLAMBDA,) * arity
        lengths = [p.bit_length() - 1 for p in comps]
        bits = self.depth * arity
        prefix = 0
        for fixed in range(1, bits + 1):
            # Key bit ``fixed`` (from the top) is bit ``taken`` of ``axis``.
            taken, axis = divmod(fixed - 1, arity)
            if taken == lengths[axis]:
                return None
            prefix <<= 1
            mid = bisect_left(keys, (prefix | 1) << (bits - fixed), lo, hi)
            if comps[axis] >> (lengths[axis] - 1 - taken) & 1:
                prefix |= 1
                lo = mid
            else:
                hi = mid
            if lo == hi and fixed % stride == 0:
                return tuple([
                    p >> (n - fixed // arity - (a < fixed % arity))
                    for a, (p, n) in enumerate(zip(comps, lengths))
                ])
        return None


class DyadicTreeIndex(_CellIndex):
    """Quadtree-like index: all components subdivide in lock-step."""

    @property
    def stride(self) -> int:
        return self.arity


class KDTreeIndex(_CellIndex):
    """KD-tree index: subdivide one dimension at a time, round-robin.

    Cells are dyadic boxes whose component lengths differ by at most one;
    empty cells are gap boxes.  Sits between the B-tree (one long
    dimension) and the quadtree (all dimensions at once) in the index
    taxonomy of Section 1.
    """

    stride = 1
