"""Quadtree-style dyadic index (Figure 3b) — gap boxes as empty cells.

A *dyadic index* recursively subdivides the relation's box space into
2^k equal sub-cells (a quadtree for binary relations, an octree for
ternary, ...).  A cell containing no tuples is emitted as a single gap box
— this is how Figure 3b covers the running-example relation with far fewer
boxes than either B-tree order, and how Example B.8's "non-B-tree gap
boxes" arise.

The index also answers lazy probes: the gap box around a dyadic box (a
non-tuple point included) is the *largest* empty cell on the
root-to-leaf path that contains it.

Cells and gap boxes are **packed** marker-bit tuples (see
:mod:`repro.core.intervals`): descending into a child cell is one shift
per component, and membership of a tuple in a cell is a shift + compare
against the point's packed form.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.boxes import PackedBox
from repro.core.intervals import PLAMBDA
from repro.indexes.gaps import GapColumns, gap_columns_of
from repro.relational.relation import Relation


class _CellIndex(GapColumns):
    """What the cell-subdivision indexes share: an order-free index over
    the relation's canonical rows whose gap boxes are its empty cells."""

    def __init__(self, relation: Relation):
        self.relation = relation
        self.attr_order = relation.attrs
        self.depth = relation.domain.depth
        self.arity = relation.arity
        # The canonical sorted rows, shared zero-copy with the relation
        # (and every other schema-order consumer) — no per-build sort.
        self._tuples = relation.rows()

    def _extract_gap_columns(self) -> Tuple[array, ...]:
        return gap_columns_of(self._empty_cells(), self.arity)


class DyadicTreeIndex(_CellIndex):
    """Quadtree-like index: all components subdivide in lock-step."""

    def _cell_tuples(
        self, cell: PackedBox, level: int, tuples: Sequence[Tuple[int, ...]]
    ) -> List[Tuple[int, ...]]:
        # Every component of a lock-step cell has length == level.
        unit = 1 << self.depth
        shift = self.depth - level
        out = []
        for t in tuples:
            for p, coord in zip(cell, t):
                if (unit | coord) >> shift != p:
                    break
            else:
                out.append(t)
        return out

    def _empty_cells(self) -> Iterator[PackedBox]:
        """Empty cells of the recursive 2^k-ary subdivision, maximal first."""
        depth = self.depth
        arity = self.arity

        def walk(cell: PackedBox, level: int, tuples):
            if not tuples:
                yield cell
                return
            if level == depth:
                return  # a unit cell holding a tuple
            children_count = 1 << arity
            for mask in range(children_count):
                child = tuple(
                    (p << 1) | ((mask >> i) & 1)
                    for i, p in enumerate(cell)
                )
                sub = self._cell_tuples(child, level + 1, tuples)
                yield from walk(child, level + 1, sub)

        yield from walk((PLAMBDA,) * arity, 0, self._tuples)

    def gap_box_around(self, comps: PackedBox) -> Optional[PackedBox]:
        """The maximal empty cell containing the box ``comps``, or ``None``.

        The descent follows ``comps`` cell by cell and stops where the
        lock-step cell stops containing it — past its shortest
        component.
        """
        tuples = self._tuples
        for level in range(min(p.bit_length() for p in comps)):
            cell = tuple([p >> (p.bit_length() - 1 - level) for p in comps])
            tuples = self._cell_tuples(cell, level, tuples)
            if not tuples:
                return cell
        return None


class KDTreeIndex(_CellIndex):
    """KD-tree index: subdivide one dimension at a time, round-robin.

    Cells are dyadic boxes whose component lengths differ by at most one;
    empty cells are gap boxes.  Sits between the B-tree (one long
    dimension) and the quadtree (all dimensions at once) in the index
    taxonomy of Section 1.
    """

    def _in_cell(self, cell: PackedBox, t) -> bool:
        depth = self.depth
        unit = 1 << depth
        for p, coord in zip(cell, t):
            if (unit | coord) >> (depth + 1 - p.bit_length()) != p:
                return False
        return True

    def _empty_cells(self) -> Iterator[PackedBox]:
        """Empty cells of the round-robin halving, maximal first."""
        depth = self.depth
        arity = self.arity
        total = depth * arity

        def walk(cell, level, tuples):
            if not tuples:
                yield cell
                return
            if level == total:
                return
            axis = level % arity
            half = cell[axis] << 1
            for bit in (0, 1):
                child = (
                    cell[:axis] + (half | bit,) + cell[axis + 1:]
                )
                sub = [t for t in tuples if self._in_cell(child, t)]
                yield from walk(child, level + 1, sub)

        yield from walk((PLAMBDA,) * arity, 0, self._tuples)

    def gap_box_around(self, comps: PackedBox) -> Optional[PackedBox]:
        """The maximal empty cell containing the box ``comps``, or ``None``.

        The round-robin descent stops where halving the next axis would
        cut ``comps`` (or, at a unit cell, where nothing is left to
        halve: the cell is a stored tuple).
        """
        arity = self.arity
        cell: PackedBox = (PLAMBDA,) * arity
        tuples = self._tuples
        level = 0
        while True:
            tuples = [t for t in tuples if self._in_cell(cell, t)]
            if not tuples:
                return cell
            axis = level % arity
            spare = comps[axis].bit_length() - cell[axis].bit_length()
            if spare == 0:
                return None
            cell = (
                cell[:axis] + (comps[axis] >> (spare - 1),) + cell[axis + 1:]
            )
            level += 1
