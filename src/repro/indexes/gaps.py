"""Gap extraction helpers: from stored values to dyadic gap intervals.

An index over an ordered domain exposes, for free, the *gaps* between the
values it stores (Section 3.2).  These helpers turn sorted value lists into
the dyadic intervals covering their complement — the raw material every
index in :mod:`repro.indexes` feeds into gap boxes.  Every interval is a
packed marker-bit int (see :mod:`repro.core.intervals`), so gap boxes
reach the Tetris engine as they are emitted;
:func:`dyadic_boxes_from_ranges` is how a user hands arbitrary integer
ranges to the BCP machinery.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core import intervals as dy
from repro.core.boxes import PackedBox
from repro.core.intervals import Packed

#: The array typecode of a gap-box column.  A packed component is
#: ``>= 1`` and ``< 2^(depth+1)``, so unsigned 64-bit holds every depth a
#: relation's own signed ``'q'`` value columns can (depth <= 63).
GAP_TYPECODE = "Q"


def gap_columns_of(
    boxes: Iterable[PackedBox], arity: int
) -> Tuple[array, ...]:
    """Flat per-attribute columns for a stream of arity-``arity`` boxes."""
    cols = tuple(zip(*boxes)) or ((),) * arity
    return tuple(array(GAP_TYPECODE, col) for col in cols)


class GapColumns:
    """An index's gap boxes, extracted once and kept as flat columns.

    B(R) is a property of the stored relation and the index's order,
    not of any query (Section 3.3), so each index extracts it on first
    use and keeps it: one ``array('Q')`` per index attribute, aligned,
    in the index's own emission order — the representation
    :class:`~repro.relational.relation.Relation` uses for its values.
    Subclasses provide ``attr_order``, ``depth``,
    ``_extract_gap_columns`` and the lazy probe
    ``gap_box_around(comps)``: a gap box (packed, in ``attr_order``)
    containing the whole dyadic box ``comps``, or ``None`` — the index
    walk of Section 3.4 / Appendix B.3 asked about a box, answered in
    the time the same walk takes for a point.
    """

    _gap_cols: Optional[Tuple[array, ...]] = None

    def gap_columns(self) -> Tuple[array, ...]:
        """The gap boxes as aligned columns in ``attr_order`` (memoized)."""
        if self._gap_cols is None:
            self._gap_cols = self._extract_gap_columns()
        return self._gap_cols

    def gap_boxes(self) -> Iterator[Tuple[PackedBox, Tuple[str, ...]]]:
        """All dyadic gap boxes, as (packed box in attr_order, attrs).

        Boxes range over the *relation's* attributes; callers lift them
        into the query space.  Their union is exactly the complement of
        the relation in its own space — the B(R) property of Section 3.3.
        """
        attrs = self.attr_order
        for box in zip(*self.gap_columns()):
            yield box, attrs

    def count_gap_boxes(self) -> int:
        """Total number of dyadic gap boxes this index generates."""
        return len(self.gap_columns()[0])


def complement_ranges(
    values: Sequence[int], depth: int
) -> List[Tuple[int, int]]:
    """Inclusive integer ranges of ``[0, 2^d)`` minus a sorted value list."""
    top = (1 << depth) - 1
    out: List[Tuple[int, int]] = []
    prev = -1
    for v in values:
        if v > prev + 1:
            out.append((prev + 1, v - 1))
        prev = v
    if prev < top:
        out.append((prev + 1, top))
    return out


def dyadic_boxes_from_ranges(
    ranges: Sequence[Tuple[int, int]], depth: int
) -> List[PackedBox]:
    """Decompose an axis-aligned integer box into disjoint dyadic boxes.

    ``ranges`` gives one inclusive ``(lo, hi)`` range per dimension.  The
    cross product of the per-dimension decompositions realizes
    Proposition B.14's bound of at most ``(2d)^n`` dyadic boxes; an empty
    range yields no boxes.  This is how a user hands arbitrary
    (non-dyadic) gap boxes to the BCP machinery.
    """
    import itertools

    per_dim = [dy.pdecompose_range(lo, hi, depth) for lo, hi in ranges]
    if any(not pieces for pieces in per_dim):
        return []
    return [tuple(combo) for combo in itertools.product(*per_dim)]


def pdyadic_gaps(values: Iterable[int], depth: int) -> List[Packed]:
    """Dyadic intervals covering everything *not* in ``values``.

    The input need not be sorted; duplicates are fine.  Output intervals
    are disjoint and each maximal within its gap (Proposition B.14 keeps
    the count at most ``2d`` per gap).
    """
    return pdyadic_gaps_sorted(sorted(set(values)), depth)


def pdyadic_gaps_sorted(values: Sequence[int], depth: int) -> List[Packed]:
    """:func:`pdyadic_gaps` for ``values`` already sorted and distinct.

    What an index calls on its own keys: a trie node's children are
    sorted and distinct by construction, so the sort and the set are
    skipped.
    """
    pieces: List[Packed] = []
    for lo, hi in complement_ranges(values, depth):
        pieces.extend(dy.pdecompose_range(lo, hi, depth))
    return pieces
