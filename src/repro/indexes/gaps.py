"""Gap extraction helpers: from stored values to dyadic gap intervals.

An index over an ordered domain exposes, for free, the *gaps* between the
values it stores (Section 3.2).  These helpers turn sorted value lists into
the dyadic intervals covering their complement — the raw material every
index in :mod:`repro.indexes` feeds into gap boxes.

The ``p``-prefixed variants emit **packed** marker-bit intervals (see
:mod:`repro.core.intervals`) and are what the indexes use on the hot
path, so gap boxes reach the Tetris engine without a pair-tuple
round-trip.  The pair-based helpers remain as the documented public form
(:func:`dyadic_boxes_from_ranges` is how a user hands arbitrary integer
ranges to the BCP machinery).
"""

from __future__ import annotations

import bisect
from array import array
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core import intervals as dy
from repro.core.boxes import PackedBox
from repro.core.intervals import Interval, Packed

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
    Subclasses provide ``attr_order`` and ``_extract_gap_columns``.
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


def dyadic_gaps(values: Iterable[int], depth: int) -> List[Interval]:
    """Dyadic intervals covering everything *not* in ``values``.

    The input need not be sorted; duplicates are fine.  Output intervals
    are disjoint and each maximal within its gap (Proposition B.14 keeps
    the count at most ``2d`` per gap).
    """
    ordered = sorted(set(values))
    pieces: List[Interval] = []
    for lo, hi in complement_ranges(ordered, depth):
        pieces.extend(dy.decompose_range(lo, hi, depth))
    return pieces


def dyadic_boxes_from_ranges(
    ranges: Sequence[Tuple[int, int]], depth: int
) -> List[Tuple[Interval, ...]]:
    """Decompose an axis-aligned integer box into disjoint dyadic boxes.

    ``ranges`` gives one inclusive ``(lo, hi)`` range per dimension.  The
    cross product of the per-dimension decompositions realizes
    Proposition B.14's bound of at most ``(2d)^n`` dyadic boxes; an empty
    range yields no boxes.  This is how a user hands arbitrary
    (non-dyadic) gap boxes to the BCP machinery.
    """
    import itertools

    per_dim = [dy.decompose_range(lo, hi, depth) for lo, hi in ranges]
    if any(not pieces for pieces in per_dim):
        return []
    return [tuple(combo) for combo in itertools.product(*per_dim)]


def gap_piece_containing(
    values: Sequence[int], point: int, depth: int
) -> Optional[Interval]:
    """The dyadic gap interval containing ``point``, or ``None`` if stored.

    ``values`` must be sorted.  This is the O(log N + d) probe that lazy
    index oracles use: binary-search the neighbours of ``point``, decompose
    the single surrounding gap, and pick the piece containing the point.
    """
    p = pgap_piece_containing(values, point, depth)
    return None if p is None else dy.unpack(p)


# -- packed emission (hot path) ----------------------------------------------


def pdyadic_gaps(values: Iterable[int], depth: int) -> List[Packed]:
    """Packed dyadic intervals covering everything *not* in ``values``."""
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


def pgap_piece_containing(
    values: Sequence[int], point: int, depth: int
) -> Optional[Packed]:
    """Packed variant of :func:`gap_piece_containing` (sorted ``values``).

    The canonical decomposition's pieces are exactly the maximal dyadic
    intervals inside the gap, so the piece containing the probe is found
    directly: grow the probe's unit interval parent by parent while it
    still fits between the neighbouring stored values — O(piece length)
    int steps, no materialized decomposition.
    """
    i = bisect.bisect_left(values, point)
    if i < len(values) and values[i] == point:
        return None
    lo = values[i - 1] + 1 if i > 0 else 0
    hi = values[i] - 1 if i < len(values) else (1 << depth) - 1
    p = (1 << depth) | point
    plo = phi = point
    size = 1
    while p > 1:
        if p & 1:
            nlo = plo - size
            nhi = phi
        else:
            nlo = plo
            nhi = phi + size
        if nlo < lo or nhi > hi:
            break
        p >>= 1
        plo = nlo
        phi = nhi
        size <<= 1
    return p
