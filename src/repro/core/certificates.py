"""Box certificates (Definitions 3.1 / 3.4) and certificate computation.

A box certificate of a BCP instance ``A`` is a subset ``C ⊆ A`` whose
union equals the union of ``A``; the *optimal* certificate is a smallest
one.  Certificate size — not input size — is the complexity measure of the
paper's beyond-worst-case results.

Finding a minimum certificate is a set-cover problem; we provide

* :func:`is_redundant` / :func:`minimal_certificate` — an irredundant
  subset via covered-by-the-rest checks, each check answered by a Boolean
  Tetris run on the box's complement (so no point enumeration happens);
* :func:`minimum_certificate` — exact minimum by branch-and-bound over
  subsets, for the small instances the experiments study;
* :func:`pcomplement_boxes` — the dyadic complement of a box, the gadget
  the redundancy check is built from.

Boxes are tuples of packed marker-bit intervals (see
:mod:`repro.core.intervals`), and certificates are lists of the input
boxes themselves.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Sequence

from repro.core.boxes import PackedBox, box_contains
from repro.core.intervals import PLAMBDA
from repro.core.tetris import boolean_box_cover


def pcomplement_boxes(box: PackedBox) -> List[PackedBox]:
    """Disjoint dyadic boxes whose union is the complement of ``box``.

    For each dimension i and each proper prefix of component i, the
    sibling of that prefix's next bit spans everything diverging from
    the component there; dimensions before i keep the original
    components and later ones are λ, so the pieces are disjoint.  In
    packed form the piece for cut ``k`` of component ``p`` is simply
    ``(p >> k) ^ 1``.  At most n·d boxes.
    """
    out: List[PackedBox] = []
    n = len(box)
    for i in range(n):
        p = box[i]
        tail = (PLAMBDA,) * (n - i - 1)
        head = box[:i]
        for k in range(p.bit_length() - 1):
            out.append(head + ((p >> k) ^ 1,) + tail)
    return out


def covers(
    candidate: Sequence[PackedBox],
    target: PackedBox,
    ndim: int,
    depth: int,
) -> bool:
    """Does the union of ``candidate`` cover every point of ``target``?

    Reduction: ``target ⊆ ∪ candidate`` iff ``candidate ∪ complement(target)``
    covers the whole space — a Boolean BCP solved by Tetris.
    """
    return boolean_box_cover(
        list(candidate) + pcomplement_boxes(target), ndim, depth
    )


def is_redundant(
    boxes: Sequence[PackedBox], index: int, ndim: int, depth: int
) -> bool:
    """Is ``boxes[index]`` covered by the union of the other boxes?"""
    target = boxes[index]
    rest = [b for i, b in enumerate(boxes) if i != index]
    # Cheap pre-check: another box contains it outright.
    if any(box_contains(other, target) for other in rest):
        return True
    return covers(rest, target, ndim, depth)


def _maximal(boxes: Iterable[PackedBox]) -> List[PackedBox]:
    """The distinct boxes, minus those strictly inside another one."""
    unique = list(dict.fromkeys(boxes))
    return [
        b
        for b in unique
        if not any(
            box_contains(other, b) and other != b for other in unique
        )
    ]


def minimal_certificate(
    boxes: Iterable[PackedBox], ndim: int, depth: int
) -> List[PackedBox]:
    """An irredundant certificate: greedily drop covered boxes.

    Scans smallest-first so big boxes survive; the result is *minimal*
    (no box can be removed) but not necessarily *minimum*.  Size is an
    upper bound on |C|.
    """
    kept = _maximal(boxes)

    # Smallest volume first: prefer to delete little boxes.
    def volume_key(box: PackedBox) -> int:
        return sum(depth - (p.bit_length() - 1) for p in box)

    result = list(kept)
    for box in sorted(kept, key=volume_key):
        trial = [b for b in result if b != box]
        if trial and covers(trial, box, ndim, depth):
            result = trial
    return result


def minimum_certificate(
    boxes: Sequence[PackedBox],
    ndim: int,
    depth: int,
    limit: int = 18,
) -> List[PackedBox]:
    """Exact minimum certificate by subset search (small instances only).

    Starts from the greedy minimal certificate as an upper bound and
    searches all smaller subsets of the (deduplicated, maximal) boxes.
    Raises when more than ``limit`` candidate boxes remain.
    """
    upper = minimal_certificate(boxes, ndim, depth)
    maximal = _maximal(boxes)
    if len(maximal) > limit:
        raise ValueError(
            f"{len(maximal)} candidate boxes exceed the exact-search limit "
            f"({limit}); use minimal_certificate instead"
        )

    def union_equal(subset: Sequence[PackedBox]) -> bool:
        return all(covers(subset, b, ndim, depth) for b in maximal)

    best = upper
    for size in range(1, len(best)):
        for subset in combinations(maximal, size):
            if union_equal(subset):
                return list(subset)
    return best


def certificate_size(
    boxes: Iterable[PackedBox],
    ndim: int,
    depth: int,
    exact: bool = False,
) -> int:
    """|C| (exact) or an irredundant upper bound on it."""
    boxes = list(boxes)
    if exact:
        return len(minimum_certificate(boxes, ndim, depth))
    return len(minimal_certificate(boxes, ndim, depth))


def is_gao_consistent(
    box: PackedBox, sao: Sequence[int], depth: int
) -> bool:
    """Definition 3.11: at most one non-trivial component, λ after it.

    ``sao`` orders the dimensions by the global attribute order.  A
    component is *non-trivial* when it is neither λ nor a unit interval.
    """
    seen_nontrivial = False
    for axis in sao:
        length = box[axis].bit_length() - 1
        if seen_nontrivial:
            if length != 0:
                return False
        elif 0 < length < depth:
            seen_nontrivial = True
    return True
