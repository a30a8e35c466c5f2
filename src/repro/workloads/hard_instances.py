"""Hard instances: the constructions behind the paper's lower bounds.

These box families realize the separations of Figure 2:

* :func:`example_f1` — Example F.1 verbatim: a 3-dimensional BCP with
  empty output where *every* SAO forces Ω(|C|²) ordered resolutions,
  while out-of-order (load-balanced) resolution finishes in Õ(|C|) —
  the phenomenon behind Theorem 5.4's Ω(|C|^{n-1}) bound;
* :func:`msb_triangle` — the Figure 5 / Figure 6 triangle instances
  (MSB-complement relations) with empty and non-empty outputs, as gap
  boxes; :func:`msb_join` is the same pair as a query and a database of
  :func:`msb_relation` rows, for the join backends and the indexes;
* :func:`shared_suffix_instance` — a treewidth-1 supporting hypergraph
  where resolvent caching collapses the proof from Ω(N^{3/2}) to Õ(N)
  (the Theorem 5.2 separation between Tree Ordered and Ordered
  resolution, realized for the natural A-first SAO);
* :func:`staircase_instance` — anti-diagonal slabs in n dimensions in the
  spirit of Theorem 5.5's volume argument: every resolvent has small
  volume, so many resolutions are unavoidable.

The Appendix G gadgets for Theorems 5.2–5.5 are only sketched in the
paper, so these families reproduce the *measured* separations rather
than the proofs' exact constructions.

Every box is a tuple of packed marker-bit intervals (see
:mod:`repro.core.intervals`); ``pmake(value, length)`` spells a
component, :data:`~repro.core.intervals.PLAMBDA` is λ.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.boxes import PackedBox
from repro.core.intervals import PLAMBDA, pmake
from repro.relational.query import Database, JoinQuery, triangle_query
from repro.workloads.generators import db_from_tuples


def example_f1(d: int) -> List[PackedBox]:
    """Example F.1: C = C1 ∪ C2 ∪ C3 over attributes (X, Y, W), depth d.

    * C1 = {⟨0x, λ, 0⟩ : x ∈ {0,1}^{d-2}} ∪ {⟨0, y, 1⟩ : y ∈ {0,1}^{d-2}}
    * C2 = {⟨10x, 0, λ⟩ : x}                ∪ {⟨10, 1, z⟩ : z}
    * C3 = {⟨110, y, λ⟩ : y}                ∪ {⟨111, λ, z⟩ : z}

    |C| = 6·2^{d-2}; the union covers the whole space (empty output), but
    ordered geometric resolution needs Ω(|C|²) steps for every SAO.
    """
    if d < 3:
        raise ValueError("Example F.1 needs depth at least 3")
    half = 1 << (d - 2)
    boxes: List[PackedBox] = []
    # C1: covers ⟨0, λ, λ⟩.
    for x in range(half):
        boxes.append((pmake(x, d - 1), PLAMBDA, pmake(0, 1)))  # 0x has MSB 0
    for y in range(half):
        boxes.append((pmake(0, 1), pmake(y, d - 2), pmake(1, 1)))
    # C2: covers ⟨10, λ, λ⟩.
    for x in range(half):
        boxes.append((pmake((0b10 << (d - 2)) | x, d), pmake(0, 1), PLAMBDA))
    for z in range(half):
        boxes.append((pmake(0b10, 2), pmake(1, 1), pmake(z, d - 2)))
    # C3: covers ⟨11, λ, λ⟩.
    for y in range(half):
        boxes.append((pmake(0b110, 3), pmake(y, d - 2), PLAMBDA))
    for z in range(half):
        boxes.append((pmake(0b111, 3), PLAMBDA, pmake(z, d - 2)))
    return boxes


def msb_triangle(d: int, nonempty: bool = False) -> List[PackedBox]:
    """The Figure 5 (empty) / Figure 6 (non-empty) triangle BCP instances.

    Gap boxes over (A, B, C): R forbids MSB(a) = MSB(b), S forbids
    MSB(b) = MSB(c); T forbids MSB(a) = MSB(c) (Figure 5, empty output)
    or T' forbids MSB(a) ≠ MSB(c) (Figure 6, output non-empty).
    """
    if d < 1:
        raise ValueError("depth must be at least 1")
    boxes = [
        (pmake(0, 1), pmake(0, 1), PLAMBDA),  # R gap: MSBs equal (0,0)
        (pmake(1, 1), pmake(1, 1), PLAMBDA),  # R gap: MSBs equal (1,1)
        (PLAMBDA, pmake(0, 1), pmake(0, 1)),  # S gap
        (PLAMBDA, pmake(1, 1), pmake(1, 1)),  # S gap
    ]
    if nonempty:
        boxes += [
            (pmake(0, 1), PLAMBDA, pmake(1, 1)),  # T' gap: MSBs differ
            (pmake(1, 1), PLAMBDA, pmake(0, 1)),
        ]
    else:
        boxes += [
            (pmake(0, 1), PLAMBDA, pmake(0, 1)),  # T gap: MSBs equal
            (pmake(1, 1), PLAMBDA, pmake(1, 1)),
        ]
    return boxes



def msb_relation(d: int, same: bool = False) -> List[Tuple[int, int]]:
    """Example B.7's MSB-complement relation over ``[2^d]``, sorted.

    The pairs ``(a, b)`` whose most significant bits differ (with
    ``same=True``, agree).  Its dyadic gap boxes are the two cells
    ⟨0, 0⟩ and ⟨1, 1⟩ at every d, while either B-tree order needs
    Ω(2^d) (Figure 3b, Example B.8).
    """
    if d < 1:
        raise ValueError("depth must be at least 1")
    side, top = 1 << d, d - 1
    return [
        (a, b)
        for a in range(side)
        for b in range(side)
        if ((a ^ b) >> top == 0) == same
    ]


def msb_join(d: int, nonempty: bool = False) -> Tuple[JoinQuery, Database]:
    """:func:`msb_triangle` as relations: ``(triangle_query(), db)``.

    R, S and T are :func:`msb_relation` over ``[2^d]``, so the output is
    empty (Figure 5: three values cannot pairwise differ in one bit);
    with ``nonempty`` T holds the same-MSB pairs instead (Figure 6), and
    the output is every (a, b, c) with MSB(a) = MSB(c) ≠ MSB(b).  Each
    relation has 2^(2d-1) rows, while the dyadic gap boxes stay at two
    per relation and the proof at O(1) resolutions.
    """
    query = triangle_query()
    differ = msb_relation(d)
    rows = {"R": differ, "S": differ, "T": msb_relation(d, same=nonempty)}
    return query, db_from_tuples(query, rows, d)


def shared_suffix_instance(d: int) -> List[PackedBox]:
    """Caching separation on a treewidth-1 hypergraph (Theorem 5.2 flavor).

    Over attributes (A, B, C) with depth ``d``:

    * per-A boxes ⟨a, 0, λ⟩ for every value a — support {A, B};
    * shared boxes ⟨λ, b, c⟩ for every b in the upper half and every c —
      support {B, C}.

    Supports form the path {A,B}, {B,C}: treewidth 1.  Each A-column is
    covered by its ⟨a, 0, λ⟩ box plus the *same* (B, C) sub-proof of
    ⟨λ, 1, λ⟩ from the 2^{2d-1} shared unit boxes:

    * with resolvent caching the sub-proof is derived once and every later
      column hits the cache — Õ(N) resolutions (N ≈ 2^{2d-1});
    * without caching (Tree Ordered resolution) it is rebuilt for every
      column — Ω(2^d · N) = Ω(N^{3/2}) = Ω(N^{n/2}) resolutions.
    """
    side = 1 << d
    half = side >> 1
    boxes: List[PackedBox] = [
        (pmake(a, d), pmake(0, 1), PLAMBDA) for a in range(side)
    ]
    boxes += [
        (PLAMBDA, pmake(b, d), pmake(c, d))
        for b in range(half, side)
        for c in range(side)
    ]
    return boxes


def staircase_instance(n: int, d: int) -> List[PackedBox]:
    """Anti-diagonal slabs: every pairwise resolvent has small volume.

    For each level ``k`` of the first dimension's dyadic tree, pair the
    two siblings with opposite halves of the second dimension, recursing
    the pattern through the remaining dimensions.  Concretely, box ``j``
    (for j in [2^d]) pins dimension 0 to the unit interval ``j`` and
    dimension 1 to the *bit-reversed complement* prefix of ``j``, leaving
    the rest λ — a staircase whose boxes only resolve into thin slabs
    (the volume-argument flavor of Theorem 5.5).

    The union does not cover the space; the instance is meant for
    resolution-count measurements, not for cover checks.
    """
    if n < 2:
        raise ValueError("staircase needs at least 2 dimensions")
    side = 1 << d
    boxes: List[PackedBox] = []
    for j in range(side):
        complement = side - 1 - j
        box = [pmake(j, d), pmake(complement, d)] + [PLAMBDA] * (n - 2)
        boxes.append(tuple(box))
    # Add coarse slabs that interlock with the staircase in the remaining
    # dimensions, one family per extra dimension.
    for axis in range(2, n):
        for j in range(side):
            box = [PLAMBDA] * n
            box[0] = pmake(j, d)
            box[axis] = pmake(j & 1, 1)
            boxes.append(tuple(box))
    return boxes


def covering_pair_instance(d: int, n: int = 3) -> List[PackedBox]:
    """A trivially-covered instance with |C| = 2 and arbitrarily fine noise.

    The two halves of dimension 0 cover everything; 2^d fine unit-column
    boxes are redundant noise.  Certificate machinery should find |C| = 2
    regardless of d — the "certificate much smaller than input" regime
    (Proposition B.6).
    """
    boxes: List[PackedBox] = [
        (pmake(0, 1),) + (PLAMBDA,) * (n - 1),
        (pmake(1, 1),) + (PLAMBDA,) * (n - 1),
    ]
    for v in range(1 << d):
        boxes.append((pmake(v, d),) + (PLAMBDA,) * (n - 1))
    return boxes
