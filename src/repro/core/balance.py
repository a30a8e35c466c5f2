"""Load balancing: balanced partitions, the Balance map, and Tetris-LB.

Section 4.5 / Appendix F: plain ordered resolution is stuck at
Ω(|C|^{n-1}) on adversarial inputs (Theorem 5.4; Example F.1 realizes the
bottleneck for n = 3).  The fix lifts the n-dimensional BCP into 2n-2
dimensions through the **Balance map**

    ⟨b_1, ..., b_n⟩  ↦  ⟨b'_1, ..., b'_{n-2}, b_n, b_{n-1},
                          b''_{n-2}, ..., b''_1⟩,

where ``b_i = b'_i · b''_i`` splits at the boundary of a *balanced
partition* P_i of dimension i (Definition 4.13: Õ(√|C|) parts, each with
at most √|C| boxes strictly inside).  Running ordered Tetris on the lifted
boxes with the lifted SAO gives the Õ(|C|^{n/2} + Z) bound of
Theorem 4.11 — the Geometric Resolution upper bound of Figure 2.

The lifted space is *not* a product of fixed-depth domains: a primed
dimension ranges over the code P_i and its double-primed partner holds the
variable-length remainder.  :class:`~repro.core.tetris.CodeDimension` and
:class:`~repro.core.tetris.RemainderDimension` teach the engine where those
dimensions bottom out, and the map is exact on points (each original point
corresponds to exactly one lifted unit box), so outputs translate back
losslessly.

The partition / lifting machinery works on **packed** marker-bit
intervals throughout (splitting a component at a code boundary is two
shifts); the two public solvers check that every input component is an
int at entry.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core import intervals as dy
from repro.core.boxes import PackedBox, check_packed
from repro.core.intervals import PLAMBDA, Packed
from repro.core.resolution import ResolutionStats
from repro.core.tetris import (
    BoxSetOracle,
    CodeDimension,
    FixedDepth,
    RemainderDimension,
    TetrisEngine,
)

Point = Tuple[int, ...]
Partition = Tuple[Packed, ...]


def strictly_inside_count(
    components: Sequence[Packed], part: Packed
) -> int:
    """|C_{⊂x}|: how many packed components have ``part`` as a *strict* prefix."""
    pl = part.bit_length()
    return sum(
        1
        for c in components
        if c.bit_length() > pl and (c >> (c.bit_length() - pl)) == part
    )


def balanced_partition(
    boxes: Sequence[PackedBox], axis: int, depth: int,
    threshold: Optional[float] = None,
) -> Partition:
    """A balanced partition of dimension ``axis`` (Proposition F.4).

    Start from {λ} and split every *heavy* interval — one with more than
    ``threshold`` (default √|C|) boxes strictly inside — until none is
    heavy.  The result is a complete prefix-free code with Õ(√|C|) parts,
    as packed intervals.
    """
    components = [box[axis] for box in boxes]
    if threshold is None:
        threshold = math.sqrt(len(boxes)) if boxes else 1.0
    unit_bit = 1 << depth
    parts: List[Packed] = []
    frontier: List[Packed] = [PLAMBDA]
    while frontier:
        part = frontier.pop()
        if (
            part < unit_bit
            and strictly_inside_count(components, part) > threshold
        ):
            frontier.append(part << 1)
            frontier.append((part << 1) | 1)
        else:
            parts.append(part)
    return tuple(sorted(parts))


def split_by_partition(
    p: Packed, partition: Partition
) -> Tuple[Packed, Packed]:
    """The (s¹(P), s²(P)) split of equations (19)–(20).

    If ``p`` is a prefix of some code element, return ``(p, λ)``;
    otherwise a unique code element ``q`` strictly prefixes ``p`` and we
    return ``(q, suffix)`` with the suffix re-packed.
    """
    pl = p.bit_length()
    for q in partition:
        shift = q.bit_length() - pl
        if shift >= 0:
            if (q >> shift) == p:
                return p, PLAMBDA  # p ∈ prefixes(P)
        else:
            if (p >> -shift) == q:
                suffix_len = -shift
                suffix = (1 << suffix_len) | (p & ((1 << suffix_len) - 1))
                return q, suffix
    raise ValueError(
        f"interval {dy.pto_bits(p)} not consistent with the partition "
        f"{tuple(dy.pto_bits(q) for q in partition)}"
    )


class BalanceMap:
    """The lifting ``Balance_{A_1..A_{n-2}}`` and its inverse on points.

    Lifted attribute order (which is also the SAO Tetris-LB uses):

        A'_1, ..., A'_{n-2}, A_n, A_{n-1}, A''_{n-2}, ..., A''_1
    """

    def __init__(
        self,
        boxes: Sequence[PackedBox],
        ndim: int,
        depth: int,
        threshold: Optional[float] = None,
    ):
        if ndim < 2:
            raise ValueError("the Balance map needs at least 2 dimensions")
        self.ndim = ndim
        self.depth = depth
        self.num_partitioned = max(ndim - 2, 0)
        self.partitions: List[Partition] = [
            balanced_partition(boxes, axis, depth, threshold=threshold)
            for axis in range(self.num_partitioned)
        ]
        self.lifted_ndim = 2 * ndim - 2 if ndim > 2 else ndim

    def lift_box(self, box: PackedBox) -> PackedBox:
        """Map one original packed box into the lifted space."""
        k = self.num_partitioned
        primed: List[Packed] = []
        double_primed: List[Packed] = []
        for axis in range(k):
            first, second = split_by_partition(
                box[axis], self.partitions[axis]
            )
            primed.append(first)
            double_primed.append(second)
        # Lifted order: primed ascending, A_n, A_{n-1}, double-primed
        # descending.
        return tuple(
            primed + [box[self.ndim - 1], box[self.ndim - 2]]
            + list(reversed(double_primed))
        )

    def lift_boxes(self, boxes: Iterable[PackedBox]) -> List[PackedBox]:
        return [self.lift_box(b) for b in boxes]

    def lower_point(self, lifted_unit: PackedBox) -> Point:
        """Map a lifted packed unit box back to the original coordinates."""
        k = self.num_partitioned
        coords: List[int] = [0] * self.ndim
        for axis in range(k):
            p = lifted_unit[axis]
            s = lifted_unit[self.lifted_ndim - 1 - axis]
            pl = p.bit_length() - 1
            sl = s.bit_length() - 1
            if pl + sl != self.depth:
                raise ValueError(
                    f"lifted unit box has inconsistent lengths on axis "
                    f"{axis}: {pl} + {sl} != {self.depth}"
                )
            coords[axis] = ((p ^ (1 << pl)) << sl) | (s ^ (1 << sl))
        coords[self.ndim - 1] = dy.pvalue(lifted_unit[k])
        coords[self.ndim - 2] = dy.pvalue(lifted_unit[k + 1])
        return tuple(coords)

    def dimension_specs(self):
        """Specs for the lifted space, in lifted (SAO) order."""
        k = self.num_partitioned
        specs: List = []
        for axis in range(k):
            specs.append(CodeDimension(self.partitions[axis]))
        specs.append(FixedDepth(self.depth))  # A_n
        specs.append(FixedDepth(self.depth))  # A_{n-1}
        for axis in range(k - 1, -1, -1):
            specs.append(RemainderDimension(axis, self.depth))
        return specs


def tetris_preloaded_lb(
    boxes: Sequence[PackedBox],
    ndim: int,
    depth: int,
    stats: Optional[ResolutionStats] = None,
    threshold: Optional[float] = None,
) -> List[Point]:
    """Algorithm 3 / 5: Balance then Tetris-Preloaded on the lifted boxes.

    Solves BCP in Õ(|C|^{n/2} + Z) when handed a box certificate (the
    offline setting of Section 4.5.1); on arbitrary box sets the bound is
    in terms of |input| instead.
    """
    boxes = [check_packed(b) for b in boxes]
    if ndim <= 2:
        # Nothing to balance below 3 dimensions; plain Tetris is already
        # within the bound (Theorem E.11 gives Õ(|C|^{n-1}) = Õ(|C|)).
        from repro.core.tetris import tetris_preloaded

        return tetris_preloaded(boxes, ndim, depth, stats=stats)
    mapping = BalanceMap(boxes, ndim, depth, threshold=threshold)
    lifted = mapping.lift_boxes(boxes)
    engine = TetrisEngine(
        mapping.lifted_ndim,
        depth,
        stats=stats,
        dims=mapping.dimension_specs(),
    )
    oracle = BoxSetOracle(lifted, mapping.lifted_ndim)
    outputs = engine.run(oracle, preload=True, return_boxes=True)
    return sorted(mapping.lower_point(b) for b in outputs)


def tetris_reloaded_lb(
    boxes: Sequence[PackedBox],
    ndim: int,
    depth: int,
    stats: Optional[ResolutionStats] = None,
    rebuild_factor: float = 2.0,
) -> List[Point]:
    """Online Tetris-LB (Appendix F.6, simplified).

    The paper's online variant re-adjusts partitions as boxes stream in;
    we approximate the amortized bookkeeping by restarting with fresh
    balanced partitions whenever the number of *loaded* boxes grows by
    ``rebuild_factor`` — total rebalancing work stays within a log factor
    of the final run (each restart's work is dominated by the next).
    """
    boxes = [check_packed(b) for b in boxes]
    if ndim <= 2:
        from repro.core.tetris import tetris_reloaded

        return tetris_reloaded(boxes, ndim, depth, stats=stats)
    stats = stats if stats is not None else ResolutionStats()
    oracle = BoxSetOracle(boxes, ndim)
    unit_bit = 1 << depth
    loaded: List[PackedBox] = []
    loaded_set = set()
    budget = 4
    while True:
        mapping = BalanceMap(
            loaded if loaded else boxes[:1], ndim, depth
        )
        engine = TetrisEngine(
            mapping.lifted_ndim, depth, stats=stats,
            dims=mapping.dimension_specs(),
        )
        for box in loaded:
            engine.add_box(mapping.lift_box(box))
        outputs: List[Point] = []
        restart = False
        # Run the outer loop manually so we can intercept oracle loads.
        covered, witness = engine.skeleton(engine._universe)
        while not covered:
            lowered = mapping.lower_point(engine.to_external(witness))
            unit = tuple(unit_bit | v for v in lowered)
            stats.oracle_queries += 1
            gap_boxes = oracle.containing(unit)
            if not gap_boxes:
                outputs.append(lowered)
                engine.add_box(engine.to_external(witness))
            else:
                fresh = [
                    b for b in gap_boxes if b not in loaded_set
                ]
                for b in fresh:
                    loaded_set.add(b)
                    loaded.append(b)
                    engine.add_box(mapping.lift_box(b))
                if len(loaded) > budget:
                    restart = True
                    break
            covered, witness = engine.skeleton(engine._universe)
        if not restart:
            return sorted(outputs)
        budget = max(budget + 1, int(budget * rebuild_factor))
