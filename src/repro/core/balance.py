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
from types import SimpleNamespace
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
        halves = [
            split_by_partition(box[axis], part)
            for axis, part in enumerate(self.partitions)
        ]
        # Lifted order: primed ascending, A_n, A_{n-1}, double-primed
        # descending.
        return (
            *(first for first, _ in halves), box[k + 1], box[k],
            *(second for _, second in reversed(halves)),
        )

    def lift_boxes(self, boxes: Iterable[PackedBox]) -> List[PackedBox]:
        return [self.lift_box(b) for b in boxes]

    def lower_box(self, lifted: PackedBox) -> PackedBox:
        """Map a lifted packed box back into the original space.

        Each primed component is joined to its double-primed partner.
        Exact on the boxes Tetris-LB's SAO reaches: a partner stays λ
        until its primed component is a code element.
        """
        k = self.num_partitioned
        joined = []
        for axis in range(k):
            suffix = lifted[-1 - axis]
            length = suffix.bit_length() - 1
            joined.append((lifted[axis] << length) | (suffix ^ (1 << length)))
        return (*joined, lifted[k + 1], lifted[k])

    def lower_point(self, lifted_unit: PackedBox) -> Point:
        """Map a lifted packed unit box back to the original coordinates."""
        unit = 1 << self.depth
        point = tuple(p ^ unit for p in self.lower_box(lifted_unit))
        if max(point) >= unit:
            raise ValueError(f"{lifted_unit} is not a lifted unit box")
        return point

    def dimension_specs(self):
        """Specs for the lifted space, in lifted (SAO) order."""
        return (
            [CodeDimension(part) for part in self.partitions]
            + [FixedDepth(self.depth), FixedDepth(self.depth)]  # A_n, A_{n-1}
            + [
                RemainderDimension(axis, self.depth)
                for axis in reversed(range(self.num_partitioned))
            ]
        )


def tetris_preloaded_lb(
    boxes: Sequence[PackedBox],
    ndim: int,
    depth: int,
    stats: Optional[ResolutionStats] = None,
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
    mapping = BalanceMap(boxes, ndim, depth)
    lifted = mapping.lift_boxes(boxes)
    engine = TetrisEngine(
        mapping.lifted_ndim, depth, stats=stats, dims=mapping.dimension_specs()
    )
    oracle = BoxSetOracle(lifted, mapping.lifted_ndim)
    outputs = engine.run(oracle, preload=True, return_boxes=True)
    return sorted(mapping.lower_point(b) for b in outputs)


#: Online Tetris-LB restarts when its loaded boxes pass a budget, and the
#: next round's budget is this many times larger.
_REBUILD_FACTOR = 2.0


class _OverBudget(Exception):
    """One online Tetris-LB round loaded more boxes than its budget."""


def tetris_reloaded_lb(
    boxes: Sequence[PackedBox],
    ndim: int,
    depth: int,
    stats: Optional[ResolutionStats] = None,
) -> List[Point]:
    """Online Tetris-LB (Appendix F.6, simplified).

    The paper's online variant re-adjusts partitions as boxes stream in;
    we approximate the amortized bookkeeping by restarting with fresh
    balanced partitions whenever the number of *loaded* boxes grows by
    ``_REBUILD_FACTOR`` — total rebalancing work stays within a log
    factor of the final run (each restart's work is dominated by the
    next).  A round is one Tetris-Reloaded run on the lifted space, its
    knowledge base seeded with the boxes earlier rounds loaded; its
    oracle lowers each probe box, asks the original gap boxes and lifts
    the answer with the round's map.
    """
    boxes = [check_packed(b) for b in boxes]
    if ndim <= 2:
        from repro.core.tetris import tetris_reloaded

        return tetris_reloaded(boxes, ndim, depth, stats=stats)
    stats = stats if stats is not None else ResolutionStats()
    oracle = BoxSetOracle(boxes, ndim)
    loaded: dict = {}  # every gap box a round has loaded, in load order
    budget = 4

    def container(box: PackedBox) -> Optional[PackedBox]:
        gap = oracle.container(mapping.lower_box(box))
        if gap is None:
            return None
        if gap not in loaded:
            loaded[gap] = None
            if len(loaded) > budget:
                raise _OverBudget
        return mapping.lift_box(gap)

    lifted_oracle = SimpleNamespace(container=container)
    while True:
        mapping = BalanceMap(list(loaded) or boxes[:1], ndim, depth)
        engine = TetrisEngine(
            mapping.lifted_ndim, depth, stats=stats,
            dims=mapping.dimension_specs(),
        )
        for box in loaded:
            engine.add_box(mapping.lift_box(box))
        try:
            outputs = engine.run(lifted_oracle, return_boxes=True)
        except _OverBudget:
            budget = max(budget + 1, int(budget * _REBUILD_FACTOR))
            continue
        return sorted(mapping.lower_point(b) for b in outputs)
