"""Tetris — the paper's join / box-cover algorithm (Algorithms 1 and 2).

A run answers the box cover problem: list the points of the output
space that no input gap box covers.  The knowledge base ``A`` holds the
boxes known to be covered (input gap boxes, output boxes and cached
resolvents); the traversal splits the universal box ⟨λ,...,λ⟩ along the
splitting attribute order and resolves the witnesses of two halves into
one for their parent (geometric resolution, Section 4.1).

There is one loop: the one-pass traversal of Theorem D.2 (Appendix D)
made frontier-resuming.  Outputs are handled inside the traversal, and
wherever the knowledge base is amended (an oracle box or an output box
stored) the explicit stack is left in place and the traversal resumes
from its frontier with the new box as the witness — it never restarts.
In on-demand (Reloaded) runs it asks the oracle about **boxes, not
points**: after a knowledge-base miss on the traversal box ``b`` it
issues one ``oracle.container(b)`` probe — "a gap box of B(Q)
containing all of ``b``, else ``None``", the same O(log N + d) index
walk a point probe pays (Section 3.4 / App. B.3).  A hit is stored and
is the witness; a miss on a unit box is an output; a miss on a thick
box splits.  Every box ``container(b)`` returns contains a point of
``b`` that Algorithm 2 as printed would have asked about, so the loaded
set is a subset of Algorithm 2's and Theorem 4.7's accounting carries
over.

The loop is the kernel :func:`repro.engine.codegen.tetris_kernel`
generates per engine shape — every store, the load-balanced specs of
Section 4.5, ``return_boxes`` output and the proof log included.
Algorithms 1 and 2 as printed (restart from the universe after every
output) and the interpreted form of the resuming loop live in the tests
as the paper-parity references the kernel is pinned to.

Configurations (Sections 4.3–4.5, 5.1):

* **Tetris-Preloaded** (``preload=True``): ``A`` starts with every input
  gap box — the worst-case-optimal configuration (AGM / fhtw bounds).
* **Tetris-Reloaded** (``preload=False``): ``A`` starts empty and boxes are
  loaded on demand — the certificate-based, beyond-worst-case
  configuration (Õ(|C|+Z) for treewidth 1, Õ(|C|^{w+1}+Z) for treewidth w).
* **No resolvent caching** (``cache_resolvents=False``): drops line 19 of
  Algorithm 1, restricting the proof to Tree Ordered Geometric Resolution
  (Theorem 5.1 / Corollary D.3).
* **Tetris-LB** (``dims=``): the lifted space of the Balance map, whose
  dimensions bottom out at a code or a remainder (:mod:`repro.core.balance`).

Internally every box is a **packed** tuple — one marker-bit int
``(1 << length) | value`` per dimension (see
:mod:`repro.core.intervals`).  The encoding makes the hot-loop
primitives single int operations: splitting a component is ``2p`` /
``2p + 1``, and containment is a shift + compare per dimension.  SAO
permutations are precomputed tuples with an identity fast path — an
engine whose splitting order matches space order never copies a box
crossing the API boundary.  Public entry points (:func:`solve_bcp` and
friends) take packed boxes as they are; :class:`BoxSetOracle` only
checks that every component is an int.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.boxes import PackedBox, check_packed
from repro.core.dyadic_tree import MultilevelDyadicTree
from repro.core.resolution import ResolutionStats

Point = Tuple[int, ...]


class DimensionSpec:
    """How one dimension of the output space bottoms out.

    The plain engine treats every dimension as ``{0,1}^d`` (``FixedDepth``).
    The load-balanced engine of Section 4.5 lifts an n-dimensional BCP into
    2n-2 dimensions whose components are *not* fixed-length strings:

    * a partition dimension ``A'`` holds elements of a complete prefix-free
      code P (a balanced partition) — a component is unit when it is in P;
    * its remainder dimension ``A''`` holds the suffix, whose unit length
      depends on the P element chosen on ``A'``.

    Implementations answer, for a packed box in SAO order, whether an axis
    is at its unit (unsplittable) level.
    """

    def is_unit(self, box: PackedBox, axis: int) -> bool:
        raise NotImplementedError


class FixedDepth(DimensionSpec):
    """Ordinary dimension over ``{0,1}^depth``."""

    __slots__ = ("depth", "_unit")

    def __init__(self, depth: int):
        self.depth = depth
        self._unit = 1 << depth

    def is_unit(self, box: PackedBox, axis: int) -> bool:
        return box[axis] >= self._unit


class CodeDimension(DimensionSpec):
    """Dimension whose unit values form a complete prefix-free code.

    ``code`` is the set of packed intervals of a balanced partition P; any
    strict prefix of a code element is splittable, any code element is unit.
    """

    __slots__ = ("code",)

    def __init__(self, code):
        self.code = frozenset(code)

    def is_unit(self, box: PackedBox, axis: int) -> bool:
        return box[axis] in self.code


class RemainderDimension(DimensionSpec):
    """Suffix dimension paired with a code dimension.

    Unit length is ``total_depth`` minus the length of the partner (code)
    component.  Valid because the SAO visits the partner first, so by the
    time this axis is split the partner component is already unit.
    """

    __slots__ = ("partner_axis", "total_depth")

    def __init__(self, partner_axis: int, total_depth: int):
        self.partner_axis = partner_axis
        self.total_depth = total_depth

    def is_unit(self, box: PackedBox, axis: int) -> bool:
        # len(axis) == total_depth - len(partner), via bit_length = len + 1.
        return (
            box[axis].bit_length() + box[self.partner_axis].bit_length()
            == self.total_depth + 2
        )


class BoxSetOracle:
    """Oracle access to a set of gap boxes ``B`` (Section 3.4).

    Given a dyadic box, returns a box of ``B`` containing it in Õ(1) via
    a multilevel dyadic tree.  This models "the pre-built database indices
    of the input relations".

    Input boxes must be packed (:func:`~repro.core.boxes.check_packed`
    raises ``TypeError`` otherwise, before any box is stored); all
    queries and results are packed.
    """

    def __init__(self, boxes: Iterable[PackedBox], ndim: int):
        self.ndim = ndim
        self._tree = MultilevelDyadicTree(ndim)
        self._boxes: List[PackedBox] = list(
            dict.fromkeys(map(check_packed, boxes))
        )
        self._tree.add_many(self._boxes)

    def __len__(self) -> int:
        return len(self._boxes)

    def container(self, box: PackedBox) -> Optional[PackedBox]:
        """A gap box containing all of ``box``, else ``None`` — the one
        question Tetris-Reloaded asks."""
        return self._tree.find_container(box)

    def boxes(self) -> Sequence[PackedBox]:
        """The full box set, in space order."""
        return self._boxes

    def ordered_boxes(self, axes: Sequence[int]) -> Iterable[PackedBox]:
        """The box set with component ``k`` taken from space axis
        ``axes[k]`` — what Tetris-Preloaded loads, in the engine's SAO."""
        if tuple(axes) == tuple(range(self.ndim)):
            return self._boxes
        # A non-identity permutation has ndim >= 2: the getter
        # returns tuples.
        return map(itemgetter(*axes), self._boxes)


class TetrisEngine:
    """One Tetris run: a knowledge base, its stats, and a splitting order.

    ``sao`` is the splitting attribute order as a permutation of dimension
    indices; boxes are stored and split internally in SAO order and
    translated back at the API boundary (an identity SAO skips the
    translation entirely).  All engine-level box arguments and results
    (``add_box``, ``return_boxes`` outputs) are **packed**.

    ``proof`` is the opt-in proof log: ``None`` (the default) records
    nothing; set it to a :class:`~repro.core.trace.ResolutionProof` and
    every resolution of every later run appends its
    :class:`~repro.core.trace.ProofStep` to it, boxes in SAO order.
    """

    def __init__(
        self,
        ndim: int,
        depth: int,
        sao: Optional[Sequence[int]] = None,
        cache_resolvents: bool = True,
        stats: Optional[ResolutionStats] = None,
        dims: Optional[Sequence[DimensionSpec]] = None,
        knowledge_base=None,
    ):
        if ndim < 1:
            raise ValueError("ndim must be at least 1")
        if depth < 0:
            raise ValueError("depth must be non-negative")
        self.ndim = ndim
        self.depth = depth
        self.sao: Tuple[int, ...] = (
            tuple(range(ndim)) if sao is None else tuple(sao)
        )
        if sorted(self.sao) != list(range(ndim)):
            raise ValueError(
                f"sao must be a permutation of 0..{ndim - 1}, got {self.sao}"
            )
        inv = [0] * ndim
        for pos, dim in enumerate(self.sao):
            inv[dim] = pos
        self._inv_sao = tuple(inv)
        self._sao_identity = self.sao == tuple(range(ndim))
        self.cache_resolvents = cache_resolvents
        self.stats = stats if stats is not None else ResolutionStats()
        # The store behind Algorithm 1's A; any object with
        # add / add_many / find_container works (see repro.core.stores
        # for the linear-scan ablation).
        self.knowledge_base = (
            knowledge_base
            if knowledge_base is not None
            else MultilevelDyadicTree(ndim)
        )
        self.proof = None
        self._return_boxes = False
        # Dimension specs are given in *internal (SAO) order*; None means
        # every dimension is a plain {0,1}^depth domain (the fast path).
        self.dims: Optional[Tuple[DimensionSpec, ...]] = (
            tuple(dims) if dims is not None else None
        )
        if self.dims is not None:
            if len(self.dims) != ndim:
                raise ValueError("one dimension spec per dimension")
            for i, spec in enumerate(self.dims):
                if (
                    isinstance(spec, RemainderDimension)
                    and spec.partner_axis >= i
                ):
                    raise ValueError(
                        "a remainder dimension must follow its code "
                        "dimension in SAO order"
                    )

    # -- SAO translation -----------------------------------------------------

    def to_internal(self, box: PackedBox) -> PackedBox:
        """Permute a space-order box into SAO order (identity: zero copy)."""
        if self._sao_identity:
            return box
        return tuple([box[i] for i in self.sao])

    def to_external(self, box: PackedBox) -> PackedBox:
        """Permute an SAO-order box back into space order (identity: zero
        copy)."""
        if self._sao_identity:
            return box
        return tuple([box[i] for i in self._inv_sao])

    def add_box(self, box: PackedBox) -> bool:
        """Amend the knowledge base with a space-order packed box."""
        added = self.knowledge_base.add(self.to_internal(box))
        if added:
            self.stats.boxes_loaded += 1
        return added

    # -- the run --------------------------------------------------------------

    def run(
        self,
        oracle: Optional[BoxSetOracle] = None,
        preload: bool = False,
        max_outputs: Optional[int] = None,
        return_boxes: bool = False,
    ):
        """Solve the box cover problem, returning all uncovered points.

        ``oracle`` supplies the input gap boxes.  With ``preload=True``
        they are all loaded into the knowledge base up front
        (Tetris-Preloaded): one ``add_many`` pass over
        ``oracle.ordered_boxes(sao)``, which streams them already in
        this engine's SAO order and leaves duplicates for the knowledge
        base to skip.  On the default store that pass is the dyadic
        tree's loader, generated per dimensionality (see
        :func:`repro.core.dyadic_tree._emit_writers`): one loop that
        keeps the previous box's path nodes in locals.  Otherwise they
        are pulled on demand, in space order (Tetris-Reloaded): one
        ``oracle.container(box)`` probe per knowledge-base miss.

        The run is the kernel :func:`repro.engine.codegen.tetris_kernel`
        generates for this engine's shape — store, dimension specs,
        output form and proof log included.  It keeps its traversal
        frontier in locals: the knowledge base is only probed and
        written, and holds no state of the run.

        ``max_outputs`` caps the outputs: ``0`` returns ``[]`` after the
        preload, a negative cap raises ``ValueError``.

        ``return_boxes=True`` yields each output as a full packed unit
        box (space order) rather than a tuple of values — required for
        generalized spaces where components have varying lengths.
        """
        if max_outputs is not None and max_outputs < 0:
            raise ValueError(
                f"max_outputs must be non-negative, got {max_outputs}"
            )
        if oracle is not None and preload:
            self.stats.boxes_loaded += self.knowledge_base.add_many(
                oracle.ordered_boxes(self.sao)
            )
        self._return_boxes = return_boxes
        if max_outputs == 0:
            return []
        from repro.engine.codegen import tetris_kernel

        kernel = tetris_kernel(
            self, oracle, oracle is not None and not preload,
            capped=max_outputs is not None,
        )
        return kernel(self, oracle, max_outputs)


# -- Convenience entry points ---------------------------------------------------


def solve_bcp(
    boxes: Iterable[PackedBox],
    ndim: int,
    depth: int,
    sao: Optional[Sequence[int]] = None,
    preload: bool = True,
    cache_resolvents: bool = True,
    stats: Optional[ResolutionStats] = None,
) -> List[Point]:
    """Solve a Box Cover Problem instance: list points not covered by ``boxes``.

    ``boxes`` are packed (one marker-bit int per component).  Defaults to
    Tetris-Preloaded; ``preload=False`` loads them on demand.
    """
    oracle = BoxSetOracle(boxes, ndim)
    engine = TetrisEngine(
        ndim, depth, sao=sao, cache_resolvents=cache_resolvents, stats=stats,
    )
    return engine.run(oracle, preload=preload)


def tetris_preloaded(
    boxes: Iterable[PackedBox],
    ndim: int,
    depth: int,
    sao: Optional[Sequence[int]] = None,
    stats: Optional[ResolutionStats] = None,
) -> List[Point]:
    """Tetris-Preloaded (Section 4.3): worst-case-optimal configuration."""
    return solve_bcp(boxes, ndim, depth, sao=sao, preload=True, stats=stats)


def tetris_reloaded(
    boxes: Iterable[PackedBox],
    ndim: int,
    depth: int,
    sao: Optional[Sequence[int]] = None,
    stats: Optional[ResolutionStats] = None,
) -> List[Point]:
    """Tetris-Reloaded (Section 4.4): certificate-based configuration."""
    return solve_bcp(boxes, ndim, depth, sao=sao, preload=False, stats=stats)


def boolean_box_cover(
    boxes: Iterable[PackedBox],
    ndim: int,
    depth: int,
    sao: Optional[Sequence[int]] = None,
    stats: Optional[ResolutionStats] = None,
) -> bool:
    """Boolean BCP (Definition 3.5): does the union cover the whole space?

    Stops at the first uncovered point, so an uncovered instance exits early.
    """
    oracle = BoxSetOracle(boxes, ndim)
    engine = TetrisEngine(ndim, depth, sao=sao, stats=stats)
    uncovered = engine.run(oracle, preload=True, max_outputs=1)
    return not uncovered
