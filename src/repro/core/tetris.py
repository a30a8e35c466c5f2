"""Tetris — the paper's join / box-cover algorithm (Algorithms 1 and 2).

``TetrisSkeleton`` solves the *Boolean* box cover problem: given the
knowledge base ``A`` and a target box ``b``, decide whether ``b`` is covered
by the union of ``A`` and produce a witness — a single box covering ``b``
(derived by geometric resolutions, cached back into ``A``), or an uncovered
point of ``b``.

The outer Tetris loop drives the skeleton over the universal box
⟨λ,...,λ⟩; every false witness is either a fresh output tuple (no input
gap box contains it) or triggers loading the containing gap boxes from the
input oracle into ``A``.  Two traversal **modes** implement that loop:

* ``mode="resume"`` (the default, and what every caller in the repo
  runs) — the one-pass traversal, TetrisSkeleton2 from the proof of
  Theorem D.2 made frontier-resuming: outputs are handled inside the
  skeleton, the explicit stack is *left in place* where the knowledge
  base is amended, and the traversal resumes from the frontier — it
  never restarts.  In on-demand (Reloaded) runs it asks the oracle
  about **boxes, not points**: after a knowledge-base miss on the
  traversal box ``b`` it issues one ``oracle.container(b)`` probe — "a
  gap box of B(Q) containing all of ``b``, else ``None``", the same
  O(log N + d) index walk a point probe pays (Section 3.4 / App. B.3).
  A hit is stored and is the witness, so a gap box lands where the
  traversal first fits inside it instead of after a depth-``n·d``
  needle descent; a miss on a unit box is an output; a miss on a thick
  box splits.  Every box ``container(b)`` returns is one
  ``containing`` would return for a point of ``b``, so the loaded set
  is a subset of Algorithm 2's and Theorem 4.7's accounting carries
  over.  It runs as the generated kernel of
  :func:`repro.engine.codegen.tetris_kernel` where that covers the
  engine's shape and as the interpreted
  :meth:`TetrisEngine._run_resuming` — the same traversal, the
  reference the kernel is pinned to — everywhere else.
* ``mode="faithful"`` — Algorithms 1 and 2 as printed:
  :meth:`TetrisEngine.skeleton` answers one Boolean box-cover question
  and the outer loop restarts it from the universe after every
  uncovered point.  It is the paper-parity reference (and what
  Theorem D.2's one-pass refinement is measured against in
  ``benchmarks/paper.py::ablation_one_pass``): plain probes, the resolver's own
  ``resolve``, every resolvent cached — nothing tuned, a full
  root-to-leaf re-descent per output.

Both modes emit the same output set; the parity matrix in
``tests/core/test_tetris_modes.py`` proves it over random instances.

Variant flags (Sections 4.3–4.4, 5.1) compose with any mode:

* **Tetris-Preloaded** (``preload=True``): ``A`` starts with every input
  gap box — the worst-case-optimal configuration (AGM / fhtw bounds).
* **Tetris-Reloaded** (``preload=False``): ``A`` starts empty and boxes are
  loaded on demand — the certificate-based, beyond-worst-case
  configuration (Õ(|C|+Z) for treewidth 1, Õ(|C|^{w+1}+Z) for treewidth w).
* **No resolvent caching** (``cache_resolvents=False``): drops line 19 of
  Algorithm 1, restricting the proof to Tree Ordered Geometric Resolution
  (Theorem 5.1 / Corollary D.3).

The engine is written iteratively (explicit stack) so deep recursions
(depth ``n·d``) never hit the interpreter recursion limit.

Internally every box is a **packed** tuple — one marker-bit int
``(1 << length) | value`` per dimension (see
:mod:`repro.core.intervals`).  The encoding makes the hot-loop
primitives single int operations: splitting a component is ``2p`` /
``2p + 1``, and containment is a shift + compare per dimension.  The
uniform-space unit test is hoisted out of the per-node scan entirely:
the traversal tracks the first thick axis as a *cursor* carried on the
stack, so "is this box a point?" is one int compare (``cursor == ndim``)
instead of a ``min(box)`` scan, and the split axis is the cursor itself
instead of a linear search.  SAO permutations are precomputed tuples
with an identity fast path — an engine whose splitting order matches
space order never copies a box crossing the API boundary.  Public entry
points (:func:`solve_bcp` and friends) take packed boxes as they are;
:class:`BoxSetOracle` only checks that every component is an int.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core import intervals as dy
from repro.core.boxes import PackedBox, box_contains, check_packed
from repro.core.dyadic_tree import (
    MultilevelDyadicTree,
    frontier_children,
    frontier_note_add,
    frontier_probe,
)
from repro.core.resolution import (
    ResolutionStats,
    Resolver,
    is_ordered_pair,
)

Point = Tuple[int, ...]

#: The traversal modes of the outer loop, in preference order.
MODES: Tuple[str, ...] = ("resume", "faithful")


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

    Given a dyadic box, returns a box of ``B`` containing it — or, for a
    unit box (a point of the output space), all of them — in Õ(1) via a
    multilevel dyadic tree.  This models "the pre-built database indices
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

    def containing(self, unit_box: PackedBox) -> List[PackedBox]:
        """All gap boxes containing the given point (Algorithm 2, line 4)."""
        return self._tree.find_all_containers(unit_box)

    def container(self, box: PackedBox) -> Optional[PackedBox]:
        """A gap box containing all of ``box``, else ``None`` — the one
        question resume-mode Reloaded asks."""
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
    """One Tetris run: a knowledge base, a resolver, and a splitting order.

    ``sao`` is the splitting attribute order as a permutation of dimension
    indices; boxes are stored and split internally in SAO order and
    translated back at the API boundary (an identity SAO skips the
    translation entirely).  All engine-level box arguments and results
    (``skeleton``, ``add_box``, ``return_boxes`` outputs) are **packed**.
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
        # add / add_many / find_container / find_all_containers works
        # (see repro.core.stores for the linear-scan ablation).
        self.knowledge_base = (
            knowledge_base
            if knowledge_base is not None
            else MultilevelDyadicTree(ndim)
        )
        self._resolver = Resolver(self.stats)
        self._universe: PackedBox = (dy.PLAMBDA,) * ndim
        self._unit_marker = 1 << depth
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

    def _is_unit_box(self, box: PackedBox) -> bool:
        """Unit test under dimension specs (generalized spaces only)."""
        dims = self.dims
        return all(
            dims[i].is_unit(box, i) for i in range(self.ndim)
        )

    def _first_thick_generalized(self, box: PackedBox) -> int:
        dims = self.dims
        for i in range(self.ndim):
            if not dims[i].is_unit(box, i):
                return i
        raise ValueError("unit boxes cannot be split")

    def _initial_cursor(self, box: PackedBox) -> int:
        """First non-unit axis of a uniform-space box (``ndim`` if unit)."""
        unit = self._unit_marker
        cursor = 0
        n = self.ndim
        while cursor < n and box[cursor] >= unit:
            cursor += 1
        return cursor

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

    # -- Algorithm 1: TetrisSkeleton ------------------------------------------

    def skeleton(self, target: PackedBox) -> Tuple[bool, PackedBox]:
        """Algorithm 1 on an SAO-order packed target box.

        Returns ``(True, w)`` with ``w ⊇ target`` covered by the knowledge
        base, or ``(False, p)`` with ``p`` an uncovered unit box inside
        ``target``.  Implemented with an explicit stack; each frame holds
        ``[b, second_half, axis, w1, stage, child_cursor]`` where
        ``child_cursor`` is the halves' first thick axis (uniform spaces).
        """
        kb = self.knowledge_base
        find_container = kb.find_container
        stats = self.stats
        unit = self._unit_marker
        cache = self.cache_resolvents
        kb_add = kb.add
        resolve = self._resolver.resolve
        uniform = self.dims is None
        n = self.ndim
        stats.skeleton_calls += 1

        stack: list = []
        current: Optional[PackedBox] = target
        cursor = self._initial_cursor(target) if uniform else 0
        result: Tuple[bool, PackedBox] = (False, target)

        while True:
            if current is not None:
                b = current
                stats.containment_queries += 1
                witness = find_container(b)
                if witness is not None:
                    stats.cache_hits += 1
                    result = (True, witness)
                    current = None
                    continue
                # Unit box check: one compare on uniform spaces (the
                # cursor already skipped every unit component).
                if (cursor == n) if uniform else self._is_unit_box(b):
                    result = (False, b)
                    current = None
                    continue
                axis = cursor if uniform else self._first_thick_generalized(b)
                head = b[:axis]
                tail = b[axis + 1:]
                half = b[axis] << 1
                b1 = head + (half,) + tail
                b2 = head + (half | 1,) + tail
                child_cursor = cursor
                if uniform and half >= unit:
                    child_cursor = axis + 1
                    while child_cursor < n and b[child_cursor] >= unit:
                        child_cursor += 1
                stack.append([b, b2, axis, None, 0, child_cursor])
                current = b1
                cursor = child_cursor
                continue

            if not stack:
                return result

            frame = stack[-1]
            covered, witness = result
            if not covered:
                # An uncovered point propagates straight to the root
                # (Algorithm 1, lines 9–10 and 14–15).
                stack.pop()
                continue
            b, b2, axis, w1, stage, child_cursor = frame
            if box_contains(witness, b):
                # Lines 11–12 / 16–17: the half's witness already covers b.
                stack.pop()
                continue
            if stage == 0:
                frame[3] = witness
                frame[4] = 1
                current = b2
                cursor = child_cursor
                continue
            # Both halves covered but neither witness covers b: resolve.
            resolvent = resolve(w1, witness, axis)
            if cache:
                kb_add(resolvent)
            stack.pop()
            result = (True, resolvent)

    # -- Algorithm 2: the outer loop -------------------------------------------

    def run(
        self,
        oracle: Optional[BoxSetOracle] = None,
        preload: bool = False,
        max_outputs: Optional[int] = None,
        return_boxes: bool = False,
        mode: str = "resume",
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
        ``oracle.container(box)`` probe per knowledge-base miss in
        resume mode, ``oracle.containing(point)`` per uncovered point in
        faithful mode.

        ``mode`` selects the traversal: ``"resume"`` (default) is the
        one-pass frontier-resuming skeleton, ``"faithful"`` the
        restart-per-output Algorithm 2 kept as the paper-parity
        reference.  Resume runs as the generated kernel when
        :func:`repro.engine.codegen.tetris_kernel` covers this engine's
        shape and as the interpreted :meth:`_run_resuming` otherwise;
        nothing but the shape chooses between the two.  Either keeps
        its traversal frontier in locals: the knowledge base is only
        probed and written, and holds no state of the run.

        ``return_boxes=True`` yields each output as a full packed unit
        box (space order) rather than a tuple of values — required for
        generalized spaces where components have varying lengths.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if oracle is not None and preload:
            self.stats.boxes_loaded += self.knowledge_base.add_many(
                oracle.ordered_boxes(self.sao)
            )
        self._return_boxes = return_boxes
        if mode == "faithful":
            return self._run_restarting(oracle, max_outputs)
        on_demand = oracle is not None and not preload
        # The per-configuration kernel (mode flags and ndim/depth/SAO
        # folded to literals, the dyadic tree's probe walk inlined) where
        # the shape is supported; the interpreted loop below is the same
        # traversal for every other store and configuration.
        from repro.engine.codegen import tetris_kernel

        kernel = tetris_kernel(
            self, oracle, on_demand, capped=max_outputs is not None
        )
        if kernel is not None:
            return kernel(self, oracle, max_outputs)
        # Preloaded runs hold every input gap box in A, so an uncovered
        # leaf is an output by construction: no oracle.
        return self._run_resuming(oracle if on_demand else None, max_outputs)

    def _emit(self, unit_internal: PackedBox):
        """Convert an internal unit box to the configured output form."""
        external = (
            unit_internal
            if self._sao_identity
            else self.to_external(unit_internal)
        )
        if self._return_boxes:
            return external
        if self.dims is None:
            unit = self._unit_marker
            return tuple(p ^ unit for p in external)
        return tuple(dy.pvalue(p) for p in external)

    def _oracle_lookup(
        self, oracle: Optional[BoxSetOracle], point_internal: PackedBox
    ) -> List[PackedBox]:
        """Query the oracle with an internal (SAO-order) unit box."""
        if oracle is None:
            return []
        self.stats.oracle_queries += 1
        if self._sao_identity:
            return oracle.containing(point_internal)
        external = self.to_external(point_internal)
        to_internal = self.to_internal
        return [to_internal(b) for b in oracle.containing(external)]

    def _oracle_container(
        self, oracle: BoxSetOracle, box_internal: PackedBox
    ) -> Optional[PackedBox]:
        """Probe the oracle with an internal (SAO-order) box."""
        self.stats.oracle_queries += 1
        if self._sao_identity:
            return oracle.container(box_internal)
        found = oracle.container(self.to_external(box_internal))
        return None if found is None else self.to_internal(found)

    def _run_restarting(
        self, oracle: Optional[BoxSetOracle], max_outputs: Optional[int]
    ) -> List[Point]:
        """Faithful Algorithm 2: restart the skeleton after every witness."""
        outputs: List[Point] = []
        universe = self._universe
        kb = self.knowledge_base
        covered, witness = self.skeleton(universe)
        while not covered:
            gap_boxes = self._oracle_lookup(oracle, witness)
            if not gap_boxes:
                outputs.append(self._emit(witness))
                gap_boxes = [witness]
                if max_outputs is not None and len(outputs) >= max_outputs:
                    return outputs
            for box in gap_boxes:
                if kb.add(box):
                    self.stats.boxes_loaded += 1
            covered, witness = self.skeleton(universe)
        return outputs

    def _run_resuming(
        self, oracle: Optional[BoxSetOracle], max_outputs: Optional[int]
    ) -> List[Point]:
        """The frontier-resuming skeleton (the default outer loop),
        interpreted: the reference the generated kernel is pinned to and
        the path for every shape :func:`tetris_kernel` declines.

        Structurally a one-pass traversal, but every point where the
        knowledge base is amended is a *resume point*: the stack is left
        in place, the gap or output box is patched in, and the traversal
        continues with that box as the witness.

        ``oracle`` is the on-demand (Reloaded) source, ``None`` when the
        knowledge base already holds every input gap box (or there are
        none).  After a knowledge-base miss on the traversal box ``b``
        it is asked ``container(b)`` once: a hit is stored and answers
        ``b`` without descending; a miss on a unit box makes ``b`` an
        output; a miss on a thick box splits.

        On the dyadic tree over a uniform space the loop probes from a
        traversal frontier it keeps in locals, as the kernel does:
        levels built with :func:`~repro.core.dyadic_tree.frontier_children`,
        every store it makes noted with
        :func:`~repro.core.dyadic_tree.frontier_note_add`, and probes
        answered by :func:`~repro.core.dyadic_tree.frontier_probe` in
        the kernel's walk order.  Any other store is probed with its
        own ``find_container``.
        """
        kb = self.knowledge_base
        find_container = kb.find_container
        kb_add = kb.add
        stats = self.stats
        unit = self._unit_marker
        cache = self.cache_resolvents
        resolver = self._resolver
        # Plain Resolver has no proof-recording side channel, so the
        # resolution rule can run inline; a TracingResolver (or any
        # subclass) keeps the full call path.
        fast_resolve = type(resolver) is Resolver
        record = self.stats.record
        uniform = self.dims is None
        n = self.ndim
        last = n - 1
        outputs: List[Point] = []
        stats.skeleton_calls += 1
        # The traversal frontier: ``frozen`` holds the leading components
        # of the last probed box below its probe level, ``levels[j]`` the
        # tree nodes reachable through prefixes of ``frozen[:j]`` and
        # ``level_ids[j]`` their ids (None until a store needs them).
        frontier = uniform and isinstance(kb, MultilevelDyadicTree)
        if frontier:
            root = kb._root
            frozen: list = []
            levels: list = [[root]]
            level_ids: list = [None]
        # Stores this run has made: a frame's count at its split tells
        # whether its second half may pin the split axis.
        version = 0

        stack: list = []
        current: Optional[PackedBox] = self._universe
        cursor = self._initial_cursor(current) if uniform else 0
        # Split axis of the parent when ``current`` is a half whose parent
        # just missed with nothing stored since — collapses that level of
        # the frontier's probe to one exact lookup.
        pinned: Optional[int] = None
        witness: PackedBox = self._universe

        while True:
            if current is not None:
                b = current
                current = None
                stats.containment_queries += 1
                if frontier:
                    # Unfreeze where b leaves the frozen prefix, then
                    # freeze b's components below its probe level.
                    target = cursor if cursor < last else last
                    depth = len(frozen)
                    lim = depth if depth < target else target
                    j = 0
                    while j < lim and frozen[j] == b[j]:
                        j += 1
                    if j < depth:
                        del frozen[j:], levels[j + 1:], level_ids[j + 1:]
                    while j < target:
                        levels.append(frontier_children(levels[j], b[j]))
                        frozen.append(b[j])
                        level_ids.append(None)
                        j += 1
                    witness = frontier_probe(levels[target], b, target, pinned)
                else:
                    witness = find_container(b)
                if witness is not None:
                    stats.cache_hits += 1
                    continue
                if oracle is not None:
                    witness = self._oracle_container(oracle, b)
                    if witness is not None:
                        # Resume point: a gap box around all of b.
                        if kb_add(witness):
                            stats.boxes_loaded += 1
                            version += 1
                            if frontier:
                                frontier_note_add(
                                    root, frozen, levels, level_ids, witness
                                )
                        stats.resumes += 1
                        stats.witness_depth_sum += (
                            sum(p.bit_length() for p in witness) - n
                        )
                        continue
                if (cursor == n) if uniform else self._is_unit_box(b):
                    # Resume point: no gap box holds the point — an
                    # output, stored so the traversal never restarts.
                    stats.resumes += 1
                    outputs.append(self._emit(b))
                    if (
                        max_outputs is not None
                        and len(outputs) >= max_outputs
                    ):
                        return outputs
                    if kb_add(b):
                        version += 1
                        if frontier:
                            frontier_note_add(root, frozen, levels, level_ids, b)
                    stats.boxes_loaded += 1
                    witness = b
                    continue
                axis = cursor if uniform else self._first_thick_generalized(b)
                head = b[:axis]
                tail = b[axis + 1:]
                half = b[axis] << 1
                b1 = head + (half,) + tail
                b2 = head + (half | 1,) + tail
                child_cursor = cursor
                if uniform and half >= unit:
                    child_cursor = axis + 1
                    while child_cursor < n and b[child_cursor] >= unit:
                        child_cursor += 1
                stack.append([b, b2, axis, None, 0, child_cursor, version])
                current = b1
                cursor = child_cursor
                pinned = axis
                continue

            if not stack:
                return outputs

            frame = stack[-1]
            b, b2, axis, w1, stage, child_cursor, ver = frame
            if box_contains(witness, b):
                stack.pop()
                continue
            if stage == 0:
                frame[3] = witness
                frame[4] = 1
                current = b2
                cursor = child_cursor
                # The half b2 inherits b's miss: if nothing was stored
                # since the split, its probe can pin the axis too.
                pinned = axis if ver == version else None
                continue
            if fast_resolve:
                meet = list(map(max, w1, witness))
                meet[axis] = w1[axis] >> 1
                resolvent = tuple(meet)
                record(axis, is_ordered_pair(w1, witness, axis))
            else:
                resolvent = resolver.resolve(w1, witness, axis)
            # A resolvent no wider than its frame box can never be probed
            # again — the resuming traversal never revisits a resolved
            # region — so only witnesses that extend beyond the frame earn
            # a slot in A.  (The restarting mode must keep every
            # resolvent: its re-descents depend on it.)
            if cache and resolvent != b and kb_add(resolvent):
                version += 1
                if frontier:
                    frontier_note_add(
                        root, frozen, levels, level_ids, resolvent
                    )
            stack.pop()
            witness = resolvent


# -- Convenience entry points ---------------------------------------------------


def solve_bcp(
    boxes: Iterable[PackedBox],
    ndim: int,
    depth: int,
    sao: Optional[Sequence[int]] = None,
    preload: bool = True,
    cache_resolvents: bool = True,
    stats: Optional[ResolutionStats] = None,
    mode: str = "resume",
) -> List[Point]:
    """Solve a Box Cover Problem instance: list points not covered by ``boxes``.

    ``boxes`` are packed (one marker-bit int per component).  Defaults to
    the frontier-resuming preloaded configuration; pass ``mode="faithful"``
    (optionally with ``preload=False``) for the restart-per-output
    Algorithm 2.
    """
    oracle = BoxSetOracle(boxes, ndim)
    engine = TetrisEngine(
        ndim, depth, sao=sao, cache_resolvents=cache_resolvents, stats=stats,
    )
    return engine.run(oracle, preload=preload, mode=mode)


def tetris_preloaded(
    boxes: Iterable[PackedBox],
    ndim: int,
    depth: int,
    sao: Optional[Sequence[int]] = None,
    stats: Optional[ResolutionStats] = None,
    mode: str = "resume",
) -> List[Point]:
    """Tetris-Preloaded (Section 4.3): worst-case-optimal configuration."""
    return solve_bcp(
        boxes, ndim, depth, sao=sao, preload=True, stats=stats, mode=mode,
    )


def tetris_reloaded(
    boxes: Iterable[PackedBox],
    ndim: int,
    depth: int,
    sao: Optional[Sequence[int]] = None,
    stats: Optional[ResolutionStats] = None,
    mode: str = "resume",
) -> List[Point]:
    """Tetris-Reloaded (Section 4.4): certificate-based configuration."""
    return solve_bcp(
        boxes, ndim, depth, sao=sao, preload=False, stats=stats, mode=mode,
    )


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
