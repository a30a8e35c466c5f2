"""Shared test utilities: brute-force references and random generators."""

from __future__ import annotations

import contextlib
import itertools
import random
from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

from repro.core.boxes import PackedBox, box_contains
from repro.core.intervals import PLAMBDA


def interval_range(p: int, depth: int) -> range:
    """Integer range covered by a packed dyadic interval on a depth-d
    domain — computed from the bitstring, independently of
    ``repro.core.intervals``."""
    length = p.bit_length() - 1
    width = 1 << (depth - length)
    lo = (p - (1 << length)) * width
    return range(lo, lo + width)


# -- packed-interval oracles --------------------------------------------------
#
# Readings of one packed interval that only tests ask for; ``src/`` applies
# the same identities inline (see ``repro.core.intervals``).


def plength(p: int) -> int:
    """The string length of a packed interval."""
    return p.bit_length() - 1


def pfrom_point(point: int, depth: int) -> int:
    """The packed unit interval of a domain value at the given depth."""
    if not 0 <= point < (1 << depth):
        raise ValueError(f"point {point} outside domain of depth {depth}")
    return (1 << depth) | point


def pis_unit(p: int, depth: int) -> bool:
    """True when the packed interval is a single depth-``depth`` point."""
    return p >> depth == 1


def pis_prefix(a: int, b: int) -> bool:
    """True when ``a`` is a prefix of ``b`` (equivalently, contains ``b``)."""
    shift = b.bit_length() - a.bit_length()
    return shift >= 0 and (b >> shift) == a


def pmeet(a: int, b: int) -> int:
    """Intersection of two comparable packed intervals: the longer one
    (numerically the larger).  Raises when they are disjoint."""
    if pis_prefix(a, b) or pis_prefix(b, a):
        return max(a, b)
    raise ValueError(f"intervals {a:b} and {b:b} are disjoint")


def pwidth(p: int, depth: int) -> int:
    """Number of domain points covered on a depth-``depth`` domain."""
    return 1 << (depth - p.bit_length() + 1)


def pcovers_point(p: int, point: int, depth: int) -> bool:
    """True when the packed interval contains the given domain point; a
    point outside ``[0, 2**depth)`` is in no interval of the domain."""
    shift = depth + 1 - p.bit_length()
    return (
        shift >= 0
        and 0 <= point < (1 << depth)
        and ((1 << depth) | point) >> shift == p
    )


def box_covers_point(box: PackedBox, point: Sequence[int], depth: int) -> bool:
    for p, coord in zip(box, point):
        length = p.bit_length() - 1
        if (coord >> (depth - length)) != p - (1 << length):
            return False
    return True


def box_points(box: PackedBox, depth: int) -> Iterator[Tuple[int, ...]]:
    """Every point of a packed box (exponential — small boxes only)."""
    return itertools.product(*(interval_range(p, depth) for p in box))


def brute_force_uncovered(
    boxes: Iterable[PackedBox], ndim: int, depth: int
) -> List[Tuple[int, ...]]:
    """Reference BCP solver: enumerate all points, filter covered ones."""
    boxes = list(boxes)
    side = range(1 << depth)
    out = []
    for point in itertools.product(side, repeat=ndim):
        if not any(box_covers_point(b, point, depth) for b in boxes):
            out.append(point)
    return out


def random_box(rng: random.Random, ndim: int, depth: int) -> PackedBox:
    """A uniformly random packed dyadic box (components of random length)."""
    ivs = []
    for _ in range(ndim):
        length = rng.randint(0, depth)
        value = rng.getrandbits(length) if length else 0
        ivs.append((1 << length) | value)
    return tuple(ivs)


def random_boxes(
    seed: int, count: int, ndim: int, depth: int
) -> List[PackedBox]:
    rng = random.Random(seed)
    return [random_box(rng, ndim, depth) for _ in range(count)]


def pmaximal_piece(p: int, lo: int, hi: int, depth: int) -> int:
    """The maximal dyadic interval around ``p`` inside the gap ``[lo, hi]``.

    ``p`` is a packed interval lying inside the inclusive value range
    ``[lo, hi]`` (the gap between two stored neighbours).  The canonical
    decomposition's pieces are exactly the maximal dyadic intervals
    inside the gap, so the piece containing ``p`` is found directly:
    grow ``p`` parent by parent while it still fits between the
    neighbouring stored values — O(piece length) int steps, no
    materialized decomposition.  The generated B-tree walk computes it
    in closed form; this loop is its reference.
    """
    shift = depth + 1 - p.bit_length()
    size = 1 << shift
    plo = (p << shift) ^ (1 << depth)
    phi = plo + size - 1
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


def reference_gap_box_around(index, comps):
    """``BTreeIndex.gap_box_around`` as the loop over the trie's levels
    it was before the walk was generated: the walk's reference."""
    depth = index.depth
    unit = 1 << depth
    node = index._root
    for level, p in enumerate(comps):
        keys = node.keys
        shift = depth + 1 - p.bit_length()
        lo = (p << shift) ^ unit
        i = bisect_left(keys, lo)
        if i == len(keys) or keys[i] >= lo + (1 << shift):
            piece = pmaximal_piece(
                p,
                keys[i - 1] + 1 if i else 0,
                keys[i] - 1 if i < len(keys) else unit - 1,
                depth,
            )
            tail = (PLAMBDA,) * (len(comps) - level - 1)
            return comps[:level] + (piece,) + tail
        if shift:
            return None
        node = node.children[i]
    return None



def cell_rows(cell: PackedBox, rows, depth: int) -> list:
    """The rows inside the packed ``cell``: the per-level filter the cell
    indexes ran before they kept a Morton-ordered key column."""
    unit = 1 << depth
    return [
        r for r in rows
        if all(
            (unit | v) >> (depth + 1 - p.bit_length()) == p
            for p, v in zip(cell, r)
        )
    ]


def reference_cell_gap_box_around(index, comps):
    """``DyadicTreeIndex`` / ``KDTreeIndex.gap_box_around`` as the
    descents they were before the Morton key column: re-filter the rows
    at every level, stop at the first empty cell.  The reference."""
    from repro.indexes.dyadic_index import DyadicTreeIndex

    rows, depth = index.relation.rows(), index.depth
    if isinstance(index, DyadicTreeIndex):
        # Lock-step cells, down to the shortest component.
        for level in range(min(p.bit_length() for p in comps)):
            cell = tuple([p >> (p.bit_length() - 1 - level) for p in comps])
            rows = cell_rows(cell, rows, depth)
            if not rows:
                return cell
        return None
    # Round-robin halving, until the next axis to halve would cut comps.
    cell: PackedBox = (PLAMBDA,) * index.arity
    level = 0
    while True:
        rows = cell_rows(cell, rows, depth)
        if not rows:
            return cell
        axis = level % index.arity
        spare = comps[axis].bit_length() - cell[axis].bit_length()
        if spare == 0:
            return None
        cell = cell[:axis] + (comps[axis] >> (spare - 1),) + cell[axis + 1:]
        level += 1

def check_container_answer(found, probe, boxes) -> None:
    """What a ``container`` / ``gap_box_around`` answer must be: ``None``
    iff no box of ``boxes`` (packed) contains ``probe``, otherwise a box
    that contains ``probe`` and lies inside one of them."""
    if found is None:
        assert not any(box_contains(b, probe) for b in boxes)
    else:
        assert box_contains(found, probe)
        assert any(box_contains(b, found) for b in boxes)


def frontier_level(frontier, box, level) -> list:
    """Sync ``frontier`` = (frozen, levels, ids) to ``box[:level]`` the
    way the resume loop does — unfreeze where ``box`` leaves the frozen
    prefix, freeze its components below ``level`` — and return the node
    list of ``level``.  A fresh frontier over ``tree`` is
    ``([], [[tree._root]], [None])``."""
    from repro.core.dyadic_tree import frontier_children

    frozen, levels, ids = frontier
    j = 0
    while j < min(len(frozen), level) and frozen[j] == box[j]:
        j += 1
    del frozen[j:], levels[j + 1:], ids[j + 1:]
    while j < level:
        levels.append(frontier_children(levels[j], box[j]))
        frozen.append(box[j])
        ids.append(None)
        j += 1
    return levels[level]


# -- the Tetris loops the kernel is measured against ---------------------------
#
# ``src/`` runs one Tetris loop, the generated kernel.  Below are the
# loops it answers to: Algorithms 1 and 2 as printed (the paper-parity
# reference, restarting from the universe after every output) and the
# frontier-resuming loop interpreted (the kernel's step-for-step
# reference), with the engine readings only they need.


def is_ordered_pair(w1: PackedBox, w2: PackedBox, axis: int) -> bool:
    """Definition 4.3's staircase shape: the pair are siblings on
    ``axis`` and λ on every dimension after it."""
    for j in range(axis + 1, len(w1)):
        if w1[j] != 1 or w2[j] != 1:
            return False
    return (w1[axis] ^ w2[axis]) == 1


def record_resolution(stats, axis: int, ordered: bool) -> None:
    """Count one resolution the way the kernel's flushed locals do."""
    stats.resolutions += 1
    if ordered:
        stats.ordered_resolutions += 1
    stats.by_axis[axis] = stats.by_axis.get(axis, 0) + 1


def universe(engine) -> PackedBox:
    """⟨λ,...,λ⟩ in the engine's dimensionality."""
    return (PLAMBDA,) * engine.ndim


def is_unit_box(engine, box: PackedBox) -> bool:
    """Every axis at its unit level, under the engine's dimension specs
    (generalized spaces only)."""
    return all(spec.is_unit(box, i) for i, spec in enumerate(engine.dims))


def first_thick_axis(engine, box: PackedBox) -> int:
    """The split axis of a generalized-space box: its first non-unit axis."""
    for i, spec in enumerate(engine.dims):
        if not spec.is_unit(box, i):
            return i
    raise ValueError("unit boxes cannot be split")


def initial_cursor(engine, box: PackedBox) -> int:
    """First non-unit axis of a uniform-space box (``ndim`` if unit)."""
    unit = 1 << engine.depth
    cursor = 0
    while cursor < engine.ndim and box[cursor] >= unit:
        cursor += 1
    return cursor


def emit(engine, unit_internal: PackedBox):
    """An internal (SAO-order) unit box in the run's output form."""
    from repro.core.intervals import pvalue

    external = engine.to_external(unit_internal)
    if engine._return_boxes:
        return external
    if engine.dims is None:
        unit = 1 << engine.depth
        return tuple(p ^ unit for p in external)
    return tuple(pvalue(p) for p in external)


def reference_skeleton(engine, target: PackedBox) -> Tuple[bool, PackedBox]:
    """Algorithm 1 (TetrisSkeleton) on an SAO-order packed target box.

    Returns ``(True, w)`` with ``w ⊇ target`` covered by the knowledge
    base, or ``(False, p)`` with ``p`` an uncovered unit box inside
    ``target``.  Written with an explicit stack so deep recursions (depth
    ``n·d``) never hit the interpreter limit; each frame holds ``[b,
    second_half, axis, w1, stage, child_cursor]`` where ``child_cursor``
    is the halves' first thick axis (uniform spaces).  Every resolvent is
    cached unless ``engine.cache_resolvents`` is off (line 19), and with
    ``engine.proof`` set every resolution appends its ``ProofStep``.
    """
    from repro.core.resolution import resolve_on_axis
    from repro.core.trace import ProofStep

    kb = engine.knowledge_base
    stats = engine.stats
    unit = 1 << engine.depth
    log = None if engine.proof is None else engine.proof.steps.append
    uniform = engine.dims is None
    n = engine.ndim
    stats.skeleton_calls += 1

    stack: list = []
    current: Optional[PackedBox] = target
    cursor = initial_cursor(engine, target) if uniform else 0
    result: Tuple[bool, PackedBox] = (False, target)

    while True:
        if current is not None:
            b = current
            stats.containment_queries += 1
            witness = kb.find_container(b)
            if witness is not None:
                stats.cache_hits += 1
                result = (True, witness)
                current = None
                continue
            if (cursor == n) if uniform else is_unit_box(engine, b):
                result = (False, b)
                current = None
                continue
            axis = cursor if uniform else first_thick_axis(engine, b)
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
        ordered = is_ordered_pair(w1, witness, axis)
        record_resolution(stats, axis, ordered)
        resolvent = resolve_on_axis(w1, witness, axis)
        if log is not None:
            log(ProofStep(w1, witness, axis, resolvent, ordered))
        if engine.cache_resolvents:
            kb.add(resolvent)
        stack.pop()
        result = (True, resolvent)


def oracle_containing(oracle, point: PackedBox) -> List[PackedBox]:
    """Algorithm 2, line 4: every gap box of ``oracle`` containing a
    space-order unit box, by a scan of its box set."""
    return [b for b in oracle.boxes() if box_contains(b, point)]


def reference_run_restarting(engine, oracle, max_outputs):
    """Algorithm 2 as printed: run :func:`reference_skeleton` from the
    universe, and after every uncovered point restart it.

    The point's containing gap boxes (asked of ``oracle``, the on-demand
    source, ``None`` in preloaded runs) are loaded; a point none
    contains is an output, stored as a unit box.  Nothing is tuned: plain
    probes, every resolvent cached, a full root-to-leaf re-descent per
    output — the configuration Theorem D.2's one-pass loop is measured
    against.
    """
    outputs = []
    stats = engine.stats
    kb = engine.knowledge_base
    top = universe(engine)
    covered, witness = reference_skeleton(engine, top)
    while not covered:
        gap_boxes = []
        if oracle is not None:
            stats.oracle_queries += 1
            gap_boxes = [
                engine.to_internal(b) for b in oracle_containing(
                    oracle, engine.to_external(witness)
                )
            ]
        if not gap_boxes:
            outputs.append(emit(engine, witness))
            gap_boxes = [witness]
            if max_outputs is not None and len(outputs) >= max_outputs:
                return outputs
        for box in gap_boxes:
            if kb.add(box):
                stats.boxes_loaded += 1
        covered, witness = reference_skeleton(engine, top)
    return outputs


def reference_oracle_container(engine, oracle, box_internal):
    """Probe ``oracle`` with an internal (SAO-order) box: translate to
    space order and back, counting the probe."""
    engine.stats.oracle_queries += 1
    found = oracle.container(engine.to_external(box_internal))
    return None if found is None else engine.to_internal(found)


def reference_run_resuming(engine, oracle, max_outputs):
    """The frontier-resuming skeleton, interpreted: the reference the
    generated Tetris kernel is pinned to, step for step.

    Structurally a one-pass traversal, but every point where the
    knowledge base is amended is a *resume point*: the stack is left
    in place, the gap or output box is patched in, and the traversal
    continues with that box as the witness.

    ``oracle`` is the on-demand (Reloaded) source, ``None`` when the
    knowledge base already holds every input gap box (or there are
    none).  After a knowledge-base miss on the traversal box ``b`` it
    is asked ``container(b)`` once: a hit is stored and answers ``b``
    without descending; a miss on a unit box makes ``b`` an output; a
    miss on a thick box splits.

    On the dyadic tree over a uniform space the loop probes from a
    traversal frontier it keeps in locals, as the kernel does: levels
    built with ``frontier_children``, every store noted with
    ``frontier_note_add`` and probes answered by ``frontier_probe`` in
    the kernel's walk order.  Any other store, and any generalized
    space, is probed with its own ``find_container``.  With
    ``engine.proof`` set, every resolution appends its ``ProofStep``.
    """
    from repro.core.dyadic_tree import (
        MultilevelDyadicTree,
        frontier_children,
        frontier_note_add,
        frontier_probe,
    )
    from repro.core.trace import ProofStep

    kb = engine.knowledge_base
    find_container = kb.find_container
    kb_add = kb.add
    stats = engine.stats
    unit = 1 << engine.depth
    cache = engine.cache_resolvents
    log = None if engine.proof is None else engine.proof.steps.append
    uniform = engine.dims is None
    n = engine.ndim
    last = n - 1
    outputs = []
    stats.skeleton_calls += 1
    # The traversal frontier: ``frozen`` holds the leading components
    # of the last probed box below its probe level, ``levels[j]`` the
    # tree nodes reachable through prefixes of ``frozen[:j]`` and
    # ``level_ids[j]`` their ids (None until a store needs them).
    frontier = uniform and isinstance(kb, MultilevelDyadicTree)
    if frontier:
        root = kb._root
        frozen = []
        levels = [[root]]
        level_ids = [None]
    # Stores this run has made: a frame's count at its split tells
    # whether its second half may pin the split axis.
    version = 0

    stack = []
    current = universe(engine)
    cursor = initial_cursor(engine, current) if uniform else 0
    # Split axis of the parent when ``current`` is a half whose parent
    # just missed with nothing stored since — collapses that level of
    # the frontier's probe to one exact lookup.
    pinned = None
    witness = current

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
                witness = reference_oracle_container(engine, oracle, b)
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
            if (cursor == n) if uniform else is_unit_box(engine, b):
                # Resume point: no gap box holds the point — an output,
                # stored so the traversal never restarts.
                stats.resumes += 1
                outputs.append(emit(engine, b))
                if max_outputs is not None and len(outputs) >= max_outputs:
                    return outputs
                if kb_add(b):
                    version += 1
                    if frontier:
                        frontier_note_add(root, frozen, levels, level_ids, b)
                stats.boxes_loaded += 1
                witness = b
                continue
            axis = cursor if uniform else first_thick_axis(engine, b)
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
            # The half b2 inherits b's miss: if nothing was stored since
            # the split, its probe can pin the axis too.
            pinned = axis if ver == version else None
            continue
        meet = list(map(max, w1, witness))
        meet[axis] = w1[axis] >> 1
        resolvent = tuple(meet)
        ordered = is_ordered_pair(w1, witness, axis)
        record_resolution(stats, axis, ordered)
        if log is not None:
            log(ProofStep(w1, witness, axis, resolvent, ordered))
        # A resolvent no wider than its frame box can never be probed
        # again — the resuming traversal never revisits a resolved
        # region — so only witnesses that extend beyond the frame earn a
        # slot in A.  (The restarting loop must keep every resolvent:
        # its re-descents depend on it.)
        if cache and resolvent != b and kb_add(resolvent):
            version += 1
            if frontier:
                frontier_note_add(root, frozen, levels, level_ids, resolvent)
        stack.pop()
        witness = resolvent


@contextlib.contextmanager
def interpreted_tetris(loop=reference_run_resuming) -> Iterator[None]:
    """Run every Tetris engine on an interpreted ``loop``: by default
    :func:`reference_run_resuming`, or :func:`reference_run_restarting`
    for Algorithms 1 and 2 as printed.

    ``TetrisEngine.run`` asks ``tetris_kernel`` for its loop; inside
    this block the builder hands back the reference instead, so whole
    pipelines (``join_tetris``, ``execute``) run on it — preload, output
    cap and output form still set up by ``run``.  A context manager
    rather than a fixture so that it can wrap single calls inside
    ``@given`` bodies.  The kernel cache must sit untouched meanwhile —
    were ``run`` ever to bind the builder before this patch lands, the
    parity tests would compare the kernel with itself and pass.
    """
    from repro.engine.codegen import _TETRIS_CACHE

    def reference_kernel(engine, oracle, on_demand, preload=None, *, capped):
        def kernel(engine, oracle, max_outputs):
            return loop(engine, oracle if on_demand else None, max_outputs)

        return kernel

    lookups = _TETRIS_CACHE.hits + _TETRIS_CACHE.misses
    with mock.patch("repro.engine.codegen.tetris_kernel", reference_kernel):
        yield
    assert _TETRIS_CACHE.hits + _TETRIS_CACHE.misses == lookups


#: The Tetris loops parity tests run, by name: the generated kernel
#: ("resume") and Algorithms 1 and 2 as printed ("faithful").
LOOPS = ("resume", "faithful")


def tetris_loop(name: str):
    """The context in which a run takes loop ``name`` of :data:`LOOPS`."""
    if name == "resume":
        return contextlib.nullcontext()
    if name == "faithful":
        return interpreted_tetris(reference_run_restarting)
    raise ValueError(f"unknown Tetris loop {name!r}")


# -- oracles only tests ask for ------------------------------------------------


def box_overlaps(a: PackedBox, b: PackedBox) -> bool:
    """Packed overlap test (every pair of components comparable)."""
    for x, y in zip(a, b):
        shift = y.bit_length() - x.bit_length()
        if shift >= 0:
            if (y >> shift) != x:
                return False
        elif (x >> -shift) != y:
            return False
    return True


def resolve_tuples(w1: PackedBox, w2: PackedBox) -> PackedBox:
    """Resolvent of two packed boxes; raises ``ValueError`` when impossible."""
    from repro.core.resolution import find_resolvable_dimension, resolve_on_axis

    axis = find_resolvable_dimension(w1, w2)
    if axis is None:
        raise ValueError(f"boxes {w1} and {w2} are not resolvable")
    return resolve_on_axis(w1, w2, axis)


def gao_consistent_certificate(boxes, sao, ndim: int, depth: int):
    """A minimal certificate using only GAO-consistent boxes (Def B.1).

    Restricting to σ-consistent boxes models the Minesweeper setting of
    [50]; Proposition B.6's gap — |C| ≪ |C_gao| on some instances — is
    observable by comparing this against ``minimal_certificate``.
    Raises when the σ-consistent subset does not cover the full union.
    """
    from repro.core.certificates import (
        covers,
        is_gao_consistent,
        minimal_certificate,
    )

    boxes = list(boxes)
    consistent = [b for b in boxes if is_gao_consistent(b, sao, depth)]
    for box in boxes:
        if not covers(consistent, box, ndim, depth):
            raise ValueError(
                "the GAO-consistent boxes do not cover the union; no "
                "σ-consistent certificate exists for this box set"
            )
    return minimal_certificate(consistent, ndim, depth)


def hypergraph_of_boxes(boxes, attrs: Sequence[str]):
    """Supporting hypergraph H(A) of a packed box set (Definition 3.8):
    one edge per box support, the attributes whose component is not
    λ (packed ``1``)."""
    from repro.relational.hypergraph import Hypergraph

    edges = set()
    for box in boxes:
        support = frozenset(attrs[i] for i, p in enumerate(box) if p > 1)
        if support:
            edges.add(support)
    return Hypergraph(attrs, [tuple(e) for e in edges])


def induced_width(hypergraph, order: Sequence[str]) -> int:
    """Induced width of an elimination order (Definition E.5).

    The order lists attributes as ``(A_1, ..., A_n)``; vertices are
    eliminated from the *end* (A_n first), matching the paper's GAO
    convention.  Returns ``max_k |support(A_k)| - 1``.
    """
    supports = hypergraph.elimination_supports(order)
    return max(len(s) for s in supports.values()) - 1 if supports else 0


def relation_from_rows(name, attrs, rows, dictionary, domain=None):
    """Encode raw rows through the dictionary into a Relation.

    When ``domain`` is omitted the caller must finish feeding the
    dictionary first (the domain is sized to the dictionary at call time).
    """
    from repro.relational.relation import Relation
    from repro.relational.schema import RelationSchema

    encoded = dictionary.encode_rows(rows)
    dom = domain if domain is not None else dictionary.domain()
    return Relation(RelationSchema(name, tuple(attrs)), encoded, dom)


def gap_boxes_containing(index, point: Sequence[int]) -> List[PackedBox]:
    """The gap box of an index around a probe point (values in its
    ``attr_order``), or ``[]`` for a tuple of the relation: the unit-box
    case of ``gap_box_around``."""
    unit = 1 << index.depth
    box = index.gap_box_around(tuple([unit | v for v in point]))
    return [] if box is None else [box]


# -- the unfused hash cascade ---------------------------------------------------


def reference_hash_source(atom_specs, variables) -> str:
    """The hash cascade as emitted before check stages fused into the
    lookup binding their last attribute: every check is an
    ``if key in s{k}`` clause.  Frozen as the fused emitter's reference
    (``tests/joins/test_hash_fusion.py``); over sorted relations both
    yield the same rows in the same order."""
    from repro.engine.codegen import _scalar_or_tuple, _tuple_expr

    first_attrs = list(atom_specs[0][1])
    acc = list(first_attrs)
    # Per acc position: the expression that reads it, the stage binding it.
    ref = [f"x0[{j}]" for j in range(len(first_attrs))]
    bound_at = [0] * len(first_attrs)
    lines: List[str] = ["def kernel(rels, block_rows):"]
    w = lines.append
    w("    E = ()")
    #: Per stage: (clause, table lookup when it adds exactly one
    #: attribute, the stages its key reads).
    stages: List[Tuple[str, Optional[str], set]] = [
        ("for x0 in rels[0]", None, set())
    ]
    for s, (_name, attrs) in enumerate(atom_specs[1:], start=1):
        right = list(attrs)
        common = [a for a in acc if a in right]
        new = [a for a in right if a not in acc]
        rkey = _scalar_or_tuple([f"r[{right.index(a)}]" for a in common])
        lkey = _scalar_or_tuple([ref[acc.index(a)] for a in common])
        val = _scalar_or_tuple([f"r[{right.index(a)}]" for a in new])
        if not new:
            keys = (
                f"set(rels[{s}])" if common == right and len(right) > 1
                else f"{{{rkey} for r in rels[{s}]}}"
            )
            w(f"    s{s} = {keys}")
            clause, source = f"if {lkey} in s{s}", None
        elif common:
            w(f"    t{s} = {{}}")
            w(f"    for r in rels[{s}]:")
            w(f"        k = {rkey}")
            w(f"        l = t{s}.get(k)")
            w("        if l is None:")
            w(f"            t{s}[k] = [{val}]")
            w("        else:")
            w(f"            l.append({val})")
            w(f"    g{s} = t{s}.get")
            source = f"g{s}({lkey}, E)"
        else:
            # Disconnected hypergraph: a genuine cross-product stage.
            w(f"    a{s} = [{val} for r in rels[{s}]]")
            source = f"a{s}"
        if new:
            clause = f"for x{s} in {source}"
        key_levels = {bound_at[acc.index(a)] for a in common}
        stages.append((clause, source if len(new) == 1 else None, key_levels))
        acc.extend(new)
        bound_at.extend([s] * len(new))
        ref.extend(
            [f"x{s}"] if len(new) == 1
            else [f"x{s}[{j}]" for j in range(len(new))]
        )
    # Stages tail.. are the product suffix.
    tail = len(stages)
    while tail > 1 and stages[tail - 1][1] is not None and all(
        level < tail - 1
        for _clause, _source, levels in stages[tail - 1:]
        for level in levels
    ):
        tail -= 1
    clauses = " ".join(clause for clause, _s, _l in stages[:tail])
    if tail == len(stages):
        row = _tuple_expr([ref[acc.index(v)] for v in variables])
        w(f"    rows = ({row} {clauses})")
    else:
        args = [
            stages[bound_at[i]][1] if bound_at[i] >= tail else f"({ref[i]},)"
            for i in map(acc.index, variables)
        ]
        w("    rows = chain.from_iterable(")
        w(f"        product({', '.join(args)}) {clauses})")
    w("    while block := list(islice(rows, block_rows)):")
    w("        yield block")
    return "\n".join(lines) + "\n"


def reference_hash_kernel(atom_specs, variables):
    """:func:`reference_hash_source`, compiled as the product's kernels are."""
    from repro.engine.codegen import _JOIN_GLOBALS, _compile

    return _compile(
        reference_hash_source(atom_specs, tuple(variables)), _JOIN_GLOBALS
    )
