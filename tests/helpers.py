"""Shared test utilities: brute-force references and random generators."""

from __future__ import annotations

import contextlib
import itertools
import random
from bisect import bisect_left
from typing import Iterable, Iterator, List, Sequence, Tuple
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
    from repro.core.resolution import is_ordered_pair
    from repro.core.trace import ProofStep

    kb = engine.knowledge_base
    find_container = kb.find_container
    kb_add = kb.add
    stats = engine.stats
    unit = engine._unit_marker
    cache = engine.cache_resolvents
    record = stats.record
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
    current = engine._universe
    cursor = engine._initial_cursor(current) if uniform else 0
    # Split axis of the parent when ``current`` is a half whose parent
    # just missed with nothing stored since — collapses that level of
    # the frontier's probe to one exact lookup.
    pinned = None
    witness = engine._universe

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
            if (cursor == n) if uniform else engine._is_unit_box(b):
                # Resume point: no gap box holds the point — an output,
                # stored so the traversal never restarts.
                stats.resumes += 1
                outputs.append(engine._emit(b))
                if max_outputs is not None and len(outputs) >= max_outputs:
                    return outputs
                if kb_add(b):
                    version += 1
                    if frontier:
                        frontier_note_add(root, frozen, levels, level_ids, b)
                stats.boxes_loaded += 1
                witness = b
                continue
            axis = cursor if uniform else engine._first_thick_generalized(b)
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
        record(axis, ordered)
        if log is not None:
            log(ProofStep(w1, witness, axis, resolvent, ordered))
        # A resolvent no wider than its frame box can never be probed
        # again — the resuming traversal never revisits a resolved
        # region — so only witnesses that extend beyond the frame earn a
        # slot in A.  (The restarting mode must keep every resolvent:
        # its re-descents depend on it.)
        if cache and resolvent != b and kb_add(resolvent):
            version += 1
            if frontier:
                frontier_note_add(root, frozen, levels, level_ids, resolvent)
        stack.pop()
        witness = resolvent


@contextlib.contextmanager
def interpreted_tetris() -> Iterator[None]:
    """Run Tetris resume mode on :func:`reference_run_resuming`.

    ``TetrisEngine.run`` asks ``tetris_kernel`` for its loop; inside
    this block the builder hands back the reference instead, so whole
    pipelines (``join_tetris``, ``execute``) run on it.  A context
    manager rather than a fixture so that it can wrap single calls
    inside ``@given`` bodies.  The kernel cache must sit untouched
    meanwhile — were ``run`` ever to bind the builder before this patch
    lands, the parity tests would compare the kernel with itself and
    pass.
    """
    from repro.engine.codegen import _TETRIS_CACHE

    def reference_kernel(engine, oracle, on_demand, preload=None, *, capped):
        def kernel(engine, oracle, max_outputs):
            return reference_run_resuming(
                engine, oracle if on_demand else None, max_outputs
            )

        return kernel

    lookups = _TETRIS_CACHE.hits + _TETRIS_CACHE.misses
    with mock.patch("repro.engine.codegen.tetris_kernel", reference_kernel):
        yield
    assert _TETRIS_CACHE.hits + _TETRIS_CACHE.misses == lookups
