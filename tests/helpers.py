"""Shared test utilities: brute-force references and random generators."""

from __future__ import annotations

import contextlib
import itertools
import random
from bisect import bisect_left
from typing import Iterable, Iterator, List, Sequence, Tuple
from unittest import mock

from repro.core.boxes import PackedBox
from repro.core.intervals import PLAMBDA


def interval_range(p: int, depth: int) -> range:
    """Integer range covered by a packed dyadic interval on a depth-d
    domain — computed from the bitstring, independently of
    ``repro.core.intervals``."""
    length = p.bit_length() - 1
    width = 1 << (depth - length)
    lo = (p - (1 << length)) * width
    return range(lo, lo + width)


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
    from repro.core.boxes import box_contains

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


@contextlib.contextmanager
def interpreted_tetris() -> Iterator[None]:
    """Run Tetris resume mode on the interpreted reference loop.

    ``TetrisEngine.run`` takes ``_run_resuming`` exactly when
    ``tetris_kernel`` declines the engine's shape; inside this block it
    declines every shape.  A context manager rather than a fixture so
    that it can wrap single calls inside ``@given`` bodies.  The kernel
    cache must sit untouched meanwhile — were ``run`` ever to bind the
    builder before this patch lands, the parity tests would compare the
    kernel with itself and pass.
    """
    from repro.engine.codegen import _TETRIS_CACHE

    lookups = _TETRIS_CACHE.hits + _TETRIS_CACHE.misses
    with mock.patch(
        "repro.engine.codegen.tetris_kernel", lambda *args, **kwargs: None
    ):
        yield
    assert _TETRIS_CACHE.hits + _TETRIS_CACHE.misses == lookups
