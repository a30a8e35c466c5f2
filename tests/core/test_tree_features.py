"""The dyadic tree's probes, which agree with a linear scan, and the
traversal frontier kept by the resume loop (``frontier_children`` /
``frontier_note_add`` / ``frontier_probe``) under writes.  The frontier's
hypothesis property is in ``test_dyadic_tree.py``."""

import random

import pytest

from repro.core.boxes import box_contains
from repro.core.dyadic_tree import (
    MultilevelDyadicTree,
    frontier_note_add,
    frontier_probe,
)
from repro.core.stores import ListStore
from tests.helpers import frontier_level, random_boxes


def tree_of(boxes, ndim):
    t = MultilevelDyadicTree(ndim)
    for b in boxes:
        t.add(b)
    return t


def unit_points(rng, count, ndim, depth):
    return [
        tuple((1 << depth) | rng.getrandbits(depth) for _ in range(ndim))
        for _ in range(count)
    ]


class TestProbeVariants:
    @pytest.mark.parametrize("ndim", [1, 2, 3, 4, 5])
    def test_find_container_matches_liststore(self, ndim):
        boxes = random_boxes(ndim, 60, ndim, 4)
        tree = tree_of(boxes, ndim)
        ref = ListStore(ndim)
        for b in boxes:
            ref.add(b)
        rng = random.Random(7)
        for p in unit_points(rng, 80, ndim, 4):
            got = tree.find_container(p)
            expected = ref.find_container(p)
            assert (got is None) == (expected is None)
            if got is not None:
                assert box_contains(got, p)


class TestTraversalFrontier:
    """A frontier as the resume loop keeps it: synced to the probe's
    frozen prefix, told of each new box by ``frontier_note_add``."""

    @staticmethod
    def fresh(tree):
        return ([], [[tree._root]], [None])

    @staticmethod
    def probe(tree, frontier, box, cursor):
        level = min(cursor, tree.ndim - 1)
        return frontier_probe(frontier_level(frontier, box, level), box, level, None)

    @staticmethod
    def add(tree, frontier, box):
        if tree.add(box):
            frontier_note_add(tree._root, *frontier, box)

    def test_probe_matches_plain_find_under_mutation(self):
        ndim, depth = 3, 4
        rng = random.Random(13)
        boxes = random_boxes(21, 30, ndim, depth)
        tree = tree_of(boxes[:10], ndim)
        frontier = self.fresh(tree)
        extra = iter(boxes[10:])
        for step in range(200):
            # Random traversal-shaped probe: unit prefix, partial comp,
            # λ tail.
            cursor = rng.randrange(ndim + 1)
            comps = []
            for i in range(ndim):
                if i < cursor:
                    comps.append((1 << depth) | rng.getrandbits(depth))
                elif i == cursor:
                    ln = rng.randrange(depth + 1)
                    comps.append((1 << ln) | rng.getrandbits(ln))
                else:
                    comps.append(1)
            box = tuple(comps)
            got = self.probe(tree, frontier, box, cursor)
            expected = tree.find_container(box)
            assert (got is None) == (expected is None), step
            if got is not None:
                assert box_contains(got, box)
            if step % 5 == 0:
                nxt = next(extra, None)
                if nxt is not None:
                    # frontier_note_add must keep the frontier fresh.
                    self.add(tree, frontier, nxt)

    def test_frontier_sees_boxes_added_mid_descent(self):
        tree = MultilevelDyadicTree(2)
        frontier = self.fresh(tree)
        unit = 1 << 3
        probe = (unit | 5, (1 << 2) | 1)
        assert self.probe(tree, frontier, probe, 1) is None
        # The containing box arrives after comp 0 was frozen.
        self.add(tree, frontier, (unit | 5, 1))
        assert self.probe(tree, frontier, probe, 1) == (unit | 5, 1)

