"""Tests for the multilevel dyadic tree knowledge-base store (packed).

The writers are generated per dimensionality; the hand-written per-level
loops they replaced stay here as the reference (``LoopTree``): the same
return counts, size, iteration order and mask at every node.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boxes import box_contains, pbox_from_bits
from repro.core.intervals import PLAMBDA
from repro.core.dyadic_tree import (
    MultilevelDyadicTree,
    _MASK,
    frontier_note_add,
    frontier_probe,
)
from tests.helpers import frontier_level, random_box, random_boxes

DEPTH = 4


def ivs(max_depth=DEPTH):
    # All packed marker-bit intervals of length <= max_depth.
    return st.integers(1, (1 << (max_depth + 1)) - 1)


def box_tuples(ndim=2):
    return st.tuples(*([ivs()] * ndim))


class TestBasics:
    def test_empty(self):
        tree = MultilevelDyadicTree(2)
        assert len(tree) == 0
        assert tree.find_container((PLAMBDA,) * 2) is None

    def test_bad_ndim(self):
        with pytest.raises(ValueError):
            MultilevelDyadicTree(0)

    def test_add_and_contains(self):
        tree = MultilevelDyadicTree(2)
        b = pbox_from_bits("10", "0")
        assert tree.add(b)
        assert b in tree
        assert len(tree) == 1

    def test_duplicate_add(self):
        tree = MultilevelDyadicTree(2)
        b = pbox_from_bits("10", "0")
        assert tree.add(b)
        assert not tree.add(b)
        assert len(tree) == 1

    def test_arity_mismatch(self):
        tree = MultilevelDyadicTree(2)
        with pytest.raises(ValueError):
            tree.add(pbox_from_bits("1"))

    def test_add_many_refuses_wrong_arity(self):
        """``add_many`` raises ``add``'s error and stores nothing of the
        offending box; the boxes before it stay stored and counted."""
        tree = MultilevelDyadicTree(3)
        with pytest.raises(ValueError, match="box has 4 components, store has 3"):
            tree.add_many([(1, 2, 3, 4)])
        assert (len(tree), list(tree)) == (0, [])
        assert tree._root == {_MASK: 0}
        tree = MultilevelDyadicTree(2)
        with pytest.raises(ValueError, match="box has 3 components, store has 2"):
            tree.add_many([(2, 3, 5)])
        assert tree.find_container((2, 3)) is None
        with pytest.raises(ValueError, match="box has 1 components, store has 2"):
            tree.add_many([(2, 3), (2,), (4, 5)])
        assert (len(tree), list(tree)) == (1, [(2, 3)])
        assert tree.find_container((2, 3)) == (2, 3)

    def test_not_contains_prefix(self):
        tree = MultilevelDyadicTree(1)
        tree.add(pbox_from_bits("10"))
        assert pbox_from_bits("1") not in tree

    def test_iteration(self):
        tree = MultilevelDyadicTree(2)
        items = {
            pbox_from_bits("10", "0"),
            pbox_from_bits("", "11"),
            pbox_from_bits("10", ""),
        }
        for b in items:
            tree.add(b)
        assert set(tree) == items


class TestFindContainer:
    def test_finds_exact(self):
        tree = MultilevelDyadicTree(2)
        b = pbox_from_bits("10", "0")
        tree.add(b)
        assert tree.find_container(b) == b

    def test_finds_strict_container(self):
        tree = MultilevelDyadicTree(2)
        big = pbox_from_bits("1", "")
        tree.add(big)
        small = pbox_from_bits("101", "0011")
        assert tree.find_container(small) == big

    def test_lambda_component_matches_everything(self):
        tree = MultilevelDyadicTree(3)
        b = pbox_from_bits("", "01", "")
        tree.add(b)
        q = pbox_from_bits("1111", "0110", "0000")
        assert tree.find_container(q) == b

    def test_no_false_positive(self):
        tree = MultilevelDyadicTree(2)
        tree.add(pbox_from_bits("10", "0"))
        assert tree.find_container(pbox_from_bits("11", "0")) is None
        assert tree.find_container(pbox_from_bits("1", "0")) is None

    @settings(max_examples=200)
    @given(st.lists(box_tuples(), max_size=12), box_tuples())
    def test_matches_linear_scan(self, stored, query):
        tree = MultilevelDyadicTree(2)
        for b in stored:
            tree.add(b)
        expected = {b for b in stored if box_contains(b, query)}
        found = tree.find_container(query)
        if expected:
            assert found in expected
        else:
            assert found is None

    def test_randomized_bulk(self):
        rng = random.Random(7)
        stored = random_boxes(1, 200, 3, 5)
        tree = MultilevelDyadicTree(3)
        for b in stored:
            tree.add(b)
        for _ in range(100):
            q = tuple(
                (1 << 5) | rng.getrandbits(5) for _ in range(3)
            )
            expected = {b for b in stored if box_contains(b, q)}
            found = tree.find_container(q)
            assert found in expected if expected else found is None


# -- the generated writers against the loops they replaced -------------------------


class LoopTree(MultilevelDyadicTree):
    """The hand-written per-level ``add`` / ``add_many``, as they were
    before the writers were generated."""

    __slots__ = ()

    def add(self, box):
        if len(box) != self.ndim:
            raise ValueError(
                f"box has {len(box)} components, store has {self.ndim}"
            )
        node = self._root
        last = self.ndim - 1
        for level in range(last):
            comp = box[level]
            child = node.get(comp)
            if child is None:
                child = {_MASK: 0}
                node[comp] = child
                node[_MASK] |= 1 << (comp.bit_length() - 1)
            node = child
        comp = box[last]
        if comp in node:
            return False
        node[comp] = box
        node[_MASK] |= 1 << (comp.bit_length() - 1)
        self._size += 1
        return True

    def add_many(self, boxes):
        last = self.ndim - 1
        added = 0
        prev = None
        path = [self._root] * (last + 1)
        for box in boxes:
            j = 0
            if prev is not None:
                while j < last and box[j] == prev[j]:
                    j += 1
            node = path[j]
            for level in range(j, last):
                comp = box[level]
                child = node.get(comp)
                if child is None:
                    child = {_MASK: 0}
                    node[comp] = child
                    node[_MASK] |= 1 << (comp.bit_length() - 1)
                node = child
                path[level + 1] = node
            comp = box[last]
            if comp not in node:
                node[comp] = box
                node[_MASK] |= 1 << (comp.bit_length() - 1)
                self._size += 1
                added += 1
            prev = box
        return added


def layout(node, levels):
    """Every node's items in insertion order, length masks included."""
    if levels == 1:
        return list(node.items())
    return [
        (key, value if key == _MASK else layout(value, levels - 1))
        for key, value in node.items()
    ]


def unit_inside(box, depth, rng):
    """A unit box (one point) inside ``box``."""
    out = []
    for comp in box:
        free = depth + 1 - comp.bit_length()
        out.append((comp << free) | rng.getrandbits(free))
    return tuple(out)


@st.composite
def writer_scripts(draw):
    """Interleaved add / add_many on one dimensionality, past
    the walkers' unroll cap: duplicates, λ components, the universe box
    and runs of boxes sharing a prefix."""
    ndim = draw(st.integers(1, 10))
    depth = draw(st.integers(0, 5))
    comp = st.integers(PLAMBDA, (2 << depth) - 1)
    pool = draw(st.lists(st.tuples(*[comp] * ndim), min_size=1, max_size=8))
    pool.append((PLAMBDA,) * ndim)
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("add", "add_many")))
        if kind != "add_many":
            ops.append((kind, draw(st.sampled_from(pool))))
            continue
        base = draw(st.sampled_from(pool))
        keep = draw(st.integers(0, ndim))
        tails = draw(st.lists(st.tuples(*[comp] * (ndim - keep)), max_size=6))
        batch = [base[:keep] + tail for tail in tails]
        batch += draw(st.lists(st.sampled_from(pool), max_size=4))
        pool += batch
        ops.append((kind, batch))
    return ndim, depth, ops


@settings(max_examples=200, deadline=None)
@given(script=writer_scripts(), rng=st.randoms(use_true_random=False))
def test_writers_match_the_loops_they_replaced(script, rng):
    ndim, depth, ops = script
    tree, ref = MultilevelDyadicTree(ndim), LoopTree(ndim)
    for kind, arg in ops:
        assert getattr(tree, kind)(arg) == getattr(ref, kind)(arg)
        assert len(tree) == len(ref)
        assert list(tree) == list(ref)
        assert layout(tree._root, ndim) == layout(ref._root, ndim)
    for _ in range(12):
        probe = random_box(rng, ndim, depth)
        if rng.random() < 0.5:
            probe = unit_inside(probe, depth, rng)
        assert tree.find_container(probe) == ref.find_container(probe)


# -- the traversal frontier's helpers -------------------------------------------


def traversal_probe(point, cursor, depth, rng):
    """The box the traversal probes at ``cursor`` on its way to ``point``:
    unit components before the cursor, a strict prefix at it, λ after."""
    if cursor == len(point):
        return point
    thick = point[cursor] >> rng.randint(1, depth)
    return point[:cursor] + (thick,) + (PLAMBDA,) * (len(point) - cursor - 1)


@settings(max_examples=200, deadline=None)
@given(script=writer_scripts(), rng=st.randoms(use_true_random=False))
def test_frontier_probe_agrees_with_find_container(script, rng):
    """A frontier kept as the resume loop keeps it stays exact under
    interleaved writes.  Before and after each write it is synced around
    a traversal-shaped probe of a box the step writes, so only
    ``frontier_note_add`` — called per new box, as the loop calls it
    after each store — can tell it about that box.  ``frontier_probe``
    must find a container iff ``find_container`` does, without a pin and
    with the pin the loop would hold (the parent missed), and whatever
    it returns must contain the probe."""
    ndim, depth, ops = script
    tree = MultilevelDyadicTree(ndim)
    frontier = ([], [[tree._root]], [None])
    pool = [(PLAMBDA,) * ndim] + [arg for kind, arg in ops if kind != "add_many"]
    pool += [box for kind, arg in ops if kind == "add_many" for box in arg]

    def check(probe, cursor):
        level = min(cursor, ndim - 1)
        want = tree.find_container(probe) is not None
        pins = [None]
        if probe[level] > PLAMBDA:
            parent = probe[:level] + (probe[level] >> 1,) + probe[level + 1:]
            if tree.find_container(parent) is None:
                pins.append(level)
        for pinned in pins:
            nodes = frontier_level(frontier, probe, level)
            found = frontier_probe(nodes, probe, level, pinned)
            assert (found is not None) == want, (probe, pinned)
            assert found is None or (found in tree and box_contains(found, probe))

    for kind, arg in ops:
        target = arg if kind != "add_many" else (rng.choice(arg) if arg else None)
        probes = []
        for box in [rng.choice(pool)] + ([target] if target else []):
            cursor = rng.randint(0, ndim) if depth else ndim
            point = unit_inside(box, depth, rng)
            probes.append((traversal_probe(point, cursor, depth, rng), cursor))
        for probe, cursor in probes:
            check(probe, cursor)
        new = []
        if kind == "add_many":
            new = [box for box in dict.fromkeys(arg) if box not in tree]
            tree.add_many(arg)
        else:
            new = [arg] if tree.add(arg) else []
        for box in new:
            frontier_note_add(tree._root, *frontier, box)
        # The frontier is still frozen around the written box's probe:
        # re-probe it first, with no re-sync.
        for probe, cursor in reversed(probes):
            check(probe, cursor)
