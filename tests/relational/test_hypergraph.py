"""Tests for hypergraph structure analysis: GYO, widths, decompositions."""

import pytest

from repro.core.boxes import pbox_from_bits
from repro.relational.hypergraph import Hypergraph, gao_for_acyclic
from repro.relational.query import (
    clique_query,
    cycle_query,
    path_query,
    star_query,
    triangle_query,
)
from tests.helpers import hypergraph_of_boxes, induced_width


def h_of(query):
    return Hypergraph.of_query(query)


class TestConstruction:
    def test_of_query(self):
        h = h_of(triangle_query())
        assert set(h.vertices) == {"A", "B", "C"}
        assert len(h.edges) == 3

    def test_bad_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(("A",), [("A", "B")])

    def test_of_boxes(self):
        boxes = [pbox_from_bits("1", "", "0"), pbox_from_bits("", "1", "")]
        h = hypergraph_of_boxes(boxes, ("A", "B", "C"))
        assert frozenset({"A", "C"}) in h.edges
        assert frozenset({"B"}) in h.edges


class TestAcyclicity:
    def test_path_is_alpha_acyclic(self):
        assert h_of(path_query(4)).is_alpha_acyclic()

    def test_star_is_alpha_acyclic(self):
        assert h_of(star_query(3)).is_alpha_acyclic()

    def test_triangle_not_acyclic(self):
        assert not h_of(triangle_query()).is_alpha_acyclic()

    def test_cycle_not_acyclic(self):
        assert not h_of(cycle_query(4)).is_alpha_acyclic()

    def test_triangle_with_covering_edge_is_acyclic(self):
        # Adding the edge {A,B,C} makes the triangle α-acyclic.
        h = Hypergraph(
            ("A", "B", "C"),
            [("A", "B"), ("B", "C"), ("A", "C"), ("A", "B", "C")],
        )
        assert h.is_alpha_acyclic()
        # ... but not β-acyclic (the sub-hypergraph without the big edge
        # is the triangle).
        assert not h.is_beta_acyclic()

    def test_path_is_beta_acyclic(self):
        assert h_of(path_query(3)).is_beta_acyclic()

    def test_gao_for_acyclic_path(self):
        gao = gao_for_acyclic(h_of(path_query(3)))
        assert sorted(gao) == ["A0", "A1", "A2", "A3"]

    def test_gao_for_cyclic_raises(self):
        with pytest.raises(ValueError):
            gao_for_acyclic(h_of(triangle_query()))


class TestWidths:
    def test_path_treewidth_1(self):
        width, order = h_of(path_query(5)).treewidth()
        assert width == 1
        assert induced_width(h_of(path_query(5)), order) == 1

    def test_star_treewidth_1(self):
        width, _ = h_of(star_query(4)).treewidth()
        assert width == 1

    def test_triangle_treewidth_2(self):
        width, order = h_of(triangle_query()).treewidth()
        assert width == 2
        assert induced_width(h_of(triangle_query()), order) == 2

    def test_cycle_treewidth_2(self):
        for k in (4, 5, 6):
            width, order = h_of(cycle_query(k)).treewidth()
            assert width == 2, k
            assert induced_width(h_of(cycle_query(k)), order) == 2

    def test_clique_treewidth(self):
        for n in (3, 4, 5):
            width, _ = h_of(clique_query(n)).treewidth()
            assert width == n - 1

    def test_greedy_upper_bounds_exact(self):
        for q in (path_query(4), cycle_query(5), clique_query(4)):
            h = h_of(q)
            exact, _ = h.treewidth_exact()
            greedy, order = h.treewidth_greedy()
            assert greedy >= exact
            assert induced_width(h, order) == greedy

    def test_induced_width_bad_order(self):
        with pytest.raises(ValueError):
            induced_width(h_of(triangle_query()), ("A", "B"))

    def test_elimination_supports_triangle(self):
        h = h_of(triangle_query())
        supports = h.elimination_supports(("A", "B", "C"))
        # Eliminating C first: support(C) = {A,B,C}; then B: {A,B}; A: {A}.
        assert supports["C"] == frozenset({"A", "B", "C"})
        assert supports["B"] == frozenset({"A", "B"})
        assert supports["A"] == frozenset({"A"})


class TestTreeDecomposition:
    def test_validates_on_standard_queries(self):
        for q in (
            path_query(4),
            star_query(3),
            triangle_query(),
            cycle_query(5),
            clique_query(4),
        ):
            h = h_of(q)
            td = h.tree_decomposition()
            td.validate()

    def test_width_matches_treewidth(self):
        h = h_of(cycle_query(5))
        width, order = h.treewidth()
        td = h.tree_decomposition(order)
        assert td.width == width

    def test_decomposition_from_explicit_order(self):
        h = h_of(triangle_query())
        td = h.tree_decomposition(("A", "B", "C"))
        td.validate()
        assert td.width == 2
