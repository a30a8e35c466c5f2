"""Tests for AGM bounds, fractional edge covers, and fhtw."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.agm import (
    _packing_simplex,
    agm_bound,
    agm_from_sizes,
    agm_per_bag,
    bag_cover_number,
    fhtw,
    fractional_edge_cover,
    fractional_edge_cover_number,
)
from repro.engine.stats import QueryShape
from repro.relational.hypergraph import Hypergraph
from repro.relational.query import (
    Database,
    clique_query,
    cycle_query,
    path_query,
    star_query,
    triangle_query,
)
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema


def db_for(query, tuples_by_name, depth=4):
    rels = []
    for atom in query.atoms:
        rels.append(
            Relation(atom, tuples_by_name[atom.name], Domain(depth))
        )
    return Database(rels)


class TestFractionalEdgeCover:
    def test_triangle_rho_star(self):
        h = Hypergraph.of_query(triangle_query())
        assert fractional_edge_cover_number(h) == pytest.approx(1.5)

    def test_path_rho_star(self):
        # P_2: two edges sharing a vertex; each edge must get weight 1
        # to cover its endpoint, so ρ* = 2.
        h = Hypergraph.of_query(path_query(2))
        assert fractional_edge_cover_number(h) == pytest.approx(2.0)

    def test_clique4_rho_star(self):
        # K_n with binary edges: ρ* = n/2.
        h = Hypergraph.of_query(clique_query(4))
        assert fractional_edge_cover_number(h) == pytest.approx(2.0)

    def test_cycle5_rho_star(self):
        h = Hypergraph.of_query(cycle_query(5))
        value, x = fractional_edge_cover(h.vertices, h.edges)
        assert value == pytest.approx(2.5)
        assert x == pytest.approx((0.5,) * 5)

    def test_uncoverable_vertex(self):
        with pytest.raises(ValueError, match=r"\['B'\] appear in no edge"):
            fractional_edge_cover(("A", "B"), [frozenset({"A"})])

    def test_no_edges(self):
        assert fractional_edge_cover((), []) == (0.0, ())
        # A vertex with no edges at all is reported as uncovered first.
        with pytest.raises(ValueError, match="appear in no edge"):
            fractional_edge_cover(("A",), [])

    def test_weight_arity_mismatch(self):
        with pytest.raises(ValueError, match="one weight per edge required"):
            fractional_edge_cover(
                ("A",), [frozenset({"A"})], weights=[1.0, 2.0]
            )

    def test_negative_weight_is_unbounded(self):
        with pytest.raises(ValueError, match="edge cover LP failed"):
            fractional_edge_cover(
                ("A",), [frozenset({"A"})], weights=[-1.0]
            )

    def test_weight_zero_edge_is_free(self):
        # A size-1 relation has weight log2(1) = 0: covering with it
        # costs nothing, so only C is paid for, by the cheaper edge.
        edges = [frozenset("AB"), frozenset("BC"), frozenset("AC")]
        value, x = fractional_edge_cover("ABC", edges, [0.0, 3.0, 4.0])
        assert value == pytest.approx(3.0)
        assert x == pytest.approx((1.0, 1.0, 0.0))

    def test_all_zero_weights(self):
        h = Hypergraph.of_query(clique_query(4))
        assert check_certificate(h.vertices, h.edges, [0.0] * 6) == 0.0

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_degenerate_unit_weight_inputs_terminate(self, n):
        # Every subset of size ≥ 2 as an edge, each one twice (a
        # self-join): dozens of tied ratios at every pivot, the setting
        # in which a simplex without an anti-cycling rule can loop.
        vertices = "ABCDEFG"[:n]
        edges = [
            frozenset(c)
            for k in range(2, n + 1)
            for c in itertools.combinations(vertices, k)
        ] * 2
        value, _ = fractional_edge_cover(vertices, edges)
        assert value == pytest.approx(1.0)  # the full edge covers all
        check_certificate(vertices, edges, [1.0] * len(edges))


def check_certificate(vertices, edges, weights):
    """The LP's own optimality certificate: a feasible cover ``x`` and a
    feasible packing ``y`` with ``w·x == Σy`` — by weak duality both are
    optimal, whatever solver produced them."""
    objective, x, y = _packing_simplex(vertices, edges, weights)
    assert fractional_edge_cover(vertices, edges, weights) == (objective, x)
    return check_pair(vertices, edges, weights, objective, x, y)


def check_pair(vertices, edges, weights, objective, x, y):
    """:func:`check_certificate`'s checks on a given ``(x, y)`` pair."""
    assert len(x) == len(edges) and len(y) == len(vertices)
    assert all(v >= 0.0 for v in x) and all(v >= -1e-9 for v in y)
    for v in vertices:
        assert sum(x[j] for j, e in enumerate(edges) if v in e) >= 1 - 1e-9
    for e, w in zip(edges, weights):
        assert sum(y[i] for i, v in enumerate(vertices) if v in e) <= w + 1e-9
    assert sum(w * xj for w, xj in zip(weights, x)) == pytest.approx(
        objective, abs=1e-9
    )
    assert sum(y) == pytest.approx(objective, abs=1e-9)
    return objective


def exact_cover_optimum(vertices, edges, weights) -> Fraction:
    """min w·x over the basic feasible solutions of the cover LP, in
    exact rational arithmetic: every choice of ``m`` tight constraints
    out of the ``n`` coverage rows and ``m`` sign rows is solved by
    Gauss-Jordan elimination.  The feasible region is pointed (x ≥ 0)
    and w ≥ 0 bounds the objective, so some vertex is optimal."""
    m = len(edges)
    w = [Fraction(x) for x in weights]
    constraints = [
        ([Fraction(int(v in e)) for e in edges], Fraction(1))
        for v in vertices
    ] + [
        ([Fraction(int(i == j)) for j in range(m)], Fraction(0))
        for i in range(m)
    ]
    best = None
    for tight in itertools.combinations(constraints, m):
        rows = [list(a) + [b] for a, b in tight]
        singular = False
        for col in range(m):
            pivot = next(
                (r for r in range(col, m) if rows[r][col] != 0), None
            )
            if pivot is None:
                singular = True
                break
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rows[col] = [a / rows[col][col] for a in rows[col]]
            for r in range(m):
                if r != col and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        if singular:
            continue
        x = [row[-1] for row in rows]
        if all(sum(a * xj for a, xj in zip(coef, x)) >= rhs
               for coef, rhs in constraints):
            value = sum(wj * xj for wj, xj in zip(w, x))
            if best is None or value < best:
                best = value
    return best


@st.composite
def cover_instances(draw, max_edges=8):
    """Random hypergraphs over ≤ 6 vertices: duplicate edges (self-joins),
    singletons and nested edges all occur; weights are the ones planning
    produces — 0 (a size-1 relation), 1 (ρ*), log2 of a cardinality."""
    universe = "ABCDEF"[: draw(st.integers(1, 6))]
    edges = draw(st.lists(
        st.frozensets(st.sampled_from(universe), min_size=1),
        min_size=1, max_size=max_edges,
    ))
    vertices = sorted(set().union(*edges))
    weight = st.one_of(
        st.just(0.0), st.just(1.0),
        st.integers(2, 100_000).map(math.log2),
    )
    weights = draw(st.lists(
        weight, min_size=len(edges), max_size=len(edges)
    ))
    return vertices, edges, weights


class TestSimplexProperties:
    @settings(max_examples=300, deadline=None)
    @given(cover_instances())
    def test_certificate(self, instance):
        check_certificate(*instance)

    @settings(max_examples=150, deadline=None)
    @given(cover_instances(max_edges=5))
    def test_matches_exact_rational_oracle(self, instance):
        objective = check_certificate(*instance)
        assert objective == pytest.approx(
            float(exact_cover_optimum(*instance)), abs=1e-9
        )

    @settings(max_examples=150, deadline=None)
    @given(cover_instances())
    def test_matches_scipy_linprog_where_installed(self, instance):
        linprog = pytest.importorskip("scipy.optimize").linprog
        vertices, edges, weights = instance
        a_ub = [[-float(v in e) for e in edges] for v in vertices]
        result = linprog(
            c=weights, A_ub=a_ub, b_ub=[-1.0] * len(vertices),
            bounds=(0, None), method="highs",
        )
        assert result.success
        objective, _ = fractional_edge_cover(vertices, edges, weights)
        assert objective == pytest.approx(result.fun, abs=1e-9)


class TestAGMBound:
    def test_triangle_equal_sizes(self):
        q = triangle_query()
        pairs = [(i, j) for i in range(4) for j in range(4)]
        db = db_for(q, {"R": pairs, "S": pairs, "T": pairs})
        assert agm_bound(q, db) == pytest.approx(16 ** 1.5)

    def test_empty_relation_gives_zero(self):
        q = triangle_query()
        db = db_for(q, {"R": [], "S": [(0, 0)], "T": [(0, 0)]})
        assert agm_bound(q, db) == 0.0

    def test_skewed_sizes_pick_better_cover(self):
        q = triangle_query()
        # Tiny R: the integral cover {R, S} or {R, T}... the LP exploits
        # the small relation. AGM ≤ |R| * |S| (cover x_R=1, x_S=1).
        pairs = [(i, j) for i in range(4) for j in range(4)]
        db = db_for(q, {"R": [(0, 0)], "S": pairs, "T": pairs})
        assert agm_bound(q, db) <= 16.0 + 1e-6

    def test_size_one_relation_has_weight_zero(self):
        q = triangle_query()
        pairs = [(i, j) for i in range(4) for j in range(4)]
        db = db_for(q, {"R": [(0, 0)], "S": pairs, "T": pairs})
        # x_R = 1 is free and covers A, B; C costs one 16-tuple relation.
        assert agm_bound(q, db) == pytest.approx(16.0)

    def test_agm_bound_is_agm_from_sizes(self):
        q = triangle_query()
        pairs = [(i, j) for i in range(3) for j in range(4)]
        db = db_for(q, {"R": pairs, "S": pairs[:5], "T": pairs[:7]})
        sizes = {"R": 12, "S": 5, "T": 7}
        assert agm_bound(q, db) == agm_from_sizes(q, sizes)
        assert agm_from_sizes(q, {"R": 12, "S": 0, "T": 7}) == 0.0

    def test_monotone_in_relation_size(self):
        q = triangle_query()
        small = [(i, j) for i in range(2) for j in range(2)]
        big = [(i, j) for i in range(4) for j in range(4)]
        db1 = db_for(q, {"R": small, "S": small, "T": small})
        db2 = db_for(q, {"R": big, "S": big, "T": big})
        assert agm_bound(q, db1) < agm_bound(q, db2)


class TestFHTW:
    def test_acyclic_fhtw_1(self):
        h = Hypergraph.of_query(path_query(4))
        value, order = fhtw(h)
        assert value == pytest.approx(1.0)

    def test_triangle_fhtw(self):
        h = Hypergraph.of_query(triangle_query())
        value, _ = fhtw(h)
        assert value == pytest.approx(1.5)

    def test_cycle4_fhtw(self):
        # C4 has fhtw 2 with binary edges... the one-bag cover of any pair
        # of opposite edges gives 2.
        h = Hypergraph.of_query(cycle_query(4))
        value, _ = fhtw(h)
        assert 1.0 < value <= 2.0 + 1e-9

    def test_exact_search_solves_each_bag_once(self, monkeypatch):
        from repro.relational import agm

        solved = []
        real = agm.bag_cover_number

        def counting(bag, edges):
            solved.append(bag)
            return real(bag, edges)

        monkeypatch.setattr(agm, "bag_cover_number", counting)
        h = Hypergraph.of_query(cycle_query(5))
        value, order = fhtw(h)
        assert value == pytest.approx(2.0)
        assert len(solved) == len(set(solved))  # 120 orders, no re-solve
        assert value == pytest.approx(agm.fhtw_of_order(h, order))

    def test_bag_cover_number(self):
        h = Hypergraph.of_query(triangle_query())
        bag = frozenset({"A", "B", "C"})
        assert bag_cover_number(bag, h.edges) == pytest.approx(1.5)

    def test_agm_per_bag(self):
        q = triangle_query()
        pairs = [(i, j) for i in range(4) for j in range(4)]
        db = db_for(q, {"R": pairs, "S": pairs, "T": pairs})
        h = Hypergraph.of_query(q)
        _, order = h.treewidth()
        bags = agm_per_bag(q, db, order)
        assert max(bags.values()) == pytest.approx(16 ** 1.5)


#: The shapes the planner's benchmark stream plans over and over.
PLAN_SHAPES = {
    "triangle": triangle_query(), "path3": path_query(3),
    "path4": path_query(4), "star3": star_query(3), "star4": star_query(4),
    "cycle4": cycle_query(4), "cycle5": cycle_query(5),
    "clique4": clique_query(4),
}


def _answering_basis(shape, weights):
    """The kept basis a warm AGM reads (the first one ``weights`` leave
    feasible) as its ``(x, y)`` pair: ``y`` is ``B⁻¹w`` on the vertex
    columns, zero elsewhere."""
    n = len(shape.variables)
    for basis in shape.bases:
        rhs = [math.fsum(map(float.__mul__, row, weights))
               for row in basis.inverse]
        if min(rhs) >= 0.0:
            y = [0.0] * n
            for i, j in enumerate(basis.basic):
                if j < n:
                    y[j] = rhs[i]
            return basis.cover, y
    raise AssertionError("no kept basis is feasible")


class TestWarmStartedAGM:
    """The planner's AGM memo (:meth:`QueryShape.agm_log2`) re-prices a
    kept optimal basis instead of re-solving the LP."""

    @pytest.mark.parametrize("name", sorted(PLAN_SHAPES))
    def test_warm_equals_cold_bit_for_bit(self, name):
        query = PLAN_SHAPES[name]
        m = len(query.atoms)
        rng = random.Random(name)
        draws = [[1] * m, [40] * m, [1] + [40] * (m - 1), [2] * m]
        draws += [
            [rng.choice((1, 1, 2, 3, 4, 8, 39, 40, 40, 64)) for _ in range(m)]
            for _ in range(60)
        ]
        draws += [[rng.randint(1, 80) for _ in range(m)] for _ in range(60)]
        warm = QueryShape(query)
        edges = [frozenset(a.attrs) for a in query.atoms]
        for sizes in draws:
            weights = [math.log2(s) if s > 1 else 0.0 for s in sizes]
            value = warm.agm_log2(weights)
            assert value == QueryShape(query).agm_log2(weights), sizes
            assert 2.0 ** value == pytest.approx(
                agm_from_sizes(query, dict(zip(warm.names, sizes))),
                rel=1e-12,
            )
            x, y = _answering_basis(warm, weights)
            check_pair(query.variables, edges, weights, value, x, y)
        assert len(warm.bases) < len(draws)
