"""AGM bounds and width measures built on fractional edge covers (App A).

* :func:`fractional_edge_cover` — the covering LP, solved through its
  packing dual by the small dense simplex in this module;
  :func:`optimal_basis` hands out the basis that simplex ends on, which
  prices any other weights it keeps feasible (the planner's warm start);
* :func:`agm_bound` — the instance-specific AGM output-size bound
  ``∏ |R_F|^{x_F}`` (Definition A.1), minimized by weighting the LP
  objective with ``log |R_F|``;
* :func:`fractional_edge_cover_number` — ρ*(H) with unit weights
  (Definition A.2);
* :func:`fhtw` — fractional hypertree width: the minimum over tree
  decompositions (enumerated through elimination orders) of the maximum
  bag cover number.
"""

from __future__ import annotations

import itertools
import math
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.relational.hypergraph import Hypergraph

#: Pivot / optimality tolerance of the simplex below.
_EPS = 1e-12


class OptimalBasis(NamedTuple):
    """An optimal basis of the packing LP, kept to price other weights.

    The simplex ends on a basis ``B``.  Its reduced costs — hence the
    cover ``x`` read off them — depend on ``B`` and not on the weights,
    so ``B`` stays optimal for every ``w'`` it keeps feasible
    (``B⁻¹w' ≥ 0``), where the optimum is ``x·w'``.  ``inverse`` holds
    the rows of ``B⁻¹`` (the final tableau's slack columns, one per
    edge), and ``basic[i]`` names row ``i``'s basic column: vertex
    ``j < n`` takes ``y_j = inverse[i]·w'``, a slack the rest.
    ``signed`` holds the rows with a negative entry: under weights
    ``w' ≥ 0`` only they can make ``B⁻¹w'`` negative.
    """

    inverse: Tuple[Tuple[float, ...], ...]
    basic: Tuple[int, ...]
    cover: Tuple[float, ...]
    signed: Tuple[Tuple[float, ...], ...]


def _solve_packing(
    vertices: Sequence[str],
    edges: Sequence[FrozenSet[str]],
    w: Sequence[float],
) -> Tuple[List[List[float]], List[float], List[int]]:
    """Run the simplex of :func:`_packing_simplex` to its optimal tableau.

    Returns the constraint rows, the reduced-cost row (its last entry is
    the objective) and the basic column of each row.
    """
    n, m = len(vertices), len(edges)
    # One row per edge: vertex columns, slack columns, right-hand side.
    rows = []
    for i, (edge, weight) in enumerate(zip(edges, w)):
        row = [1.0 if v in edge else 0.0 for v in vertices] + [0.0] * (m + 1)
        row[n + i] = 1.0
        row[-1] = weight
        rows.append(row)
    cost = [-1.0] * n + [0.0] * (m + 1)  # reduced costs; cost[-1] = objective
    basis = list(range(n, n + m))
    tableau = rows + [cost]
    while True:
        col = next((j for j in range(n + m) if cost[j] < -_EPS), None)
        if col is None:
            break
        _, _, leave = min(
            (rows[i][-1] / rows[i][col], basis[i], i)
            for i in range(m) if rows[i][col] > _EPS
        )
        pivot_row = rows[leave]
        scale = pivot_row[col]
        pivot_row[:] = [a / scale for a in pivot_row]
        for row in tableau:
            factor = row[col]
            if factor and row is not pivot_row:
                row[:] = [a - factor * b for a, b in zip(row, pivot_row)]
        basis[leave] = col
    return rows, cost, basis


def _packing_simplex(
    vertices: Sequence[str],
    edges: Sequence[FrozenSet[str]],
    w: Sequence[float],
) -> Tuple[float, Tuple[float, ...], Tuple[float, ...]]:
    """Solve ``max Σ y_v  s.t.  Σ_{v ∈ F} y_v ≤ w_F ∀F, y ≥ 0`` by simplex.

    This packing LP is the dual of the edge-cover LP.  With every
    ``w_F ≥ 0`` the all-slack basis is feasible, so there is no phase 1;
    Bland's rule (lowest-index entering column, lowest-index leaving
    basic variable among the ratio ties) keeps the degenerate unit- and
    zero-weight instances from cycling.  Every vertex must lie in some
    edge, or the LP is unbounded.  Returns ``(objective, x, y)``: ``x``
    is the optimal cover, read off the slack columns' reduced costs.
    """
    n, m = len(vertices), len(edges)
    rows, cost, basis = _solve_packing(vertices, edges, w)
    y = [0.0] * n
    for i, j in enumerate(basis):
        if j < n:
            y[j] = rows[i][-1]
    x = tuple(max(c, 0.0) for c in cost[n:n + m])
    return cost[-1], x, tuple(y)


def optimal_basis(
    vertices: Sequence[str],
    edges: Sequence[FrozenSet[str]],
    w: Sequence[float],
) -> OptimalBasis:
    """The basis :func:`_packing_simplex` ends on for weights ``w ≥ 0``."""
    n, m = len(vertices), len(edges)
    rows, cost, basis = _solve_packing(vertices, edges, w)
    inverse = tuple(tuple(row[n:n + m]) for row in rows)
    return OptimalBasis(
        inverse=inverse,
        basic=tuple(basis),
        cover=tuple(max(c, 0.0) for c in cost[n:n + m]),
        signed=tuple(row for row in inverse if min(row) < 0.0),
    )


def fractional_edge_cover(
    vertices: Sequence[str],
    edges: Sequence[FrozenSet[str]],
    weights: Optional[Sequence[float]] = None,
) -> Tuple[float, Tuple[float, ...]]:
    """Solve ``min Σ w_F x_F  s.t.  Σ_{F ∋ v} x_F ≥ 1 ∀v, x ≥ 0``.

    Returns ``(objective, x)``.  Vertices not covered by any edge make the
    LP infeasible and raise ``ValueError``; so does a negative weight,
    which makes it unbounded.
    """
    missing = [v for v in vertices if not any(v in e for e in edges)]
    if missing:
        raise ValueError(f"vertices {missing} appear in no edge")
    if not edges:
        if vertices:
            raise ValueError("no edges to cover the vertices with")
        return 0.0, ()
    w = list(weights) if weights is not None else [1.0] * len(edges)
    if len(w) != len(edges):
        raise ValueError("one weight per edge required")
    if min(w) < 0:
        raise ValueError("edge cover LP failed: negative weight (unbounded)")
    objective, x, _ = _packing_simplex(vertices, edges, w)
    return objective, x


def fractional_edge_cover_number(h: Hypergraph) -> float:
    """ρ*(H): optimal unit-weight fractional edge cover (Definition A.2)."""
    value, _ = fractional_edge_cover(h.vertices, h.edges)
    return value


def agm_from_sizes(query, sizes: Mapping[str, int]) -> float:
    """The best AGM bound 2^{ρ*(Q, D)} from per-relation cardinalities.

    Relations of size 0 make the output empty; we return 0 in that case
    (the LP weight log2(0) is -inf, which the paper's formulation sidesteps
    by the trivial bound |Q| ≤ 0).
    """
    counts = [sizes[a.name] for a in query.atoms]
    if any(s == 0 for s in counts):
        return 0.0
    weights = [math.log2(s) if s > 1 else 0.0 for s in counts]
    edges = [frozenset(a.attrs) for a in query.atoms]
    value, _ = fractional_edge_cover(query.variables, edges, weights)
    return 2.0 ** value


def agm_bound(query, db) -> float:
    """:func:`agm_from_sizes` for a query on a database instance."""
    return agm_from_sizes(
        query, {a.name: len(db[a.name]) for a in query.atoms}
    )


def bag_cover_number(
    bag: FrozenSet[str], edges: Sequence[FrozenSet[str]]
) -> float:
    """ρ* of a hypergraph restricted to a bag (edges intersected with it).

    A bag inside one edge is covered by that edge alone, and each of its
    vertices needs a total weight of 1: its ρ* is 1, with no LP.
    """
    if bag and any(bag <= e for e in edges):
        return 1.0
    restricted = [e & bag for e in edges if e & bag]
    return fractional_edge_cover(sorted(bag), restricted)[0]


def fhtw_of_order(h: Hypergraph, order: Sequence[str]) -> float:
    """Max bag cover number of the decomposition induced by an order."""
    decomposition = h.tree_decomposition(order)
    return max(
        bag_cover_number(bag, h.edges)
        for bag in decomposition.bags.values()
    )


def fhtw(
    h: Hypergraph, exact_limit: int = 7
) -> Tuple[float, Tuple[str, ...]]:
    """Fractional hypertree width with a witnessing elimination order.

    Exact by enumerating all elimination orders for ≤ ``exact_limit``
    vertices (decompositions induced by elimination orders suffice to reach
    fhtw up to the usual caveats for these small queries); otherwise falls
    back to the treewidth-optimal order as an upper bound.
    """
    n = len(h.vertices)
    if n <= exact_limit:
        best = math.inf
        best_order: Tuple[str, ...] = tuple(h.vertices)
        # The n! orders share a few dozen distinct bags: solve each once.
        covers: Dict[FrozenSet[str], float] = {}
        for perm in itertools.permutations(h.vertices):
            value = 0.0
            for bag in h.tree_decomposition(perm).bags.values():
                cover = covers.get(bag)
                if cover is None:
                    cover = covers[bag] = bag_cover_number(bag, h.edges)
                value = max(value, cover)
            if value < best - 1e-9:
                best = value
                best_order = perm
        return best, best_order
    _, order = h.treewidth()
    return fhtw_of_order(h, order), tuple(order)


def agm_per_bag(
    query, db, order: Sequence[str]
) -> Dict[str, float]:
    """Instance AGM bound of every bag of an elimination-order decomposition.

    The max over bags is the AGM_TD(Q) of Theorem D.9.
    """
    h = Hypergraph.of_query(query)
    decomposition = h.tree_decomposition(order)
    sizes = {a.name: len(db[a.name]) for a in query.atoms}
    out: Dict[str, float] = {}
    for v, bag in decomposition.bags.items():
        edges = []
        weights = []
        for atom in query.atoms:
            inter = frozenset(atom.attrs) & bag
            if inter:
                edges.append(inter)
                size = sizes[atom.name]
                if size == 0:
                    out[v] = 0.0
                    break
                weights.append(math.log2(size) if size > 1 else 0.0)
        else:
            value, _ = fractional_edge_cover(sorted(bag), edges, weights)
            out[v] = 2.0 ** value
    return out
