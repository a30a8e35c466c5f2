"""Query hypergraphs: GYO elimination, acyclicity, widths, decompositions.

Implements the structural machinery of Appendices A.2, D and E:

* **GYO elimination** and α-acyclicity (Definition A.3), including the
  elimination order that Tetris-Preloaded reverses into its SAO
  (Theorem D.8);
* **β-acyclicity** (every sub-hypergraph α-acyclic);
* **vertex elimination / induced width** (Definition E.5), giving the
  treewidth as the minimum induced width over all orders, plus the
  per-attribute ``support(A_k)`` sets used in the witness-counting proofs;
* **tree decompositions** derived from elimination orders (Definition A.4).

Exact treewidth uses a dynamic program over vertex subsets (QuickBB-style
Held–Karp recurrence), fine for the ≤ 15-attribute queries of the paper;
a min-fill greedy heuristic covers anything larger.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

Edge = FrozenSet[str]


class Hypergraph:
    """An undirected hypergraph over named vertices (query attributes)."""

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[Sequence[str]],
    ):
        self.vertices: Tuple[str, ...] = tuple(vertices)
        vertex_set = set(self.vertices)
        self.edges: List[Edge] = []
        for e in edges:
            edge = frozenset(e)
            if not edge <= vertex_set:
                raise ValueError(
                    f"edge {set(e)} uses vertices outside {vertex_set}"
                )
            self.edges.append(edge)

    @classmethod
    def of_query(cls, query) -> "Hypergraph":
        """The hypergraph H(Q) of a join query (Appendix A)."""
        return cls(query.variables, [tuple(e) for e in query.edges()])

    # -- GYO elimination and acyclicity ---------------------------------------

    def gyo_elimination(self) -> Tuple[List[str], List[Edge]]:
        """Run GYO; returns (vertex elimination order, residual edges).

        The hypergraph is α-acyclic iff the residual edge list is empty.
        Each GYO step removes an *ear* vertex (in at most one maximal edge)
        or an edge contained in another.
        """
        edges: List[Set[str]] = [set(e) for e in self.edges if e]
        order: List[str] = []
        alive = set(v for e in edges for v in e)
        changed = True
        while changed:
            changed = False
            # Drop empty edges, duplicates, and edges contained in others.
            kept: List[Set[str]] = []
            for e in edges:
                if not e:
                    changed = True
                    continue
                if any(e < f for f in edges):
                    changed = True
                    continue
                if any(e == f for f in kept):
                    changed = True
                    continue
                kept.append(e)
            edges = kept
            # Remove private vertices (appearing in at most one edge).
            for v in sorted(alive):
                count = sum(1 for e in edges if v in e)
                if count <= 1:
                    for e in edges:
                        e.discard(v)
                    alive.discard(v)
                    order.append(v)
                    changed = True
            edges = [e for e in edges if e]
        # Vertices never touched by any edge are trivially removable.
        for v in self.vertices:
            if v not in order and all(v not in e for e in edges):
                order.append(v)
        return order, [frozenset(e) for e in edges]

    def is_alpha_acyclic(self) -> bool:
        """α-acyclicity: GYO reduces the hypergraph to nothing."""
        _, residual = self.gyo_elimination()
        return not residual

    def acyclic_gao(self) -> Optional[Tuple[str, ...]]:
        """The reverse GYO elimination order — the SAO of Theorem D.8 —
        or ``None`` when the hypergraph is not α-acyclic: one GYO run
        answers both questions."""
        order, residual = self.gyo_elimination()
        return None if residual else tuple(reversed(order))

    def is_beta_acyclic(self) -> bool:
        """β-acyclicity: every subset of edges forms an α-acyclic hypergraph.

        Exponential in the number of edges — only for the small queries of
        the paper.
        """
        for k in range(1, len(self.edges) + 1):
            for subset in itertools.combinations(self.edges, k):
                sub = Hypergraph(
                    self.vertices, [tuple(e) for e in subset]
                )
                if not sub.is_alpha_acyclic():
                    return False
        return True

    # -- primal graph, elimination orders, widths -----------------------------

    def primal_neighbors(self) -> Dict[str, Set[str]]:
        """Adjacency of the primal (Gaifman) graph."""
        adj: Dict[str, Set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            for a in e:
                for b in e:
                    if a != b:
                        adj[a].add(b)
        return adj

    def elimination_supports(
        self, order: Sequence[str]
    ) -> Dict[str, FrozenSet[str]]:
        """The ``support(A_k)`` sets of Definition E.5 for a given order.

        ``support(A_k)`` is the union of all hyperedges containing ``A_k``
        in the hypergraph ``H_k`` obtained after eliminating
        ``A_n, ..., A_{k+1}`` (each elimination adds its support back as a
        new edge minus the eliminated vertex).
        """
        if sorted(order) != sorted(self.vertices):
            raise ValueError(
                f"{order} is not a permutation of {self.vertices}"
            )
        edges: Set[Edge] = {e for e in self.edges if e}
        supports: Dict[str, FrozenSet[str]] = {}
        for k in range(len(order) - 1, -1, -1):
            v = order[k]
            touching = [e for e in edges if v in e]
            support = frozenset().union(*touching) if touching else frozenset({v})
            support = support | {v}
            supports[v] = support
            edges = {e for e in edges if v not in e}
            reduced = frozenset(support - {v})
            if reduced:
                edges.add(reduced)
        return supports

    def treewidth_exact(self) -> Tuple[int, Tuple[str, ...]]:
        """Exact treewidth via the Held–Karp elimination DP.

        Returns ``(width, elimination order)`` where the order achieves the
        width as its induced width (vertices eliminated from the end, per
        our convention).  O(2^n · n^2); fine for n ≤ ~16.
        """
        verts = tuple(sorted(self.vertices))
        n = len(verts)
        index = {v: i for i, v in enumerate(verts)}
        base_adj = [0] * n
        for e in self.edges:
            for a in e:
                for b in e:
                    if a != b:
                        base_adj[index[a]] |= 1 << index[b]

        @lru_cache(maxsize=None)
        def solve(remaining: int) -> Tuple[int, Tuple[int, ...]]:
            """Min over elimination sequences of `remaining`: (width, order).

            The returned order lists eliminated vertices first-to-last.
            """
            if remaining == 0:
                return -1, ()
            best_width = n
            best_order: Tuple[int, ...] = ()
            for i in range(n):
                if not (remaining >> i) & 1:
                    continue
                # Degree of i in the graph induced on `remaining` with all
                # already-eliminated vertices' fill edges — computed by
                # saturating: neighbors of i within remaining, where
                # adjacency includes paths through eliminated vertices.
                degree = bin(self._reach(i, remaining, base_adj, n)).count("1")
                if degree >= best_width:
                    continue
                sub_width, sub_order = solve(remaining & ~(1 << i))
                width = max(degree, sub_width)
                if width < best_width:
                    best_width = width
                    best_order = (i,) + sub_order
            return best_width, best_order

        width, elim = solve((1 << n) - 1)
        # ``solve`` reaches itself through its own closure cell: unbind
        # it, and the function and its table are freed by refcount.
        solve = None
        # elim lists first-eliminated first; our convention eliminates from
        # the end of the order, so reverse it.
        order = tuple(verts[i] for i in reversed(elim))
        return max(width, 0), order

    @staticmethod
    def _reach(i: int, remaining: int, base_adj: List[int], n: int) -> int:
        """Neighbors of i in `remaining` via paths through eliminated vertices.

        Classic fact: after eliminating S = complement(remaining), vertex i's
        neighborhood is every remaining j reachable from i through eliminated
        vertices only.
        """
        eliminated = ~remaining
        seen = 1 << i
        frontier = base_adj[i]
        result = 0
        while frontier:
            new = frontier & ~seen
            if not new:
                break
            seen |= new
            result |= new & remaining
            spread = new & eliminated
            frontier = 0
            j = spread
            while j:
                low = j & -j
                frontier |= base_adj[low.bit_length() - 1]
                j ^= low
        return result & ~(1 << i)

    def treewidth_greedy(self) -> Tuple[int, Tuple[str, ...]]:
        """Min-fill greedy elimination: an upper bound on treewidth."""
        adj = {v: set(ns) for v, ns in self.primal_neighbors().items()}
        remaining = set(self.vertices)
        elim: List[str] = []
        width = 0
        while remaining:
            def fill_cost(v: str) -> int:
                ns = adj[v] & remaining
                return sum(
                    1
                    for a, b in itertools.combinations(sorted(ns), 2)
                    if b not in adj[a]
                )

            v = min(sorted(remaining), key=fill_cost)
            ns = adj[v] & remaining
            width = max(width, len(ns))
            for a in ns:
                for b in ns:
                    if a != b:
                        adj[a].add(b)
            remaining.discard(v)
            elim.append(v)
        return width, tuple(reversed(elim))

    def treewidth(self) -> Tuple[int, Tuple[str, ...]]:
        """Treewidth with a matching elimination order (exact for n ≤ 16)."""
        if len(self.vertices) <= 16:
            return self.treewidth_exact()
        return self.treewidth_greedy()

    # -- tree decompositions ----------------------------------------------------

    def tree_decomposition(
        self, order: Optional[Sequence[str]] = None
    ) -> "TreeDecomposition":
        """Tree decomposition induced by an elimination order.

        Bags are the ``support(A_k)`` sets; each bag connects to the bag of
        the earliest-later eliminated vertex it contains — the standard
        elimination-order construction.
        """
        if order is None:
            _, order = self.treewidth()
        supports = self.elimination_supports(order)
        position = {v: i for i, v in enumerate(order)}
        bags = {v: supports[v] for v in order}
        parent: Dict[str, Optional[str]] = {}
        for v in order:
            rest = bags[v] - {v}
            if rest:
                # Vertices are eliminated from the end of the order, so the
                # member of rest eliminated next after v is the one with the
                # largest position; its bag is the parent (the standard
                # elimination-order construction).
                parent[v] = max(rest, key=lambda u: position[u])
            else:
                parent[v] = None
        return TreeDecomposition(self, bags, parent, tuple(order))


@dataclass
class TreeDecomposition:
    """A tree decomposition keyed by elimination vertex (Definition A.4)."""

    hypergraph: Hypergraph
    bags: Dict[str, FrozenSet[str]]
    parent: Dict[str, Optional[str]]
    order: Tuple[str, ...] = ()

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    def validate(self) -> None:
        """Check the two tree-decomposition properties; raise on violation."""
        # (a) every hyperedge inside some bag
        for e in self.hypergraph.edges:
            if not any(e <= bag for bag in self.bags.values()):
                raise ValueError(f"edge {set(e)} not covered by any bag")
        # (b) bags containing each vertex form a connected subtree
        for v in self.hypergraph.vertices:
            holders = {k for k, bag in self.bags.items() if v in bag}
            if not holders:
                raise ValueError(f"vertex {v} in no bag")
            # walk up from each holder; the meeting structure must connect
            root_hits = set()
            for h in holders:
                cur: Optional[str] = h
                chain = []
                while cur is not None and cur in holders:
                    chain.append(cur)
                    cur = self.parent.get(cur)
                root_hits.add(chain[-1])
            if len(root_hits) > 1:
                raise ValueError(
                    f"bags containing {v} are not connected: {holders}"
                )


def gao_for_acyclic(h: Hypergraph) -> Tuple[str, ...]:
    """Reverse GYO elimination order — the SAO of Theorem D.8.

    Raises when the hypergraph is not α-acyclic.
    """
    gao = h.acyclic_gao()
    if gao is None:
        raise ValueError("hypergraph is not α-acyclic")
    return gao
