"""Workload generators: databases for the benchmark harness.

Covers the regimes the paper's evaluation needs:

* AGM-tight triangle instances (worst-case output, Table 1 row 2),
* random graphs (incl. power-law) for subgraph/triangle queries — the
  footnote-1 social-network workloads, synthesized in place of real
  network data so every run is seeded and needs no download,
* acyclic path/star instances with controllable output size (row 1),
* *split* instances whose box certificate is O(1) while N grows without
  bound (rows 4–5, the beyond-worst-case regime),
* dense cycle instances for the fhtw experiments (row 3).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.relational.query import (
    Database,
    JoinQuery,
    cycle_query,
    path_query,
    triangle_query,
)
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema


def db_from_tuples(
    query: JoinQuery,
    tuples_by_name: Dict[str, Sequence[Tuple[int, ...]]],
    depth: int,
) -> Database:
    """Assemble a database for a query from per-atom tuple lists."""
    return Database(
        [
            Relation(atom, tuples_by_name[atom.name], Domain(depth))
            for atom in query.atoms
        ]
    )


def agm_tight_triangle(m: int) -> Tuple[JoinQuery, Database]:
    """The AGM-tight triangle family: output exactly N^{3/2}.

    R = S = T = [m] × [m], so each relation has N = m² tuples and the
    output is the full cube of m³ = N^{3/2} tuples — the instance family
    with which [6] proved the AGM bound tight.
    """
    query = triangle_query()
    pairs = [(i, j) for i in range(m) for j in range(m)]
    depth = Domain.for_values(max(m - 1, 1)).depth
    return query, db_from_tuples(
        query, {"R": pairs, "S": pairs, "T": pairs}, depth
    )


def graph_triangle_db(
    edges: Sequence[Tuple[int, int]], depth: Optional[int] = None
) -> Tuple[JoinQuery, Database]:
    """Triangle listing on a graph: R = S = T = symmetrized edge set."""
    query = triangle_query()
    sym = sorted({(a, b) for a, b in edges} | {(b, a) for a, b in edges})
    if depth is None:
        top = max((max(a, b) for a, b in sym), default=1)
        depth = Domain.for_values(top).depth
    return query, db_from_tuples(
        query, {"R": sym, "S": sym, "T": sym}, depth
    )


def random_graph_edges(
    n_vertices: int, n_edges: int, seed: int
) -> List[Tuple[int, int]]:
    """A simple Erdős–Rényi-style random edge list (no self loops)."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < n_edges:
        a = rng.randrange(n_vertices)
        b = rng.randrange(n_vertices)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def power_law_graph_edges(
    n_vertices: int, attach: int, seed: int
) -> List[Tuple[int, int]]:
    """Barabási–Albert preferential attachment: each vertex from ``attach``
    on joins ``attach`` distinct earlier vertices drawn in proportion to
    degree — a simple graph of ``(n_vertices - attach) * attach`` edges."""
    if not 1 <= attach < n_vertices:
        raise ValueError(f"need 1 <= attach < n_vertices, got {attach}")
    rng = random.Random(seed)
    targets = list(range(attach))
    edges, ends = [], []  # ends: every edge endpoint, a degree-weighted urn
    for v in range(attach, n_vertices):
        edges.extend((t, v) for t in targets)
        ends += targets + [v] * attach
        chosen = set()
        while len(chosen) < attach:
            chosen.add(rng.choice(ends))
        targets = sorted(chosen)
    return sorted(edges)


def random_path_db(
    length: int, tuples_per_relation: int, seed: int, depth: int = 8
) -> Tuple[JoinQuery, Database]:
    """A random instance of the path query (acyclic, treewidth 1)."""
    rng = random.Random(seed)
    query = path_query(length)
    data = {}
    for atom in query.atoms:
        data[atom.name] = sorted(
            {
                (rng.randrange(1 << depth), rng.randrange(1 << depth))
                for _ in range(tuples_per_relation)
            }
        )
    return query, db_from_tuples(query, data, depth)


def chained_path_db(
    length: int, chain_values: int, depth: int = 8
) -> Tuple[JoinQuery, Database]:
    """A path instance with output exactly ``chain_values`` tuples.

    Every relation holds the identity pairs {(v, v)}, so the join output
    is the diagonal — output size is controlled independently of N.
    """
    query = path_query(length)
    diag = [(v, v) for v in range(chain_values)]
    data = {atom.name: diag for atom in query.atoms}
    return query, db_from_tuples(query, data, depth)


def split_path_instance(
    m: int, depth: int, seed: int = 0
) -> Tuple[JoinQuery, Database, Tuple[str, ...]]:
    """R(A,B) ⋈ S(B,C) with N = 2m tuples but a box certificate of O(1).

    R's B-values live in the lower half of the domain, S's in the upper
    half, so the join is empty and — under the returned GAO (B, A, C),
    which makes both B-trees branch on B first — two gap boxes
    (⟨upper⟩ from R and ⟨lower⟩ from S) certify emptiness, independent of
    m.  The beyond-worst-case regime of Theorem 4.7.
    """
    if depth < 2:
        raise ValueError("need depth at least 2")
    rng = random.Random(seed)
    half = 1 << (depth - 1)
    query = path_query(2)  # R0(A0,A1) ⋈ R1(A1,A2)
    r_rows = sorted(
        {(rng.randrange(1 << depth), rng.randrange(half))
         for _ in range(m)}
    )
    s_rows = sorted(
        {(half + rng.randrange(half), rng.randrange(1 << depth))
         for _ in range(m)}
    )
    db = db_from_tuples(query, {"R0": r_rows, "R1": s_rows}, depth)
    gao = ("A1", "A0", "A2")
    return query, db, gao


def split_cycle_instance(
    m: int, depth: int, seed: int = 0
) -> Tuple[JoinQuery, Database, Tuple[str, ...]]:
    """A 4-cycle (treewidth 2) instance with an O(1) box certificate.

    Domain-splits two opposite cycle attributes so two coarse gap boxes
    certify emptiness — the Theorem 4.9 regime with w = 2.
    """
    rng = random.Random(seed)
    half = 1 << (depth - 1)
    query = cycle_query(4)  # R0(A0,A1) R1(A1,A2) R2(A2,A3) R3(A3,A0)
    rows = {
        # R0: A1 lower; R1: A1 upper (split on A1 ⇒ empty join).
        "R0": sorted({(rng.randrange(1 << depth), rng.randrange(half))
                      for _ in range(m)}),
        "R1": sorted({(half + rng.randrange(half),
                       rng.randrange(1 << depth)) for _ in range(m)}),
        "R2": sorted({(rng.randrange(1 << depth),
                       rng.randrange(1 << depth)) for _ in range(m)}),
        "R3": sorted({(rng.randrange(1 << depth),
                       rng.randrange(1 << depth)) for _ in range(m)}),
    }
    db = db_from_tuples(query, rows, depth)
    gao = ("A1", "A0", "A2", "A3")
    return query, db, gao


def dense_cycle_db(
    length: int, m: int, depth: int = 6, seed: int = 0
) -> Tuple[JoinQuery, Database]:
    """Random dense cycle instance (the fhtw = 2 workload of row 3)."""
    rng = random.Random(seed)
    query = cycle_query(length)
    data = {}
    for atom in query.atoms:
        data[atom.name] = sorted(
            {
                (rng.randrange(1 << depth), rng.randrange(1 << depth))
                for _ in range(m)
            }
        )
    return query, db_from_tuples(query, data, depth)
