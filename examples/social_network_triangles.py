"""Triangle listing on a synthetic social network.

The paper's footnote 1 reports that Tetris-style join processing sped up
graph-pattern queries on social-network data in LogicBlox.  This example
reproduces the setup with a synthetic power-law (Barabási–Albert) graph:
triangle listing as the join R(A,B) ⋈ S(B,C) ⋈ T(A,C) with R = S = T the
edge relation.

It contrasts the worst-case-optimal strategies (Tetris, Leapfrog) with
the hash plan, and prints the binary plan's intermediate result — the
wedge count — which can dwarf both input and output on skewed graphs.
The hash kernel does not walk it: it intersects S's and T's neighbour
sets per R row instead of probing T once per wedge.

Run:  python examples/social_network_triangles.py
"""

import time

from repro import Database, Domain, Relation, join_hash, join_leapfrog, \
    join_tetris, triangle_query
from repro.joins.hashjoin import intermediate_sizes
from repro.workloads.generators import power_law_graph_edges


def main() -> None:
    n_vertices, attach = 120, 3
    edges = power_law_graph_edges(n_vertices, attach, seed=7)
    sym = sorted({(a, b) for a, b in edges} | {(b, a) for a, b in edges})

    query = triangle_query()
    domain = Domain.for_values(n_vertices - 1)
    db = Database([Relation(atom, sym, domain) for atom in query.atoms])
    print(
        f"Power-law graph: {n_vertices} vertices, {len(edges)} edges "
        f"({db.total_tuples} directed tuples per relation)"
    )

    t0 = time.perf_counter()
    tetris = join_tetris(query, db, variant="preloaded")
    t_tetris = time.perf_counter() - t0
    print(
        f"\nTetris      : {len(tetris):5d} triangles (×6 orientations) "
        f"in {t_tetris:6.3f}s, {tetris.stats.resolutions} resolutions"
    )

    t0 = time.perf_counter()
    leapfrog = join_leapfrog(query, db)
    t_lf = time.perf_counter() - t0
    print(f"Leapfrog    : {len(leapfrog):5d} triangles in {t_lf:6.3f}s")

    t0 = time.perf_counter()
    hashed = join_hash(query, db)
    t_hash = time.perf_counter() - t0
    sizes = intermediate_sizes(query, db)
    print(
        f"Hash plan   : {len(hashed):5d} triangles in {t_hash:6.3f}s, "
        f"intermediates {sizes}"
    )
    blowup = max(sizes) / max(len(hashed), 1)
    print(
        f"\nA binary plan walks {max(sizes)} wedges — "
        f"{blowup:.1f}× the output. Worst-case-optimal joins never do."
    )
    assert tetris.tuples == leapfrog == hashed


if __name__ == "__main__":
    main()
