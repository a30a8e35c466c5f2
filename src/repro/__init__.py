"""repro — a reproduction of "Joins via Geometric Resolutions" (PODS 2015).

The package implements the Tetris join algorithm and its geometric
resolution framework end to end:

* :mod:`repro.core` — dyadic boxes, geometric resolution, the Tetris
  engine (Preloaded / Reloaded / load-balanced), box certificates;
* :mod:`repro.relational` — schemas, relations, join queries, hypergraph
  widths, AGM bounds;
* :mod:`repro.indexes` — B-tree/trie, quadtree and KD-tree indexes that
  expose their gaps as dyadic boxes;
* :mod:`repro.joins` — join evaluation via Tetris plus the classical
  baselines (Yannakakis, Leapfrog/worst-case-optimal, hash, nested loop);
* :mod:`repro.engine` — the adaptive planner and unified execution
  engine: ``execute(query, db)`` picks the cost-optimal backend, with
  plan caching and EXPLAIN;
* :mod:`repro.sat` — the DPLL/#SAT connection;
* :mod:`repro.klee` — Klee's measure problem over the Boolean semiring;
* :mod:`repro.workloads` — generators incl. the paper's hard instances.

Quickstart::

    from repro import join_tetris, triangle_query, Database, Relation, Domain

    query = triangle_query()
    db = Database([
        Relation(query.atom("R"), [(0, 1)], Domain(4)),
        Relation(query.atom("S"), [(1, 2)], Domain(4)),
        Relation(query.atom("T"), [(0, 2)], Domain(4)),
    ])
    result = join_tetris(query, db)
    print(result.tuples)  # [(0, 1, 2)]
"""

from repro.core import (
    BoxSetOracle,
    ResolutionStats,
    TetrisEngine,
    boolean_box_cover,
    solve_bcp,
    tetris_preloaded,
    tetris_reloaded,
)
from repro.core.balance import tetris_preloaded_lb, tetris_reloaded_lb
from repro.core.certificates import (
    certificate_size,
    minimal_certificate,
    minimum_certificate,
)
from repro.engine import (
    ExecutionResult,
    Plan,
    execute,
    explain_text,
    plan_query,
)
from repro.joins import (
    join_hash,
    join_leapfrog,
    join_nested_loop,
    join_tetris,
    join_yannakakis,
)
from repro.relational import (
    Database,
    Domain,
    Hypergraph,
    JoinQuery,
    Relation,
    RelationSchema,
    agm_bound,
    fhtw,
    triangle_query,
)

__version__ = "1.0.0"

__all__ = [
    "BoxSetOracle",
    "Database",
    "Domain",
    "ExecutionResult",
    "Hypergraph",
    "JoinQuery",
    "Plan",
    "Relation",
    "RelationSchema",
    "ResolutionStats",
    "TetrisEngine",
    "agm_bound",
    "boolean_box_cover",
    "certificate_size",
    "execute",
    "explain_text",
    "fhtw",
    "join_hash",
    "join_leapfrog",
    "join_nested_loop",
    "join_tetris",
    "join_yannakakis",
    "minimal_certificate",
    "minimum_certificate",
    "plan_query",
    "solve_bcp",
    "tetris_preloaded",
    "tetris_preloaded_lb",
    "tetris_reloaded",
    "tetris_reloaded_lb",
    "triangle_query",
]
