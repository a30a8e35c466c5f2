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

import importlib
import sys


def _lazy_exports(package: str, exports: dict):
    """A module ``__getattr__`` (PEP 562) serving ``exports``, a
    name -> defining-module table: a name's module is imported on its
    first use, and the value is cached on ``package``."""

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__getattr__ = _lazy_exports(__name__, {
    "BoxSetOracle": "repro.core.tetris",
    "Database": "repro.relational.query",
    "Domain": "repro.relational.schema",
    "ExecutionResult": "repro.engine.executor",
    "Hypergraph": "repro.relational.hypergraph",
    "JoinQuery": "repro.relational.query",
    "Plan": "repro.engine.planner",
    "Relation": "repro.relational.relation",
    "RelationSchema": "repro.relational.schema",
    "ResolutionStats": "repro.core.resolution",
    "TetrisEngine": "repro.core.tetris",
    "agm_bound": "repro.relational.agm",
    "boolean_box_cover": "repro.core.tetris",
    "certificate_size": "repro.core.certificates",
    "execute": "repro.engine.executor",
    "explain_text": "repro.engine.explain",
    "fhtw": "repro.relational.agm",
    "join_hash": "repro.joins.hashjoin",
    "join_leapfrog": "repro.joins.leapfrog",
    "join_nested_loop": "repro.joins.nested_loop",
    "join_tetris": "repro.joins.tetris_join",
    "join_yannakakis": "repro.joins.yannakakis",
    "minimal_certificate": "repro.core.certificates",
    "minimum_certificate": "repro.core.certificates",
    "plan_query": "repro.engine.planner",
    "solve_bcp": "repro.core.tetris",
    "tetris_preloaded": "repro.core.tetris",
    "tetris_preloaded_lb": "repro.core.balance",
    "tetris_reloaded": "repro.core.tetris",
    "tetris_reloaded_lb": "repro.core.balance",
    "triangle_query": "repro.relational.query",
})

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
