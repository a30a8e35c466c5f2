"""Boolean, counting and grouping aggregates over join results.

Two layers:

* **Tetris-native** — ``join_exists`` answers the Boolean join ("is the
  output non-empty?") by running Tetris with an output cap of one — the
  engine stops at the first uncovered point, so an early witness exits
  without enumerating Z tuples.  ``join_count`` counts output tuples;
  with Tetris this is free model counting (the same mechanism as #SAT in
  :mod:`repro.sat`).  Both run the engine that
  :func:`repro.joins.tetris_join.tetris_engine` builds, so they ride
  the packed gap-box pipeline end to end.
* **Cursor-consuming** — ``count_rows`` / ``any_rows`` / ``group_counts``
  work over *any* engine backend by draining a streaming
  :class:`~repro.engine.executor.ResultCursor` block by block
  (``cursor.blocks()``): the aggregate itself holds O(1) state
  (O(groups) for the group-by) and never collects the result set — a
  count sums block lengths and never touches a row.  What the *backend* buffers is its own affair — the
  pipeline backends buffer only base-relation hash tables, while the
  Tetris backends materialize their output inside the engine before the
  cursor streams it (``any_rows`` caps that via ``limit=1``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.resolution import ResolutionStats
from repro.joins.tetris_join import tetris_engine
from repro.relational.query import Database, JoinQuery


def join_exists(
    query: JoinQuery,
    db: Database,
    index_kind: str = "btree",
    gao: Optional[Sequence[str]] = None,
    stats: Optional[ResolutionStats] = None,
) -> bool:
    """Boolean join: True iff the join output is non-empty.

    Equivalent to the Boolean BCP (Definition 3.5) being *uncovered*;
    stops at the first output tuple found.
    """
    engine, oracle, _ = tetris_engine(query, db, index_kind, gao, stats=stats)
    return bool(engine.run(oracle, preload=True, max_outputs=1))


def join_count(
    query: JoinQuery,
    db: Database,
    index_kind: str = "btree",
    gao: Optional[Sequence[str]] = None,
    stats: Optional[ResolutionStats] = None,
) -> int:
    """Number of output tuples of the join (full enumeration count)."""
    engine, oracle, _ = tetris_engine(query, db, index_kind, gao, stats=stats)
    return len(engine.run(oracle, preload=True))


def count_rows(
    query: JoinQuery,
    db: Database,
    algorithm: str = "auto",
    **execute_kwargs,
) -> int:
    """Output cardinality via a streaming cursor.

    Works over any backend; blocks are measured as they stream off the
    cursor, never collected — the count itself is O(1) state on top of
    whatever the chosen backend buffers internally.
    """
    from repro.engine.executor import execute_cursor

    cursor = execute_cursor(query, db, algorithm=algorithm,
                            **execute_kwargs)
    return sum(map(len, cursor.blocks()))


def any_rows(
    query: JoinQuery,
    db: Database,
    algorithm: str = "auto",
    **execute_kwargs,
) -> bool:
    """Boolean join over any backend: early-terminates after one row."""
    from repro.engine.executor import execute_cursor

    execute_kwargs.pop("limit", None)  # existence needs exactly one row
    cursor = execute_cursor(
        query, db, algorithm=algorithm, limit=1, **execute_kwargs
    )
    for _ in cursor:
        return True
    return False


def group_counts(
    query: JoinQuery,
    db: Database,
    by: Sequence[str],
    algorithm: str = "auto",
    **execute_kwargs,
) -> Dict[Tuple[int, ...], int]:
    """COUNT(*) grouped by a subset of the query's variables.

    Streams the cursor once; the aggregate's own state is O(distinct
    groups), never O(output).
    """
    from repro.engine.executor import execute_cursor

    positions = []
    for attr in by:
        if attr not in query.variables:
            raise ValueError(
                f"{attr!r} is not a variable of {query}"
            )
        positions.append(query.variables.index(attr))
    cursor = execute_cursor(query, db, algorithm=algorithm,
                            **execute_kwargs)
    counts: Dict[Tuple[int, ...], int] = {}
    for block in cursor.blocks():
        for row in block:
            key = tuple(row[i] for i in positions)
            counts[key] = counts.get(key, 0) + 1
    return counts


def triangle_count(db: Database) -> int:
    """Undirected triangles of a symmetric edge relation database.

    Expects the triangle query's relations R, S, T to hold the same
    symmetrized edge set; each undirected triangle appears as six ordered
    embeddings.
    """
    from repro.relational.query import triangle_query

    ordered = join_count(triangle_query(), db)
    if ordered % 6 != 0:
        raise ValueError(
            "ordered embedding count not divisible by 6 — is the edge "
            "relation symmetric and loop-free?"
        )
    return ordered // 6
