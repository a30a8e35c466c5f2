"""Boolean, counting and grouping aggregates over join results.

``count_rows`` / ``any_rows`` / ``group_counts`` work over *any* engine
backend by draining a streaming
:class:`~repro.engine.executor.ResultCursor` block by block
(``cursor.blocks()``): the aggregate itself holds O(1) state (O(groups)
for the group-by) and never collects the result set — a count sums block
lengths and never touches a row.  What the *backend* buffers is its own
affair — the pipeline backends buffer only base-relation hash tables,
while the Tetris backends materialize their output inside the engine
before the cursor streams it.  ``any_rows`` caps that via ``limit=1``:
the engine stops at the first uncovered point (the Boolean BCP of
Definition 3.5), so an early witness exits without enumerating Z tuples.
A Tetris count or existence test is ``algorithm="tetris-preloaded"``
(or ``"tetris-reloaded"``) on these, like any other backend.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.relational.query import Database, JoinQuery


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

    ordered = count_rows(triangle_query(), db)
    if ordered % 6 != 0:
        raise ValueError(
            "ordered embedding count not divisible by 6 — is the edge "
            "relation symmetric and loop-free?"
        )
    return ordered // 6
