"""Join evaluation via Tetris (Proposition 3.6).

Wires a :class:`~repro.relational.query.JoinQuery` over an indexed database
into a Box Cover Problem instance (:func:`tetris_engine` — the one place
a query becomes an oracle, an SAO and a :class:`TetrisEngine`) and runs
the requested Tetris variant (:func:`join_tetris`) on the engine's one
loop, the generated kernel.  The BCP output — the
points covered by *no* gap box — is exactly the join output, returned
sorted in ``query.variables`` order.  A join reaches it through the
engine's backend table (``tetris-preloaded`` / ``tetris-reloaded`` in
:data:`~repro.engine.executor.BACKEND_TABLE`); the planner prices Tetris
but never runs it, and counts and existence tests are the cursor
aggregates of :mod:`repro.joins.aggregates` over those backends.

The splitting attribute order defaults to the theorem-appropriate choice:
reverse GYO elimination for α-acyclic queries (Theorem D.8), a minimum
induced-width elimination order otherwise (Theorems 4.6 / 4.9).

The whole pipeline below the :class:`JoinResult` boundary is packed:
indexes emit packed gap boxes, :class:`QueryGapOracle` lifts them packed,
and the engine resolves packed — output tuples of domain values are the
only unpacked artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.resolution import ResolutionStats
from repro.core.tetris import TetrisEngine
from repro.engine.planner import INDEX_KINDS
from repro.indexes.oracle import (
    QueryGapOracle,
    build_btree_indexes,
    build_dyadic_indexes,
    build_kdtree_indexes,
    default_gao,
)
from repro.relational.query import Database, JoinQuery


@dataclass
class JoinResult:
    """Join output plus the run's instrumentation."""

    tuples: List[Tuple[int, ...]]
    variables: Tuple[str, ...]
    stats: ResolutionStats
    gao: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)


def make_oracle(
    query: JoinQuery,
    db: Database,
    index_kind: str = "btree",
    gao: Optional[Sequence[str]] = None,
) -> Tuple[QueryGapOracle, Tuple[str, ...]]:
    """Build the gap-box oracle for a query under a chosen index family."""
    gao = tuple(gao) if gao is not None else default_gao(query)
    if sorted(gao) != sorted(query.variables):
        raise ValueError(
            f"GAO {gao} is not a permutation of {query.variables}"
        )
    if index_kind not in INDEX_KINDS:
        raise ValueError(
            f"unknown index kind {index_kind!r}; expected one of "
            f"{', '.join(INDEX_KINDS)}"
        )
    if index_kind == "btree":
        indexes = build_btree_indexes(query, db, gao)
    elif index_kind == "dyadic":
        indexes = build_dyadic_indexes(query, db)
    else:
        indexes = build_kdtree_indexes(query, db)
    return QueryGapOracle(query, indexes), gao


def tetris_engine(
    query: JoinQuery,
    db: Database,
    index_kind: str = "btree",
    gao: Optional[Sequence[str]] = None,
    **engine_kwargs,
) -> Tuple[TetrisEngine, QueryGapOracle, Tuple[str, ...]]:
    """The one place a query becomes a :class:`TetrisEngine`;
    :func:`join_tetris` is its one caller in the package.

    Builds the gap-box oracle, turns the GAO into the engine's SAO (the
    permutation of space order into GAO order) and constructs the engine
    over the query's variables at the database's domain depth;
    ``engine_kwargs`` (``stats``, ``cache_resolvents``) go to the engine
    as given.  Returns ``(engine,
    oracle, gao)`` — run it with ``engine.run(oracle, ...)``.
    """
    oracle, gao = make_oracle(query, db, index_kind=index_kind, gao=gao)
    attrs = oracle.attrs
    sao = tuple(attrs.index(a) for a in gao)
    engine = TetrisEngine(
        len(attrs), db.domain.depth, sao=sao, **engine_kwargs
    )
    return engine, oracle, gao


def join_tetris(
    query: JoinQuery,
    db: Database,
    variant: str = "preloaded",
    index_kind: str = "btree",
    gao: Optional[Sequence[str]] = None,
    stats: Optional[ResolutionStats] = None,
    cache_resolvents: bool = True,
    max_outputs: Optional[int] = None,
) -> JoinResult:
    """Evaluate a natural join with Tetris.

    ``variant`` is ``'preloaded'`` (Section 4.3 worst-case configuration)
    or ``'reloaded'`` (Section 4.4 certificate-based configuration); both
    run the one frontier-resuming Tetris loop.  ``max_outputs`` caps the engine's enumeration — it stops after that
    many uncovered points, so a capped run materializes O(max_outputs)
    output rows, not Z.
    """
    if variant not in ("preloaded", "reloaded"):
        raise ValueError(f"unknown variant {variant!r}")
    engine, oracle, gao = tetris_engine(
        query, db, index_kind, gao, cache_resolvents=cache_resolvents,
        stats=stats,
    )
    points = engine.run(
        oracle, preload=variant == "preloaded", max_outputs=max_outputs,
    )
    return JoinResult(sorted(points), oracle.attrs, engine.stats, gao)
