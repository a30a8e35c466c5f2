"""The traced run's stepwise driver: one ``execute()`` call, layer by layer.

``execute()`` plans, picks a backend, runs it and sorts.  The traced run makes
the same calls itself — ``plan_query`` → ``make_oracle`` → ``oracle.boxes()``
→ ``TetrisEngine.run`` → sort, or the serial joins, or the merged parallel
cursor → sort — each inside a benchmark-side span, so every layer's time is
measured at its public boundary without any tracing inside the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.resolution import ResolutionStats
from repro.core.tetris import TetrisEngine
from repro.engine import execute_cursor, plan_query
from repro.joins import (
    join_hash,
    join_leapfrog,
    join_nested_loop,
    join_yannakakis,
)
from repro.joins.tetris_join import make_oracle
from repro.relational import Database, Domain, JoinQuery, Relation, RelationSchema

from inputs import Instance
from spans import Tracer

Row = Tuple[int, ...]

SERIAL_JOINS = {
    "leapfrog": lambda q, db, plan: join_leapfrog(q, db, gao=plan.gao),
    "hash": lambda q, db, plan: join_hash(q, db),
    "yannakakis": lambda q, db, plan: join_yannakakis(q, db),
    "nested-loop": lambda q, db, plan: join_nested_loop(q, db),
}


@dataclass
class Call:
    """One ``execute()`` invocation: a built query and database plus its arguments."""

    instance: Instance
    query: JoinQuery
    db: Database
    algorithm: str
    workers: Optional[int] = None

    @property
    def kwargs(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "workers": self.workers,
            "gao": self.instance.gao,
        }


def build_call(
    inst: Instance, algorithm: str, workers: Optional[int] = None
) -> Call:
    """Construct the program's ``JoinQuery`` / ``Relation`` / ``Database`` objects."""
    domain = Domain(inst.depth)
    query = JoinQuery([RelationSchema(name, attrs) for name, attrs in inst.atoms])
    db = Database(
        [Relation(atom, inst.data[atom.name], domain) for atom in query.atoms]
    )
    return Call(inst, query, db, algorithm, workers)


def tetris_engine(call: Call, oracle, gao) -> TetrisEngine:
    attrs = oracle.attrs
    return TetrisEngine(
        len(attrs), call.db.domain.depth,
        sao=tuple(attrs.index(a) for a in gao), stats=ResolutionStats(),
    )


def run_call(call: Call, tracer: Tracer) -> List[Row]:
    """What ``execute(**call.kwargs)`` does, one span per layer."""
    query, db = call.query, call.db
    with tracer.span("planner.plan") as sp:
        plan = plan_query(query, db, **call.kwargs)
        sp.attrs.update(backend=plan.backend, cache_hit=plan.cache_hit)
    if plan.num_shards > 1:
        # The merged cursor is how execute() itself drains a parallel run;
        # its report splits the span into partition and dispatch loop.
        with tracer.span("parallel.cursor", backend=plan.backend) as sp:
            with execute_cursor(query, db, plan=plan) as cursor:
                rows = cursor.fetchall()
                report = cursor.parallel
            sp.attrs.update(
                shards=report.num_shards,
                partition_s=report.partition_seconds,
                loop_s=report.loop_seconds,
            )
        with tracer.span("executor.sort"):
            rows.sort()
        return rows
    if plan.variant is None:
        with tracer.span("joins.kernel", backend=plan.backend) as sp:
            rows = SERIAL_JOINS[plan.backend](query, db, plan)
            sp.attrs["rows"] = len(rows)
        return rows
    with tracer.span("indexes.build"):
        oracle, gao = make_oracle(
            query, db, index_kind=plan.index_kind, gao=plan.gao
        )
    engine = tetris_engine(call, oracle, gao)
    preload = plan.variant == "preloaded"
    if preload:
        # ``boxes()`` memoizes, so the run below finds them extracted.
        with tracer.span("indexes.gap_extract") as sp:
            sp.attrs["boxes"] = len(oracle.boxes())
    with tracer.span("tetris.run") as sp:
        points = engine.run(oracle, preload=preload)
        stats = engine.stats
        sp.attrs.update(
            resolutions=stats.resolutions,
            containment_queries=stats.containment_queries,
            oracle_queries=stats.oracle_queries,
            boxes_loaded=stats.boxes_loaded,
            cache_hits=stats.cache_hits,
        )
    with tracer.span("executor.sort"):
        return sorted(points)
