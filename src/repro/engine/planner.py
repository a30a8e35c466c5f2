"""The adaptive query planner: Table 1 as a decision procedure.

``plan_query`` inspects a query's structure (:func:`structure_of`) and
data statistics (:func:`collect_stats`), prices the backends ``auto`` can
pick (:data:`~repro.engine.cost.CANDIDATES`) with the calibrated cost
model, and returns a :class:`Plan` naming the chosen backend, index kind
and GAO together with the evidence behind the choice — the full
candidate table and the structural profile.

Planning is split into shape work and data work.  Three content-keyed
caches keep either from being paid twice (``JoinQuery.signature`` is
the ``((name, attrs), …)`` tuple):

- the **plan cache** is keyed on signature + data + options (the stats
  fingerprint, algorithm, index kind, GAO and workers): a hit skips
  planning entirely;
- the **stats cache** (:func:`collect_stats`) is keyed on signature +
  data: reloading identical data hits it;
- the **shape memo** (:func:`~repro.engine.stats.query_shape`) is keyed
  on the signature only.  Its :class:`~repro.engine.stats.QueryShape`
  holds what is a pure function of the hypergraph: the
  :class:`StructureProfile` (acyclicity, treewidth, the fhtw LPs, the
  GAO), each variable's atoms, the GAOs and atom orders as index lists,
  and the AGM LP's optimal bases.  A new database over a known shape
  pays only the arithmetic on its own numbers: its profiles, an AGM
  read off a kept basis (the simplex runs only for a basis the shape
  has not met), and the cost formulas.

:func:`clear_plan_cache` drops all three, so a cold plan is cold.
``use_cache=False`` bypasses the plan cache only; the memo cannot go
stale (its key is its functions' whole input, and a kept basis is
re-checked against each instance's weights before it is used).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.engine.cost import (
    CostEstimate,
    CostModel,
    StructureProfile,
    structure_of,
)
from repro.engine.stats import (
    _SHAPE_MEMO,
    QueryStats,
    assumed_stats,
    collect_stats,
    query_shape,
)
from repro.obs import tracing as _tracing
from repro.obs.metrics import REGISTRY as _METRICS
from repro.relational.query import ContentLRU, Database, JoinQuery

#: The index families a plan can name (``index_kind=``): the planner,
#: ``make_oracle`` and the CLI's ``--index-kind`` accept exactly these.
INDEX_KINDS = ("btree", "dyadic", "kdtree")


@dataclass(frozen=True, slots=True)
class Plan:
    """An executable decision: backend + physical knobs + the evidence.

    ``workers > 1`` (equivalently ``num_shards > 1``) marks a
    shard-parallel plan: the executor partitions the output space into
    ``num_shards`` dyadic shards on ``split_attrs`` and runs the chosen
    backend on a pool of ``workers`` processes.  A forced-only backend's
    plan has no ``predicted_cost`` (``None``).
    """

    backend: str
    index_kind: str
    gao: Tuple[str, ...]
    predicted_cost: Optional[float]
    chosen: CostEstimate
    candidates: Tuple[CostEstimate, ...]
    structure: StructureProfile
    stats: QueryStats
    algorithm: str
    cache_hit: bool = False
    workers: int = 1
    num_shards: int = 1
    split_attrs: Tuple[str, ...] = ()

    @property
    def variant(self) -> Optional[str]:
        """The Tetris variant this plan runs, if a Tetris backend."""
        if self.backend == "tetris-preloaded":
            return "preloaded"
        if self.backend == "tetris-reloaded":
            return "reloaded"
        return None


_PLAN_CACHE = ContentLRU(256)


def clear_plan_cache() -> None:
    """Drop every cached plan, the stats and the shapes behind them."""
    from repro.engine.stats import clear_stats_cache

    _PLAN_CACHE.clear()
    _SHAPE_MEMO.clear()
    clear_stats_cache()


def plan_cache_info() -> Dict[str, int]:
    return {
        "entries": len(_PLAN_CACHE),
        "hits": _PLAN_CACHE.hits,
        "misses": _PLAN_CACHE.misses,
        "capacity": _PLAN_CACHE.capacity,
    }


def _collect_plan_cache_metrics() -> Dict[str, int]:
    """Registry collector: the plan LRU under ``engine.plan_cache.*``."""
    return {
        "engine.plan_cache.hits": _PLAN_CACHE.hits,
        "engine.plan_cache.misses": _PLAN_CACHE.misses,
        "engine.plan_cache.entries": len(_PLAN_CACHE),
    }


_METRICS.register_collector("plan_cache", _collect_plan_cache_metrics)


def plan_query(
    query: JoinQuery,
    db: Optional[Database] = None,
    stats: Optional[QueryStats] = None,
    algorithm: str = "auto",
    index_kind: Optional[str] = None,
    gao: Optional[Sequence[str]] = None,
    use_cache: bool = True,
    assumed_rows: int = 1000,
    workers: Optional[int] = None,
) -> Plan:
    """Produce a :class:`Plan` for a query.

    With ``algorithm="auto"`` the two :data:`~repro.engine.cost.CANDIDATES`
    (hash and leapfrog) are priced and the cheapest wins.  Naming a
    backend forces it: a candidate still records its estimate, while
    every other backend (the two Tetris variants, ``yannakakis`` and
    ``nested-loop``) is forced-only and carries an unpriced one.  A backend
    whose ``BACKEND_TABLE`` spec requires an α-acyclic query raises
    ``ValueError`` on any other.
    Statistics come from ``stats`` if given, else are collected from
    ``db``, else assumed uniform (``assumed_rows`` tuples per relation) —
    the no-data mode ``repro explain`` uses.

    ``workers=N`` puts shard-parallel execution on the table: under
    ``algorithm="auto"`` every candidate is additionally priced as a
    parallel candidate on N workers (dispatch + shipping overheads
    included) and the overall cheapest wins — small queries stay serial;
    a *forced* backend combined with ``workers`` always takes the
    parallel plan (the caller asked for both).
    """
    with _tracing.span("plan", algorithm=algorithm) as sp:
        plan = _plan_query_impl(
            query, db, stats, algorithm, index_kind, gao, use_cache,
            assumed_rows, workers,
        )
        if sp is not None:
            sp.attrs.update(
                backend=plan.backend,
                cache_hit=plan.cache_hit,
                predicted_cost=plan.predicted_cost,
                workers=plan.workers,
            )
        return plan


def _plan_query_impl(
    query: JoinQuery,
    db: Optional[Database],
    stats: Optional[QueryStats],
    algorithm: str,
    index_kind: Optional[str],
    gao: Optional[Sequence[str]],
    use_cache: bool,
    assumed_rows: int,
    workers: Optional[int],
) -> Plan:
    # The executor imports this module, so its table is read lazily.
    from repro.engine.executor import BACKEND_TABLE, normalize_algorithm

    algorithm = normalize_algorithm(algorithm)
    if index_kind is not None and index_kind not in INDEX_KINDS:
        raise ValueError(
            f"unknown index kind {index_kind!r}; expected one of "
            f"{', '.join(INDEX_KINDS)}"
        )
    if gao is not None and sorted(gao) != sorted(query.variables):
        raise ValueError(
            f"GAO {tuple(gao)} is not a permutation of {query.variables}"
        )
    if stats is None:
        if db is not None:
            stats = collect_stats(query, db)
        else:
            stats = assumed_stats(query, rows=assumed_rows)
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    key = (
        stats.fingerprint,
        algorithm,
        index_kind,
        tuple(gao) if gao is not None else None,
        workers,
    )
    if use_cache:
        cached = _PLAN_CACHE.get(key)
        if cached is not None:
            return dataclasses.replace(cached, cache_hit=True)

    shape = query_shape(query)
    profile = shape.profile
    if profile is None:
        profile = shape.profile = structure_of(query)
    if (
        algorithm != "auto"
        and BACKEND_TABLE[algorithm].requires_acyclic
        and not profile.acyclic
    ):
        raise ValueError(
            f"backend {algorithm!r} is not applicable: "
            f"query is not α-acyclic"
        )
    num_shards = 1
    split_attrs: Tuple[str, ...] = ()
    if workers is not None:
        from repro.parallel.partition import (
            choose_split_attrs,
            default_num_shards,
        )

        distinct: Dict[str, int] = {}
        for p in stats.relations:
            for a in p.attrs:
                distinct[a] = max(distinct.get(a, 0), p.distinct_of(a))
        split_attrs = choose_split_attrs(query, distinct)
        if split_attrs:
            num_shards = default_num_shards(workers)
    candidates = CostModel().estimate_all(
        query, profile, stats,
        workers=workers, num_shards=num_shards,
    )
    if algorithm == "auto":
        # min() is stable, so CANDIDATES order breaks exact ties.
        chosen = min(candidates, key=lambda c: c.cost)
    else:
        # A forced backend with a worker count takes the parallel
        # candidate; without one, the serial estimate.  A forced-only
        # backend has neither, and runs unpriced.
        want_parallel = workers is not None and num_shards > 1
        by_key = {(c.backend, c.parallel): c for c in candidates}
        chosen = by_key.get((algorithm, want_parallel))
        if chosen is None:
            chosen = CostEstimate(
                algorithm, None, None, "forced; not priced",
                workers=workers if want_parallel else 1,
                parallel=want_parallel,
            )
    parallel = chosen.parallel
    # A caller's GAO is never overridden; otherwise the order the chosen
    # estimate was priced on (leapfrog's may be ``query.variables``, so
    # its rows arrive sorted), else the structural one.
    if gao is not None:
        plan_gao = tuple(gao)
    else:
        plan_gao = chosen.gao if chosen.gao is not None else profile.gao
    plan = Plan(
        backend=chosen.backend,
        index_kind=index_kind if index_kind is not None else "btree",
        gao=plan_gao,
        predicted_cost=chosen.cost,
        chosen=chosen,
        candidates=candidates,
        structure=profile,
        stats=stats,
        algorithm=algorithm,
        workers=chosen.workers if parallel else 1,
        num_shards=num_shards if parallel else 1,
        split_attrs=split_attrs if parallel else (),
    )
    if use_cache:
        _PLAN_CACHE.put(key, plan)
    return plan
