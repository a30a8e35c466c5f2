"""Statistics collection feeding the adaptive planner.

The planner's data signals, gathered once per (query, database) pair:

* **per-relation profiles** — cardinality and per-attribute distinct
  counts, read off the :meth:`Relation.distinct_counts` hook (cached on
  the immutable relation; counted off the columnar core's cached sorted
  views and columns, never a fresh sort);
* **output estimates** — the instance AGM bound (the provable upper
  bound of Table 1 row 2) and a System-R-style independence estimate,
  whose minimum is the planner's working Ẑ.

Nothing here runs a join: the paper's |C| (Theorem 4.7's Õ(|C| + Z))
depends on the GAO, so the cost model prices it by the N·d bound rather
than by a Tetris run under a data-blind order.

Every stats object carries a :attr:`fingerprint` so plans can be cached
and invalidated purely by content, never by object identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.obs import tracing as _tracing
from repro.obs.metrics import REGISTRY as _METRICS
from repro.relational.agm import agm_from_sizes
from repro.relational.query import ContentLRU, Database, JoinQuery


@dataclass(frozen=True)
class RelationProfile:
    """Statistics of one input relation."""

    name: str
    attrs: Tuple[str, ...]
    cardinality: int
    distinct: Mapping[str, int]
    #: Per-attribute (min, max) value ranges; empty when unknown.
    ranges: Mapping[str, Tuple[int, int]] = field(default_factory=dict)

    def distinct_of(self, attr: str) -> int:
        return self.distinct.get(attr, 1)

    def range_of(self, attr: str) -> Optional[Tuple[int, int]]:
        return self.ranges.get(attr)


@dataclass(frozen=True)
class QueryStats:
    """Everything the cost model reads about a (query, database) pair."""

    relations: Tuple[RelationProfile, ...]
    total_tuples: int
    domain_depth: int
    agm: float
    independence_estimate: float
    fingerprint: Tuple
    assumed: bool = False
    _by_name: Dict[str, RelationProfile] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        self._by_name.update({p.name: p for p in self.relations})

    def relation(self, name: str) -> RelationProfile:
        return self._by_name[name]

    @property
    def output_estimate(self) -> float:
        """Ẑ: the smaller of the AGM bound and the independence estimate."""
        return min(self.agm, self.independence_estimate)


def value_overlap_fraction(
    ranges: Sequence[Tuple[int, int]]
) -> float:
    """Shared fraction of the widest of several (min, max) value ranges.

    ``1.0`` means every range covers the intersection of all of them;
    ``0.0`` means some pair is disjoint — the join on that attribute is
    empty no matter what the independence estimate says.  This is what
    lets the planner price the split-certificate family (disjoint value
    halves) correctly for backends that seek past empty intersections.
    """
    lo = max(r[0] for r in ranges)
    hi = min(r[1] for r in ranges)
    if hi < lo:
        return 0.0
    width = max(r[1] - r[0] + 1 for r in ranges)
    return (hi - lo + 1) / width


def apply_matching_selectivities(
    estimate: float, occurrences: Mapping[str, Sequence[int]]
) -> float:
    """Divide a cross-product estimate by per-variable join selectivities.

    ``occurrences`` maps each variable to the distinct counts it has in
    every relation mentioning it; under independence each repeated
    occurrence contributes a ``1 / max distinct`` matching factor — the
    System-R rule the cost model's quantity estimates share.
    """
    for counts in occurrences.values():
        top = max(counts)
        for _ in range(len(counts) - 1):
            estimate /= max(top, 1)
    return estimate


def _independence_estimate(
    query: JoinQuery, profiles: Sequence[RelationProfile]
) -> float:
    """System-R style output estimate under attribute independence."""
    estimate = 1.0
    for p in profiles:
        estimate *= p.cardinality
    if estimate == 0.0:
        return 0.0
    occurrences: Dict[str, list] = {}
    for p in profiles:
        for a in p.attrs:
            occurrences.setdefault(a, []).append(p.distinct_of(a))
    return apply_matching_selectivities(estimate, occurrences)


#: Content-keyed, so repeated executions skip the AGM LP.
_STATS_CACHE = ContentLRU(256)


def clear_stats_cache() -> None:
    _STATS_CACHE.clear()


def _collect_stats_cache_metrics() -> Dict[str, int]:
    """Registry collector: the stats LRU under ``engine.stats_cache.*``."""
    return {
        "engine.stats_cache.hits": _STATS_CACHE.hits,
        "engine.stats_cache.misses": _STATS_CACHE.misses,
        "engine.stats_cache.entries": len(_STATS_CACHE),
    }


_METRICS.register_collector("stats_cache", _collect_stats_cache_metrics)


def collect_stats(query: JoinQuery, db: Database) -> QueryStats:
    """Gather the planner's statistics for a query over a database.

    Results are cached on content (query signature + per-relation
    fingerprints): relations are immutable, so identical fingerprints
    guarantee identical statistics.
    """
    key = (query.signature, db.stats_fingerprint())
    cached = _STATS_CACHE.get(key)
    if cached is not None:
        return cached
    span = _tracing.span("stats.collect", relations=len(query.atoms))
    with span:
        return _collect_stats_uncached(query, db, key)


def _collect_stats_uncached(
    query: JoinQuery, db: Database, key: Tuple
) -> QueryStats:
    profiles = []
    for atom in query.atoms:
        rel = db[atom.name]
        counts = rel.distinct_counts()
        # Key every per-attribute map by the *query* attribute names
        # (positional translation): a relation whose schema names differ
        # from the atom's variables must not silently degrade to
        # distinct=1 everywhere.
        profiles.append(
            RelationProfile(
                name=atom.name,
                attrs=atom.attrs,
                cardinality=len(rel),
                distinct={
                    attr: counts[a]
                    for attr, a in zip(atom.attrs, rel.attrs)
                    if a in counts
                },
                ranges={
                    attr: rel.column_ranges()[a]
                    for attr, a in zip(atom.attrs, rel.attrs)
                    if a in rel.column_ranges()
                },
            )
        )
    sizes = {p.name: p.cardinality for p in profiles}
    stats = QueryStats(
        relations=tuple(profiles),
        total_tuples=db.total_tuples,
        domain_depth=db.domain.depth,
        agm=agm_from_sizes(query, sizes),
        independence_estimate=_independence_estimate(query, profiles),
        fingerprint=key,
    )
    _STATS_CACHE.put(key, stats)
    return stats


def assumed_stats(
    query: JoinQuery, rows: int = 1000, depth: Optional[int] = None
) -> QueryStats:
    """Synthetic statistics for planning without data (``repro explain``).

    Every relation is assumed to hold ``rows`` tuples with all-distinct
    attribute values — the uniform no-information default.  The resulting
    stats are flagged :attr:`QueryStats.assumed` so EXPLAIN output and the
    plan cache can tell them apart from measured ones.
    """
    from repro.relational.schema import Domain

    if depth is None:
        depth = Domain.for_values(max(rows - 1, 1)).depth
    profiles = tuple(
        RelationProfile(
            name=atom.name,
            attrs=atom.attrs,
            cardinality=rows,
            distinct={a: rows for a in atom.attrs},
        )
        for atom in query.atoms
    )
    sizes = {p.name: p.cardinality for p in profiles}
    fingerprint = (query.signature, ("assumed", rows, depth))
    return QueryStats(
        relations=profiles,
        total_tuples=rows * len(profiles),
        domain_depth=depth,
        agm=agm_from_sizes(query, sizes),
        independence_estimate=_independence_estimate(query, profiles),
        fingerprint=fingerprint,
        assumed=True,
    )
