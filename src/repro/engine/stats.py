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
and invalidated purely by content, never by object identity.  What
depends on the query's shape alone — which atoms mention each variable,
the AGM LP's optimal bases — is kept per signature in a
:class:`QueryShape` (:func:`query_shape`), which ``clear_plan_cache()``
empties with the planner's caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul, sub
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import tracing as _tracing
from repro.obs.metrics import REGISTRY as _METRICS
from repro.relational.agm import OptimalBasis, optimal_basis
from repro.relational.query import ContentLRU, Database, JoinQuery


@dataclass(frozen=True, slots=True)
class RelationProfile:
    """Statistics of one input relation.

    Both maps are keyed by the query's attribute names.  When those are
    the relation's own, they are the relation's cached maps
    (:meth:`~repro.relational.relation.Relation.distinct_counts`,
    :meth:`~repro.relational.relation.Relation.column_ranges`), shared:
    treat them as read-only.
    """

    name: str
    attrs: Tuple[str, ...]
    cardinality: int
    distinct: Mapping[str, int]
    #: Per-attribute (min, max) value ranges; empty when unknown.
    ranges: Mapping[str, Tuple[int, int]] = field(default_factory=dict)

    def distinct_of(self, attr: str) -> int:
        return self.distinct.get(attr, 1)


#: Per variable, in ``query.variables`` order, ``(participants,
#: distinct, selectivity, overlap)`` — see
#: :meth:`QueryShape.variable_tables`.
VariableTables = List[Tuple[Tuple[int, ...], List[int], float, float]]


@dataclass(frozen=True, slots=True)
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
    _tables: VariableTables = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self):
        self._by_name.update({p.name: p for p in self.relations})

    def relation(self, name: str) -> RelationProfile:
        return self._by_name[name]

    def variable_tables(self, shape: QueryShape) -> VariableTables:
        """The shape's :meth:`QueryShape.variable_tables` over these
        profiles, worked out once per stats object."""
        if not self._tables:
            self._tables[:] = shape.variable_tables(
                [self._by_name[name] for name in shape.names]
            )
        return self._tables

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
    lows, highs = zip(*ranges)
    lo = max(lows)
    hi = min(highs)
    if hi < lo:
        return 0.0
    return (hi - lo + 1) / (max(map(sub, highs, lows)) + 1)


class QueryShape:
    """What planning reads off a query's shape, worked out once.

    A pure function of :attr:`JoinQuery.signature`, kept in the shape
    memo (:func:`query_shape`) so each new instance of a known shape
    pays only for arithmetic on its own numbers:

    * ``names`` — the atom names, in query order;
    * ``participants`` — per variable (in ``variables`` order), the
      indices of the atoms mentioning it;
    * ``edges`` and ``bases`` — the AGM LP's hypergraph and the optimal
      bases it has ended on so far (:meth:`agm_log2`);
    * ``profile`` — the :class:`~repro.engine.cost.StructureProfile`,
      which the planner fills in;
    * ``gao_orders`` and ``atom_orders`` — a GAO as variable indices, and
      an atom order as atom indices with the variables it binds, filled
      in by the cost model as orders come up.
    """

    #: Bases kept per shape; past it the oldest is dropped.  The 4-clique
    #: meets 23 over widely varying sizes, the 5-cycle 11.
    MAX_BASES = 64

    __slots__ = (
        "names", "variables", "participants", "edges", "bases",
        "profile", "gao_orders", "atom_orders",
    )

    def __init__(self, query: JoinQuery):
        self.names: Tuple[str, ...] = tuple(a.name for a in query.atoms)
        self.variables = query.variables
        self.participants: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(i for i, a in enumerate(query.atoms) if v in a.attrs)
            for v in query.variables
        )
        self.edges = [frozenset(a.attrs) for a in query.atoms]
        self.bases: List[OptimalBasis] = []
        self.profile = None
        self.gao_orders: Dict[Tuple[str, ...], Tuple[int, ...]] = {}
        self.atom_orders: Dict[Tuple[str, ...], Tuple] = {}

    def agm_log2(self, weights: Sequence[float]) -> float:
        """log₂ of the AGM bound: the cover LP's optimum for ``weights``.

        A kept basis that ``weights`` leave feasible (every row of
        ``B⁻¹w`` at least 0, each summed exactly so its sign is right)
        is optimal, and the simplex runs only when none is.  Either way
        the value is ``x·w`` for the basis's cover ``x``, summed exactly
        too (``math.fsum``): over the half-integral covers of binary
        queries every optimal basis then gives the same float, so a
        warm answer is the cold one bit for bit.
        """
        for basis in self.bases:
            if all(
                math.fsum(map(mul, row, weights)) >= 0.0
                for row in basis.inverse
            ):
                return math.fsum(map(mul, basis.cover, weights))
        basis = optimal_basis(self.variables, self.edges, weights)
        self.bases.append(basis)
        if len(self.bases) > self.MAX_BASES:
            del self.bases[0]
        return math.fsum(map(mul, basis.cover, weights))

    def agm(self, cardinalities: Sequence[int]) -> float:
        """The best AGM bound 2^{ρ*(Q, D)} from the atoms' cardinalities.

        A relation of size 0 empties the output: the bound is 0 (the LP
        weight log₂ 0 = -∞ is sidestepped by the trivial bound).
        """
        if 0 in cardinalities:
            return 0.0
        return 2.0 ** self.agm_log2(
            [math.log2(c) if c > 1 else 0.0 for c in cardinalities]
        )

    def variable_tables(
        self, profiles: Sequence[RelationProfile]
    ) -> VariableTables:
        """Per variable, what every attribute order reads about it.

        ``(participants, distinct, selectivity, overlap)``: the indices
        of the atoms mentioning the variable, their distinct counts of
        it, the System-R matching factor ``max distinct ^ -(occurrences
        - 1)``, and the shared fraction of the relations' value ranges.
        ``profiles`` are in atom order.
        """
        tables = []
        for v, parts in zip(self.variables, self.participants):
            if len(parts) == 1:
                distinct = [profiles[parts[0]].distinct.get(v, 1)]
                tables.append((parts, distinct, 1.0, 1.0))
                continue
            distinct = []
            ranges = []
            for i in parts:
                p = profiles[i]
                distinct.append(p.distinct.get(v, 1))
                r = p.ranges.get(v)
                if r is not None:
                    ranges.append(r)
            top = max(max(distinct), 1)
            overlap = (
                value_overlap_fraction(ranges) if len(ranges) > 1 else 1.0
            )
            tables.append(
                (parts, distinct, float(top) ** (1 - len(parts)), overlap)
            )
        return tables


def _independence_estimate(
    profiles: Sequence[RelationProfile], tables: VariableTables
) -> float:
    """System-R style output estimate under attribute independence.

    The cross product of the atoms, divided once per repeated occurrence
    of each variable by its largest distinct count.
    """
    estimate = 1.0
    for p in profiles:
        estimate *= p.cardinality
    if estimate == 0.0:
        return 0.0
    for parts, distinct, _, _ in tables:
        if len(parts) > 1:
            top = max(max(distinct), 1)
            for _ in parts[1:]:
                estimate /= top
    return estimate


#: Signature -> :class:`QueryShape`.
_SHAPE_MEMO = ContentLRU(256)


def query_shape(query: JoinQuery) -> QueryShape:
    """The memoized :class:`QueryShape` of a query's signature."""
    shape = _SHAPE_MEMO.get(query.signature)
    if shape is None:
        shape = QueryShape(query)
        _SHAPE_MEMO.put(query.signature, shape)
    return shape


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
    shape = query_shape(query)
    profiles = []
    for atom in query.atoms:
        rel = db[atom.name]
        counts = rel.distinct_counts()
        ranges = rel.column_ranges()
        if rel.attrs != atom.attrs:
            # Key every per-attribute map by the *query* attribute names
            # (positional translation): a relation whose schema names
            # differ from the atom's variables must not silently degrade
            # to distinct=1 everywhere.  Every attribute is counted, and
            # ranges are known for all of them or (no rows) for none.
            counts = dict(zip(atom.attrs, map(counts.__getitem__, rel.attrs)))
            ranges = dict(
                zip(atom.attrs, map(ranges.__getitem__, rel.attrs))
            ) if ranges else {}
        # Otherwise the relation's own cached maps, shared read-only.
        profiles.append(
            RelationProfile(atom.name, atom.attrs, len(rel), counts, ranges)
        )
    tables = shape.variable_tables(profiles)
    stats = QueryStats(
        tuple(profiles),
        db.total_tuples,
        db.domain.depth,
        shape.agm([p.cardinality for p in profiles]),
        _independence_estimate(profiles, tables),
        key,
        _tables=tables,
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
    shape = query_shape(query)
    tables = shape.variable_tables(profiles)
    fingerprint = (query.signature, ("assumed", rows, depth))
    return QueryStats(
        relations=profiles,
        total_tuples=rows * len(profiles),
        domain_depth=depth,
        agm=shape.agm([rows] * len(profiles)),
        independence_estimate=_independence_estimate(profiles, tables),
        fingerprint=fingerprint,
        assumed=True,
        _tables=tables,
    )
