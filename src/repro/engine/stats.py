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

import dataclasses
import math
from dataclasses import dataclass, field
from operator import mul
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import tracing as _tracing
from repro.obs.metrics import REGISTRY as _METRICS
from repro.relational.agm import OptimalBasis, optimal_basis
from repro.relational.query import ContentKey, ContentLRU, Database, JoinQuery


def frozen_record(cls):
    """``@dataclass(frozen=True, slots=True)``, with a cheaper ``__init__``.

    A frozen dataclass's own ``__init__`` stores each field with
    ``object.__setattr__(self, name, value)``, which looks the name up
    on the type every time.  The planner builds a handful of these
    records per instance, so this one calls each slot's descriptor
    directly instead: a ten-field record builds in ≈ 1.0 µs, not 1.7.
    Nothing else changes: assignment still raises
    ``FrozenInstanceError``, and ``dataclasses.replace`` / ``fields`` /
    ``__eq__`` are the dataclass's own (``replace`` builds through this
    ``__init__``).  It runs no ``__post_init__``, so a class with one is
    refused.
    """
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: frozen_record runs no __post_init__")
    cls = dataclass(frozen=True, slots=True)(cls)
    namespace = {"_MISSING": dataclasses.MISSING}
    params, body = [], []
    for f in dataclasses.fields(cls):
        name = f.name
        namespace[f"_set_{name}"] = cls.__dict__[name].__set__
        value = name
        if f.default is not dataclasses.MISSING:
            namespace[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        elif f.default_factory is not dataclasses.MISSING:
            namespace[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=_MISSING")
            value = f"_factory_{name}() if {name} is _MISSING else {name}"
        else:
            params.append(name)
        body.append(f"    _set_{name}(self, {value})")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body)
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@frozen_record
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
#: distinct, selectivity, overlap, top)`` — see
#: :meth:`QueryShape.variable_tables`.
VariableTables = List[
    Tuple[Tuple[int, ...], List[int], float, float, int]
]


@frozen_record
class QueryStats:
    """Everything the cost model reads about a (query, database) pair.

    ``relations`` are in the query's atom order.
    """

    relations: Tuple[RelationProfile, ...]
    total_tuples: int
    domain_depth: int
    agm: float
    independence_estimate: float
    #: The content key (:func:`stats_key`), hashed once.
    fingerprint: ContentKey
    assumed: bool = False
    _tables: VariableTables = field(
        default_factory=list, repr=False, compare=False
    )

    def relation(self, name: str) -> RelationProfile:
        for p in self.relations:
            if p.name == name:
                return p
        raise KeyError(name)

    def variable_tables(self, shape: QueryShape) -> VariableTables:
        """The shape's :meth:`QueryShape.variable_tables` over these
        profiles, worked out once per stats object."""
        if not self._tables:
            self._tables[:] = shape.variable_tables(
                [self.relation(name) for name in shape.names]
            )
        return self._tables

    @property
    def output_estimate(self) -> float:
        """Ẑ: the smaller of the AGM bound and the independence estimate."""
        return min(self.agm, self.independence_estimate)


class QueryShape:
    """What planning reads off a query's shape, worked out once.

    A pure function of :attr:`JoinQuery.signature`, kept in the shape
    memo (:func:`query_shape`) so each new instance of a known shape
    pays only for arithmetic on its own numbers:

    * ``names`` — the atom names, in query order;
    * ``participants`` — per variable (in ``variables`` order), the
      indices of the atoms mentioning it; ``atom_reads`` — the same,
      per atom; ``shared`` — ``(variable index, repeats)`` for each
      variable more than one atom mentions;
    * ``edges`` and ``bases`` — the AGM LP's hypergraph and the optimal
      bases it has ended on so far (:meth:`agm_log2`);
    * ``profile`` — the :class:`~repro.engine.cost.StructureProfile`,
      which the planner fills in;
    * ``gao_orders``, ``atom_orders`` and ``by_size`` — a GAO as
      variable indices, an atom order's pricing steps and the variables
      it binds, and the size-ascending order of each ranking of the
      atoms by (size, name), filled in by the cost model as they come
      up; ``name_order`` — the atom indices by name, which break the
      size ties.
    """

    #: Bases kept per shape; past it the oldest is dropped.  The 4-clique
    #: meets 23 over widely varying sizes, the 5-cycle 11.
    MAX_BASES = 64

    __slots__ = (
        "signature", "names", "name_order", "variables", "participants",
        "atom_reads", "shared",
        "edges", "bases",
        "profile", "gao_orders", "atom_orders", "by_size",
    )

    def __init__(self, query: JoinQuery):
        variables = query.variables
        index = {v: k for k, v in enumerate(variables)}
        parts: List[List[int]] = [[] for _ in variables]
        reads = []
        for i, atom in enumerate(query.atoms):
            atom_reads = []
            for k in map(index.__getitem__, atom.attrs):
                atom_reads.append((k, len(parts[k])))
                parts[k].append(i)
            reads.append(tuple(atom_reads))
        self.signature = query.signature
        self.names: Tuple[str, ...] = tuple([a.name for a in query.atoms])
        self.name_order = tuple(
            sorted(range(len(reads)), key=self.names.__getitem__)
        )
        self.variables = variables
        self.participants: Tuple[Tuple[int, ...], ...] = tuple(
            map(tuple, parts)
        )
        #: Per atom, ``(k, j)`` for each attribute: the variable's index
        #: and the atom's place among its participants.
        self.atom_reads: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            reads
        )
        self.shared: Tuple[Tuple[int, int], ...] = tuple([
            (k, len(p) - 1) for k, p in enumerate(parts) if len(p) > 1
        ])
        self.edges = [frozenset(a.attrs) for a in query.atoms]
        self.bases: List[OptimalBasis] = []
        self.profile = None
        self.gao_orders: Dict[Tuple[str, ...], Tuple[int, ...]] = {}
        self.atom_orders: Dict[Tuple[int, ...], Tuple] = {}
        self.by_size: Dict[Tuple[int, ...], Tuple] = {}

    def agm_log2(self, weights: Sequence[float]) -> float:
        """log₂ of the AGM bound: the cover LP's optimum for ``weights``.

        A kept basis that ``weights`` leave feasible (every row of
        ``B⁻¹w`` at least 0, each summed exactly so its sign is right)
        is optimal, and the simplex runs only when none is.  Weights are
        never negative, so only the rows with a negative entry
        (:attr:`~repro.relational.agm.OptimalBasis.signed`) can fail.
        Either way the value is ``x·w`` for the basis's cover ``x``,
        summed exactly too (``math.fsum``): over the half-integral
        covers of binary queries every optimal basis then gives the same
        float, so a warm answer is the cold one bit for bit.
        """
        fsum = math.fsum
        for basis in self.bases:
            for row in basis.signed:
                if fsum(map(mul, row, weights)) < 0.0:
                    break
            else:
                return fsum(map(mul, basis.cover, weights))
        basis = optimal_basis(self.variables, self.edges, weights)
        self.bases.append(basis)
        if len(self.bases) > self.MAX_BASES:
            del self.bases[0]
        return fsum(map(mul, basis.cover, weights))

    def agm(self, cardinalities: Sequence[int]) -> float:
        """The best AGM bound 2^{ρ*(Q, D)} from the atoms' cardinalities.

        A relation of size 0 empties the output: the bound is 0 (the LP
        weight log₂ 0 = -∞ is sidestepped by the trivial bound).
        """
        if 0 in cardinalities:
            return 0.0
        log2 = math.log2
        return 2.0 ** self.agm_log2(
            [log2(c) if c > 1 else 0.0 for c in cardinalities]
        )

    def variable_tables(
        self, profiles: Sequence[RelationProfile]
    ) -> VariableTables:
        """Per variable, what every attribute order reads about it.

        ``(participants, distinct, selectivity, overlap, top)``: the
        indices of the atoms mentioning the variable, their distinct
        counts of it, the System-R matching factor ``top ^ -(occurrences
        - 1)`` for ``top`` the largest distinct count (at least 1), and
        the shared fraction of the relations' value ranges — the width
        of their intersection over the widest one: ``1.0`` when every
        range covers the intersection, ``0.0`` when some pair is
        disjoint, and the join on the variable is empty whatever the
        independence estimate says.  That is what lets the planner price
        the split-certificate family (disjoint value halves) correctly
        for backends that seek past empty intersections.  ``profiles``
        are in atom order.
        """
        tables = []
        append = tables.append
        for v, parts in zip(self.variables, self.participants):
            arity = len(parts)
            if arity == 1:
                d = profiles[parts[0]].distinct.get(v, 1)
                append((parts, [d], 1.0, 1.0, d or 1))
                continue
            distinct = []
            known = 0
            for i in parts:
                p = profiles[i]
                distinct.append(p.distinct.get(v, 1))
                r = p.ranges.get(v)
                if r is None:
                    continue
                a, b = r
                if not known:
                    lo, hi, width = a, b, b - a
                else:
                    if a > lo:
                        lo = a
                    if b < hi:
                        hi = b
                    if b - a > width:
                        width = b - a
                known += 1
            if known < 2:
                overlap = 1.0
            elif hi < lo:
                overlap = 0.0
            else:
                overlap = (hi - lo + 1) / (width + 1)
            top = max(distinct)
            if top < 1:
                top = 1
            append((parts, distinct, float(top) ** (1 - arity), overlap, top))
        return tables

    def independence_estimate(
        self, cardinalities: Sequence[int], tables: VariableTables
    ) -> float:
        """System-R style output estimate under attribute independence.

        The cross product of the atoms, divided once per repeated
        occurrence of each variable by its largest distinct count.
        """
        estimate = math.prod(cardinalities, start=1.0)
        if estimate == 0.0:
            return 0.0
        for k, repeats in self.shared:
            top = tables[k][4]
            for _ in range(repeats):
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


def stats_key(query: JoinQuery, db: Database) -> ContentKey:
    """The content key of a query's statistics over a database — query
    signature plus per-relation fingerprints — and their
    :attr:`QueryStats.fingerprint`."""
    return ContentKey((query.signature, db.stats_fingerprint()))


def collect_stats(query: JoinQuery, db: Database) -> QueryStats:
    """Gather the planner's statistics for a query over a database.

    Results are cached on content (:func:`stats_key`): relations are
    immutable, so identical fingerprints guarantee identical statistics.
    """
    return _collect(query, db, stats_key(query, db), None)


def _collect(
    query: JoinQuery,
    db: Database,
    key: ContentKey,
    shape: Optional[QueryShape],
) -> QueryStats:
    """:func:`collect_stats` for a computed key (and the query's shape,
    when the caller holds it)."""
    cached = _STATS_CACHE.get(key)
    if cached is not None:
        return cached
    if shape is None:
        shape = query_shape(query)
    tracer = _tracing.current_tracer()
    if tracer is None:
        return _collect_stats_uncached(query, db, key, shape)
    with tracer.span("stats.collect", relations=len(query.atoms)):
        return _collect_stats_uncached(query, db, key, shape)


def _collect_stats_uncached(
    query: JoinQuery, db: Database, key: ContentKey, shape: QueryShape
) -> QueryStats:
    profiles = []
    cards = []
    for atom in query.atoms:
        rel = db[atom.name]
        counts = rel.distinct_counts()
        ranges = rel.column_ranges()
        schema = rel.schema
        if schema is not atom and schema.attrs != atom.attrs:
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
        n = len(rel)
        cards.append(n)
        profiles.append(RelationProfile(atom.name, atom.attrs, n, counts, ranges))
    tables = shape.variable_tables(profiles)
    stats = QueryStats(
        tuple(profiles),
        # Atoms name distinct relations: as many as the database holds
        # are all of them.
        sum(cards) if len(cards) == len(db) else db.total_tuples,
        db.domain.depth,
        shape.agm(cards),
        shape.independence_estimate(cards, tables),
        key,
        False,
        tables,
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
    cards = [rows] * len(profiles)
    fingerprint = ContentKey((query.signature, ("assumed", rows, depth)))
    return QueryStats(
        relations=profiles,
        total_tuples=rows * len(profiles),
        domain_depth=depth,
        agm=shape.agm(cards),
        independence_estimate=shape.independence_estimate(cards, tables),
        fingerprint=fingerprint,
        assumed=True,
        _tables=tables,
    )
