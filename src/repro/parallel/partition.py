"""Dyadic output-space partitioning: shards, split choice, clipping.

A **shard** is one cell of a partition of the output box space: a
conjunction of packed dyadic intervals, one per planner-chosen split
attribute.  The shards of a partition are pairwise disjoint and cover
the whole space — every output tuple's projection onto the split
attributes lands in exactly one shard — so per-shard join results can
be concatenated without deduplication.

Partitioning applies the same split rule as Section 4.5's balanced
partitions (``repro.core.balance.balanced_partition``: halve every
interval that is too heavy, yielding a prefix-free dyadic code) — here
steered by data and generalized to several axes rather than calling
that single-axis, threshold-driven helper: starting from the root cell
⟨λ, …, λ⟩, repeatedly split the *heaviest* cell along the axis whose
dyadic halving divides its load most evenly, until the requested shard
count is reached.  Load is measured as clipped input size, read off the
PR-3 cached sorted views with two bisections per (relation, interval) —
the partitioner never scans a relation.

Clipping a relation to a shard is the same bisect range on the cached
view with the constrained attribute leading: zero-copy on the parent
(the view is the memoized one every other consumer shares) and compact
on the wire (the clipped relation pickles as schema + rows only, see
``Relation.__getstate__``).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import intervals as dy
from repro.core.intervals import PLAMBDA, Packed
from repro.relational.query import Database, JoinQuery
from repro.relational.relation import Relation, SortedView

Row = Tuple[int, ...]

#: Default number of shards dealt per worker: oversharding lets the
#: scheduler re-deal around skew (a straggler shard delays one worker by
#: one shard, not by the whole skewed half of the space).
OVERSHARD = 4


def default_num_shards(workers: int) -> int:
    """The 2^k shard count for a worker count: ~OVERSHARD× oversharded."""
    target = max(1, workers) * OVERSHARD
    return 1 << (target - 1).bit_length()


@dataclass(frozen=True)
class Shard:
    """One dyadic cell of the output space: attr → packed interval.

    ``constraints`` is ordered by split attribute (the planner's order)
    and covers *every* split attribute — unsplit axes carry λ, so two
    shards of one partition always constrain the same attribute tuple.
    """

    constraints: Tuple[Tuple[str, Packed], ...]

    def interval(self, attr: str) -> Optional[Packed]:
        for a, p in self.constraints:
            if a == attr:
                return p
        return None

    def value_range(self, attr: str, depth: int) -> Tuple[int, int]:
        """The inclusive ``[lo, hi]`` value range on one split attribute."""
        p = self.interval(attr)
        if p is None:
            return 0, (1 << depth) - 1
        return _packed_range(p, depth)

    def describe(self) -> str:
        """``A=01*, B=λ`` — the bitstring form the EXPLAIN tree renders."""
        return ", ".join(
            f"{a}={dy.pto_bits(p)}{'' if p == PLAMBDA else '*'}"
            for a, p in self.constraints
        )

    def sort_key(self) -> Tuple:
        return tuple(p for _, p in self.constraints)


def _packed_range(p: Packed, depth: int) -> Tuple[int, int]:
    """Inclusive value range of a packed dyadic interval at ``depth``."""
    length = p.bit_length() - 1
    if length > depth:
        raise ValueError(
            f"interval {dy.pto_bits(p)} deeper than domain depth {depth}"
        )
    span = depth - length
    lo = (p ^ (1 << length)) << span
    return lo, lo + (1 << span) - 1


def leading_view(rel: Relation, attr: str) -> SortedView:
    """The relation's memoized sorted view with ``attr`` leading.

    Schema order when ``attr`` already leads (that view always exists),
    otherwise ``(attr, …rest in schema order)`` — the same view clipping
    uses, so the partitioner's weight probes warm the cache clipping
    reads.
    """
    attrs = rel.schema.attrs
    if attrs[0] == attr:
        return rel.view(attrs)
    order = (attr,) + tuple(a for a in attrs if a != attr)
    return rel.view(order)


def clipped_count(rel: Relation, attr: str, lo: int, hi: int) -> int:
    """|σ_{lo ≤ attr ≤ hi}(R)| via two bisections on the cached view."""
    rows = leading_view(rel, attr).rows
    left = bisect.bisect_left(rows, (lo,))
    right = bisect.bisect_left(rows, (hi + 1,))
    return right - left


def attr_distinct_bounds(query: JoinQuery, db: Database) -> Dict[str, int]:
    """Per-variable max distinct count across the relations mentioning it."""
    bounds: Dict[str, int] = {}
    for atom in query.atoms:
        counts = db[atom.name].distinct_counts()
        for attr, schema_attr in zip(atom.attrs, db[atom.name].attrs):
            d = counts.get(schema_attr, 1)
            bounds[attr] = max(bounds.get(attr, 0), d)
    return bounds


def choose_split_attrs(
    query: JoinQuery,
    distinct_by_attr: Mapping[str, int],
    max_attrs: int = 2,
) -> Tuple[str, ...]:
    """Greedy set-cover of the query's atoms by split attributes.

    Each round picks the variable clipping the most not-yet-clipped
    atoms, breaking ties toward higher distinct counts (more dyadic
    levels to split on).  Atoms containing no split attribute are
    replicated to every shard — redundant work — so coverage dominates
    the score; variables with ≤ 1 distinct value cannot split anything
    and are never chosen.
    """
    uncovered = {a.name: set(a.attrs) for a in query.atoms}
    chosen: List[str] = []
    while uncovered and len(chosen) < max_attrs:
        best = None
        best_score = None
        for var in query.variables:
            if var in chosen or distinct_by_attr.get(var, 1) <= 1:
                continue
            covers = sum(1 for attrs in uncovered.values() if var in attrs)
            if covers == 0:
                continue
            score = (covers, distinct_by_attr.get(var, 1))
            if best_score is None or score > best_score:
                best, best_score = var, score
        if best is None:
            break
        chosen.append(best)
        uncovered = {
            name: attrs
            for name, attrs in uncovered.items()
            if best not in attrs
        }
    return tuple(chosen)


class _Cell:
    """A mutable partition cell during the heaviest-first split loop."""

    __slots__ = ("intervals", "weight")

    def __init__(self, intervals: Dict[str, Packed], weight: int):
        self.intervals = intervals
        self.weight = weight


def _cell_weight(
    cell_intervals: Mapping[str, Packed],
    relations: Sequence[Tuple[Relation, Dict[str, str]]],
    depth: int,
) -> int:
    """Load estimate of a cell: Σ over relations of the clipped size.

    A relation constrained on several split attributes is counted at the
    *tightest* single-attribute clip (exact multi-attribute counts would
    need one probe per constraint combination; min is a safe proxy for
    balancing).  Relations containing no split attribute contribute their
    full size — they really are replicated to every shard.
    """
    total = 0
    for rel, by_query_attr in relations:
        best = len(rel)
        for query_attr, schema_attr in by_query_attr.items():
            p = cell_intervals.get(query_attr, PLAMBDA)
            if p == PLAMBDA:
                continue
            lo, hi = _packed_range(p, depth)
            best = min(best, clipped_count(rel, schema_attr, lo, hi))
        total += best
    return total


def partition_shards(
    query: JoinQuery,
    db: Database,
    num_shards: int,
    split_attrs: Optional[Sequence[str]] = None,
) -> Tuple[Shard, ...]:
    """Partition the output box space into ≤ ``num_shards`` dyadic shards.

    The balanced-partition split rule of Proposition F.4, steered by
    data: pop the heaviest cell, halve it along the split attribute that
    levels its two children best, repeat.  Stops early when every
    remaining cell is a unit box on all split axes or carries no load.
    The returned shards are disjoint, cover the space, and are sorted by
    their packed intervals (deterministic for fixed inputs).
    """
    depth = db.domain.depth
    if split_attrs is None:
        split_attrs = choose_split_attrs(
            query, attr_distinct_bounds(query, db)
        )
    split_attrs = tuple(split_attrs)
    root = Shard(tuple((a, PLAMBDA) for a in split_attrs))
    if num_shards <= 1 or not split_attrs or depth == 0:
        return (root,)

    # (relation, {query attr → schema attr}) for every atom touching a
    # split attribute; the weight function bisects these.
    relations: List[Tuple[Relation, Dict[str, str]]] = []
    for atom in query.atoms:
        rel = db[atom.name]
        mapping = {
            qa: sa
            for qa, sa in zip(atom.attrs, rel.attrs)
            if qa in split_attrs
        }
        relations.append((rel, mapping))

    unit_bit = 1 << depth
    counter = itertools.count()  # heap tiebreak: stable, never compares cells
    start = _Cell(
        {a: PLAMBDA for a in split_attrs},
        _cell_weight({a: PLAMBDA for a in split_attrs}, relations, depth),
    )
    heap: List[Tuple[int, int, _Cell]] = [(-start.weight, next(counter), start)]
    done: List[_Cell] = []
    while heap and len(heap) + len(done) < num_shards:
        neg_weight, _, cell = heapq.heappop(heap)
        if -neg_weight <= 0:
            # Heaviest cell is empty: splitting further cannot balance
            # anything (and the empties will be pruned before dispatch).
            done.append(cell)
            break
        best_axis = None
        best_children: Optional[Tuple[int, int]] = None
        for attr in split_attrs:
            p = cell.intervals[attr]
            if p >= unit_bit:  # unit interval: this axis is exhausted
                continue
            children = []
            for half in (p << 1, (p << 1) | 1):
                trial = dict(cell.intervals)
                trial[attr] = half
                children.append(_cell_weight(trial, relations, depth))
            imbalance = max(children)
            if best_children is None or imbalance < max(best_children):
                best_axis = attr
                best_children = (children[0], children[1])
        if best_axis is None:
            done.append(cell)  # unit box on every axis; cannot split
            continue
        p = cell.intervals[best_axis]
        for half, weight in zip(
            (p << 1, (p << 1) | 1), best_children
        ):
            child = dict(cell.intervals)
            child[best_axis] = half
            heapq.heappush(
                heap, (-weight, next(counter), _Cell(child, weight))
            )
    cells = done + [cell for _, _, cell in heap]
    shards = [
        Shard(tuple((a, cell.intervals[a]) for a in split_attrs))
        for cell in cells
    ]
    return tuple(sorted(shards, key=Shard.sort_key))


def clip_slice(
    rel: Relation,
    shard: Shard,
    depth: int,
    attr_map: Optional[Mapping[str, str]] = None,
) -> Optional[Tuple[int, int, Tuple[Tuple[int, int, int], ...]]]:
    """The shard's clip as a leading slice plus a residual box, if any.

    This is the shape the shared-memory plane ships as an
    :class:`~repro.parallel.shm.ShmSlice` over the base segment instead
    of a materialized copy: whenever the schema-*leading* attribute is
    constrained, the clip is the bisected canonical row range of that
    constraint — ``(lo, hi)`` — with every *further* constrained
    attribute carried as an inclusive ``(column index, lo, hi)`` filter
    the worker applies to the slice on arrival.  The parent then never
    materializes the clipped rows at all: one bisect here, the residual
    scan on the worker (in parallel, over the shared columns).

    Returns ``None`` when the clip is not slice-shaped — nothing
    constrained (ship the whole relation) or the leading attribute
    unconstrained (the bisect would need a non-canonical sort order);
    callers fall back to :func:`clip_relation`.  A returned range with
    ``hi <= lo`` means the clip is *provably empty* — the leading range
    bisected to nothing, or a residual range is disjoint from its
    column's value range — and the shard can be pruned without
    dispatching.
    """
    if attr_map is None:
        attr_map = {a: a for a in rel.schema.attrs}
    constrained = [
        (attr_map[a], p)
        for a, p in shard.constraints
        if p != PLAMBDA and a in attr_map
    ]
    if not constrained:
        return None
    attrs = rel.schema.attrs
    by_attr = dict(constrained)
    if attrs[0] not in by_attr:
        return None
    lo_v, hi_v = _packed_range(by_attr[attrs[0]], depth)
    rows = rel.view(attrs).rows
    left = bisect.bisect_left(rows, (lo_v,))
    right = bisect.bisect_left(rows, (hi_v + 1,), left)
    rest: List[Tuple[int, int, int]] = []
    ranges = rel.column_ranges()
    for attr, p in constrained:
        if attr == attrs[0]:
            continue
        r_lo, r_hi = _packed_range(p, depth)
        col_lo, col_hi = ranges.get(attr, (0, -1))
        if r_lo > col_hi or r_hi < col_lo:
            return 0, 0, ()
        rest.append((attrs.index(attr), r_lo, r_hi))
    return left, right, tuple(rest)


def clip_relation(
    rel: Relation,
    shard: Shard,
    depth: int,
    attr_map: Optional[Mapping[str, str]] = None,
) -> Relation:
    """σ_shard(R): the rows consistent with a shard's intervals.

    ``attr_map`` translates query attributes to the relation's schema
    attributes (positional, the same convention the stats collector
    uses); identity when omitted.  Returns ``rel`` itself (shared, no
    copy) when no split attribute appears in the schema.  Otherwise one
    bisect range on the cached sorted view with the primary constrained
    attribute leading, plus a per-row range check for any further
    constrained attributes, rebuilt into a relation through the trusted
    fast path (no re-validation).
    """
    if attr_map is None:
        attr_map = {a: a for a in rel.schema.attrs}
    constrained = [
        (attr_map[a], p)
        for a, p in shard.constraints
        if p != PLAMBDA and a in attr_map
    ]
    if not constrained:
        return rel
    attrs = rel.schema.attrs
    # Prefer the schema-leading attribute: its bisect slice of the
    # canonical view is already in schema order — no permute, no re-sort.
    primary = next((a for a, _ in constrained if a == attrs[0]),
                   constrained[0][0])
    view = leading_view(rel, primary)
    lo, hi = _packed_range(dict(constrained)[primary], depth)
    rows = view.rows
    left = bisect.bisect_left(rows, (lo,))
    right = bisect.bisect_left(rows, (hi + 1,))
    selected = rows[left:right]
    rest = [
        (view.attr_order.index(a), _packed_range(p, depth))
        for a, p in constrained
        if a != primary
    ]
    if rest:
        selected = [
            r
            for r in selected
            if all(lo2 <= r[i] <= hi2 for i, (lo2, hi2) in rest)
        ]
    if view.attr_order != attrs:
        perm = tuple(view.attr_order.index(a) for a in attrs)
        selected = sorted(tuple(r[i] for i in perm) for r in selected)
    return Relation.from_sorted_rows(rel.schema, selected, rel.domain)


def clip_database(
    query: JoinQuery, db: Database, shard: Shard
) -> Optional[Database]:
    """The shard's database: every atom clipped, or ``None`` when pruned.

    A shard in which any relation clips to empty cannot produce output;
    returning ``None`` lets the scheduler skip it without dispatching.
    """
    depth = db.domain.depth
    clipped: List[Relation] = []
    for atom in query.atoms:
        rel = db[atom.name]
        attr_map = dict(zip(atom.attrs, rel.attrs))
        piece = clip_relation(rel, shard, depth, attr_map)
        if len(piece) == 0:
            return None
        clipped.append(piece)
    return Database(clipped)
