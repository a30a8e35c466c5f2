"""The planner's cost model: the backends ``auto`` can pick, priced.

Each candidate gets a cost estimate of the form

    cost = calibration[backend] × quantity(structure, stats) + sort

where *quantity* is the backend's running-time expression evaluated on
the instance's statistics, and *sort* is what the final ``sorted()``
costs when the backend's stream is not already in output order (zero
for leapfrog and hash run so they bind ``query.variables`` in order):

* ``leapfrog`` — candidates examined per GAO level, capped by the AGM
  bound Õ(N^ρ*) (Table 1 row 2, the [52]/[72] class);
* ``hash`` — classical System-R style intermediate-size estimates under
  attribute independence.

These two, the keys of :data:`DEFAULT_CALIBRATION`, are what ``auto``
prices (:data:`CANDIDATES`).  Every other backend runs only when forced
and has no formula or constant here: over the benchmark's plans
``nested-loop`` and ``yannakakis`` never came within 4× of the winner's
cost, and warm Tetris-Reloaded trails leapfrog under the same GAO even
on the O(1)-certificate split path and cycle (Tetris-Preloaded by three
orders of magnitude).  Table 1's Tetris rows — Õ(N + Z), Õ(N^fhtw + Z),
Õ(|C| + Z), Õ(|C|^{w+1} + Z) — are what ``repro analyze`` prints.

The *calibration* vector absorbs constant factors the asymptotics hide.
Defaults were fitted on this repository's benchmark workloads;
:meth:`CostModel.calibrate` re-fits them from measured timings — the
constant-factor calibration hook — and ``repro calibrate`` prints such a
refit as a diff against :data:`DEFAULT_CALIBRATION`.  Nothing is loaded
at run time: the constants below are the only ones a default
``CostModel()`` plans with, wherever the process runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.engine.stats import QueryStats, value_overlap_fraction
from repro.joins.hashjoin import binding_order, left_deep_order
from repro.relational.agm import fhtw_of_order
from repro.relational.hypergraph import Hypergraph, gao_for_acyclic
from repro.relational.query import JoinQuery

#: Per variable ``(participants, selectivity, overlap)`` — see
#: :meth:`CostModel._variable_tables`.
VariableTables = Dict[str, Tuple[list, float, float]]

#: Abstract-operation cost per backend, in units of one hash-join probe.
#: ``hash`` is the anchor.  ``leapfrog`` was refit on the block kernels
#: with :meth:`CostModel.calibrate` from kernel-only timings
#: (``list(iter_*)``, median of 5, sort excluded) over the benchmark's
#: ``auto_mix`` shapes and ``tests/engine/test_planner.py``'s — measured µs
#: per modelled unit, hash / leapfrog:
#:
#:     mix triangle_sparse    0.115 / 0.321
#:     mix triangle_agm_tight 0.096 / 0.136
#:     mix path3              0.173 / 0.214
#:     mix star4              0.110 / 0.090
#:     mix cycle4             0.060 / 0.173
#:     triangle_sparse        0.068 / 0.222
#:     triangle_agm_tight     0.118 / 0.143
#:     path3_random           0.140 / 0.183
#:     path4_chained          0.147 / 0.201
#:     path2_split_cert       0.124 / 0.267
#:     star4_random           0.072 / 0.086
#:     cycle4_dense           0.114 / 0.105
#:     clique4_random         0.079 / 0.202
#:     median                 0.114 / 0.183   → 1 : 1.60
#:     median, kernel ≥ 5 ms  0.112 / 0.173   → 1 : 1.54
#:
#: Five repeats of the table on a noisy host put the ratio at 1.45–1.78
#: (median 1.62) over all shapes and at 1.54–2.17 (1.93) at kernel
#: ≥ 5 ms; shipped as 1.7.  Leapfrog's spread is 3.7× — the acyclic
#: fringe is one ``itertools.product`` per prefix (star4 0.210 → 0.090)
#: that the quantity still charges per candidate; the 14 choices raced
#: in ``tests/engine/test_planner.py`` hold for any leapfrog constant in
#: 1.4–2.0.  :data:`CostModel.SORT`:
#: ``sorted()`` over an unordered stream costs 22–30 ns per ``Z·log₂Z``
#: (path3 22.5, cycle4 30.2) against 2–4 ns over one in or near order,
#: 0.19–0.26 of the 0.114 µs hash unit; 0.15 still ranks every raced
#: shape and is kept.  A stream that binds ``query.variables`` in order
#: (leapfrog under that GAO, hash in the query's atom order) is in
#: order and is never sorted.
DEFAULT_CALIBRATION: Dict[str, float] = {
    "hash": 1.0,
    "leapfrog": 1.7,
}

#: Wall seconds of one abstract cost unit (one hash-table probe, ~0.8µs
#: on the bench hosts): turns a predicted cost into predicted seconds.
DEFAULT_UNIT_SECONDS = 8e-7

#: The backends ``auto`` prices, in preference order for cost ties
#: (earlier wins) — the order the constants above are listed in.  The
#: executor's ``BACKEND_TABLE`` holds these and the forced-only ones.
CANDIDATES: Tuple[str, ...] = tuple(DEFAULT_CALIBRATION)


def _check_priced(backends: Mapping[str, object]) -> None:
    """Refuse a constant for a backend the model does not price."""
    unpriced = sorted(set(backends) - set(CANDIDATES))
    if unpriced:
        raise ValueError(
            f"no cost constant for {', '.join(unpriced)}: "
            f"the model prices {CANDIDATES} only"
        )


@dataclass(frozen=True)
class StructureProfile:
    """The structural planning signals of a query (Table 1's row keys)."""

    acyclic: bool
    treewidth: int
    fhtw_upper: float
    gao: Tuple[str, ...]

    @property
    def table1_row(self) -> str:
        if self.acyclic:
            return "α-acyclic: Õ(N + Z) [Yannakakis / Thm D.8]"
        if self.treewidth == 1:
            return "treewidth 1: Õ(|C| + Z) [Thm 4.7]"
        return (
            f"fhtw ≤ {self.fhtw_upper:g}: Õ(N^{self.fhtw_upper:g} + Z) "
            f"[Thm D.9]"
        )


def structure_of(query: JoinQuery) -> StructureProfile:
    """Analyze a query's hypergraph once, for planning.

    fhtw is upper-bounded by the cover number of the treewidth-optimal
    elimination order's decomposition — one LP per bag instead of the
    exact-but-exponential search in :func:`repro.relational.agm.fhtw`,
    which planning latency cannot afford.
    """
    h = Hypergraph.of_query(query)
    acyclic = h.is_alpha_acyclic()
    width, order = h.treewidth()
    if acyclic:
        gao = gao_for_acyclic(h)
        fhtw_upper = 1.0
    else:
        gao = tuple(order)
        fhtw_upper = fhtw_of_order(h, order)
    return StructureProfile(
        acyclic=acyclic,
        treewidth=width,
        fhtw_upper=fhtw_upper,
        gao=gao,
    )


def usable_cores() -> int:
    """Cores this process may run on — the one place the count is read.

    The scheduling affinity, not the machine: under ``taskset`` or a
    container CPU set, extra workers only time-slice the same cores.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


def _extend_left_deep(
    acc_size: float, acc_distinct: Dict[str, int], profile
) -> float:
    """One left-deep join step under independence.

    Returns the estimated size after joining ``profile`` onto an
    accumulator of ``acc_size`` tuples, dividing by the larger distinct
    count per shared variable, and folds the profile's distinct counts
    into ``acc_distinct`` (in place) for the next step.
    """
    out = acc_size * profile.cardinality
    for a in profile.attrs:
        if a in acc_distinct:
            out /= max(acc_distinct[a], profile.distinct_of(a), 1)
    for a in profile.attrs:
        d = profile.distinct_of(a)
        acc_distinct[a] = (
            min(acc_distinct[a], d) if a in acc_distinct else d
        )
    return out


@dataclass(frozen=True)
class CostEstimate:
    """One backend's predicted cost on an instance.

    ``parallel`` marks a *parallel-plan candidate*: the same backend run
    shard-parallel on ``workers`` processes, priced with the dispatch
    and shipping overheads of :meth:`CostModel.estimate_parallel` (a
    pool of one worker is still a parallel plan — sharded, dealt,
    merged — so the flag is explicit rather than inferred from the
    count).

    A forced-only backend's plan carries an *unpriced* estimate:
    ``quantity`` and ``cost`` are ``None``.
    """

    backend: str
    quantity: Optional[float]
    cost: Optional[float]
    formula: str
    workers: int = 1
    parallel: bool = False
    sort: float = 0.0
    gao: Optional[Tuple[str, ...]] = None


class CostModel:
    """Calibrated cost estimates of the :data:`CANDIDATES` over query
    statistics.

    Constants are the fitted :data:`DEFAULT_CALIBRATION`, updated by any
    explicit ``calibration`` mapping, whose keys must be
    :data:`CANDIDATES` — a constant for a backend ``auto`` never prices
    raises ``ValueError`` rather than ride along unread.  ``unit_seconds`` — the measured
    wall time of one abstract cost unit — turns predicted costs into
    predicted seconds (:meth:`predicted_seconds`), which is what
    EXPLAIN ANALYZE holds against the measured run.
    """

    def __init__(
        self,
        calibration: Optional[Mapping[str, float]] = None,
        unit_seconds: float = DEFAULT_UNIT_SECONDS,
    ):
        self.calibration = dict(DEFAULT_CALIBRATION)
        if calibration:
            _check_priced(calibration)
            self.calibration.update(calibration)
        self.unit_seconds = unit_seconds

    def predicted_seconds(self, cost: float) -> float:
        """A predicted cost in wall seconds, via the calibrated unit."""
        return cost * self.unit_seconds

    #: Abstract-operation charge per binary join step (dict build,
    #: per-step list allocation) on top of the tuple-proportional work.
    STEP_OVERHEAD = 120.0

    #: Charge per comparison-ish unit ``Ẑ · log₂ Ẑ`` of the final
    #: ``sorted()`` over a stream that is not in output order, in hash
    #: units (see the table above ``DEFAULT_CALIBRATION``; a stream that
    #: declares itself in order is never handed to ``sort()`` at all).
    SORT = 0.15

    #: Parallel-plan pricing, in the same hash-probe units.  Dispatching
    #: a shard costs a task pickle + pipe round trip; the charge was
    #: fitted while a unit was ~0.8 µs (interpreted loops) and was not
    #: refit here.
    #:
    #: Output rows are what a parallel run pays for.  A dispatched
    #: shard's rows are pickled in the worker, piped, and unpickled in
    #: the parent (≈ 0.42 µs of CPU per row, more than the ≈ 0.29 µs
    #: that computing one costs); a shard the parent computes itself
    #: while every worker is busy ships nothing, and ordered shard lists
    #: concatenate without a sort.  :data:`PARALLEL_SHIP_OUTPUT` is the
    #: net of that per output row on the critical path, refit as
    #: ``(T_parallel − T_serial / p) / Z`` from a race of the forced
    #: serial-best backend at ``workers=2`` on two usable cores, over
    #: the planner tests' star and AGM-tight triangle shapes scaled
    #: until Z matters (µs per row; one unit measured 0.09–0.155 µs on
    #: the same runs; the e2e ``parallel.auto_w2_vs_best`` watches it):
    #:
    #:     star4   n=1500  Z= 38k   0.52
    #:     star4   n=4000  Z=243k   0.26
    #:     star4   n=8000  Z=480k   0.24–0.33
    #:     agm     k=20    Z=  8k   0.32
    #:     agm     k=40    Z= 64k   0.17–0.19
    #:
    #: 1.3–2.5 units at Z ≥ 64k, shipped as 1.9 (it was 0.25, from the
    #: 0.8 µs era).  With it the model's parallel/serial ratio on those
    #: shapes is 1.09–1.38 against 1.15–1.48 measured, so ``auto`` with
    #: ``workers=2`` on two cores keeps output-bound star and AGM
    #: queries serial.  Not captured: the hash backend re-builds its
    #: tables over partially clipped atoms in every shard (Σ shard CPU
    #: 1.7× serial on the sparse triangle), so its parallel candidates
    #: are still priced too low.
    PARALLEL_SHARD_OVERHEAD = 250.0
    PARALLEL_SHIP_OUTPUT = 1.9

    #: Flat charge per (atom × worker) for the shared-memory data
    #: plane: one segment attach + header parse + zero-copy column
    #: views (~50µs ≈ 60 units).  Input bytes are laid out once in the
    #: parent and mapped, not copied per worker, so the input costs this
    #: flat charge rather than a per-row one.
    PARALLEL_SHM_ATTACH = 60.0

    # -- per-backend quantities ------------------------------------------------

    @staticmethod
    def _variable_tables(
        query: JoinQuery, stats: QueryStats
    ) -> VariableTables:
        """Per variable, what every attribute order reads about it.

        ``(participants, selectivity, overlap)``: the ``(relation index,
        distinct count)`` of each relation mentioning the variable, the
        System-R matching factor ``max distinct ^ -(occurrences - 1)``,
        and the shared fraction of the relations' value ranges.
        """
        tables = {}
        for v in query.variables:
            parts = [
                (i, p.distinct_of(v))
                for i, p in enumerate(stats.relations)
                if v in p.attrs
            ]
            top = max(max(d for _, d in parts), 1)
            ranges = [
                r
                for r in (stats.relations[i].range_of(v) for i, _ in parts)
                if r is not None
            ]
            overlap = (
                value_overlap_fraction(ranges) if len(ranges) > 1 else 1.0
            )
            tables[v] = (parts, float(top) ** (1 - len(parts)), overlap)
        return tables

    def _leapfrog_quantity(
        self,
        query: JoinQuery,
        stats: QueryStats,
        order: Sequence[str],
        tables: VariableTables,
    ) -> float:
        """Σ over GAO levels of the candidates the intersection examines.

        Under independence the bindings *surviving* a variable prefix
        are the cross product of each relation's projection onto the
        prefix times the matching selectivities — an output-sensitive
        estimate the raw AGM bound (which stays the provable cap, scaled
        by the [52]/[72] n·polylog) lacks.  But the kernel's work at a
        level is what it *walks*, not what it keeps: every parent
        binding leapfrogs through the smallest participating relation's
        fan-out, so a level costs ``max(survivors, parent bindings ×
        smallest fan-out × seeks)`` — on a sparse triangle the last
        level walks ~250k candidates to keep ~16k.  ``seeks`` is the
        galloping depth per candidate, ``Σ log₂(1 + fan-out / smallest
        fan-out)`` over the participants: 1 for a lone relation (a run
        is iterated, nothing is sought), 2 for two equal runs, and
        ~log₂ of the column when a 4-row run is leapfrogged against an
        unbound relation — what makes a path under a prefix order cost
        several times a star of the same output.  Each shared
        variable's bindings and candidates are scaled by its
        value-range overlap across relations — the seek gallops
        straight past disjoint ranges, which is what makes the
        split-certificate family nearly free.  The cap is the AGM bound
        with the [52]/[72] ``n·log N`` factor.  One pass over
        ``order``; the per-variable ``tables`` are shared between the
        orders a plan prices.
        """
        cards = [float(p.cardinality) for p in stats.relations]
        spanned = [1.0] * len(cards)  # Π distinct over bound attributes
        factor = [1.0] * len(cards)  # min(|R|, spanned) once bound
        scale = 1.0
        survivors = 1.0
        total = 0.0
        for v in order:
            parts, selectivity, overlap = tables[v]
            fans = []
            for i, d in parts:
                spanned[i] *= d
                grown = min(cards[i], spanned[i])
                fans.append(grown / factor[i] if factor[i] else 0.0)
                factor[i] = grown
            fan_out = min(fans)
            seeks = (
                sum(math.log2(1.0 + f / fan_out) for f in fans)
                if fan_out
                else 1.0
            )
            scale *= selectivity * overlap
            candidates = survivors * fan_out * overlap * seeks
            survivors = math.prod(factor) * scale
            total += max(survivors, candidates)
        cap = (
            len(order) * max(stats.agm, 1.0) * max(stats.domain_depth, 1)
        )
        # Per-atom seek/cursor setup; the sorted views are cached.
        setup = len(query.atoms) * self.STEP_OVERHEAD
        return setup + min(total, cap)

    def _hash_plan_quantity(
        self, stats: QueryStats, order: Sequence[str]
    ) -> float:
        """Σ (build + probe + intermediate) of the left-deep plan over
        the atoms in ``order``.

        Each intermediate is estimated under independence: joining on
        shared variables divides the cross product by the larger
        distinct count per variable.
        """
        first = stats.relation(order[0])
        acc_size = float(first.cardinality)
        acc_distinct = dict(first.distinct)
        total = acc_size
        for name in order[1:]:
            p = stats.relation(name)
            acc_size = _extend_left_deep(acc_size, acc_distinct, p)
            total += p.cardinality + acc_size + self.STEP_OVERHEAD
        return total

    # -- the estimate API ------------------------------------------------------

    def _sort_cost(
        self,
        stats: QueryStats,
        tables: VariableTables,
    ) -> float:
        """What sorting the unordered output costs, in hash units.

        Ẑ is scaled by every variable's value-range overlap first: the
        independence estimate does not see that disjoint ranges join
        to nothing, and an empty output sorts for free.
        """
        z = stats.output_estimate * math.prod(
            overlap for _, _, overlap in tables.values()
        )
        return self.SORT * z * math.log2(z) if z > 1.0 else 0.0

    def _estimate(
        self,
        backend: str,
        query: JoinQuery,
        profile: StructureProfile,
        stats: QueryStats,
        sort: float,
        tables: VariableTables,
    ) -> CostEstimate:
        """One serial candidate, given the plan's :meth:`_sort_cost` and
        :meth:`_variable_tables`.

        Every candidate emits in GAO-lexicographic order, so it pays the
        sort unless its GAO is ``query.variables``.  Leapfrog is
        worst-case optimal under any order and is priced on the
        structural GAO and on ``query.variables``, keeping the cheaper.
        A hash cascade emits lexicographic in the order it binds
        variables (:func:`~repro.joins.hashjoin.binding_order`), so it
        is priced the same way: the query's own atom order, which binds
        ``query.variables`` and pays no sort, against
        :func:`~repro.joins.hashjoin.left_deep_order` by size plus the
        sort (unless that order binds ``query.variables`` too, when
        :func:`~repro.joins.hashjoin.hash_order` runs the query's).
        Its GAO is the binding order of the order kept.
        """
        factor = self.calibration[backend]
        if backend == "leapfrog":
            gao = profile.gao
            q = self._leapfrog_quantity(query, stats, gao, tables)
            if gao == query.variables:
                sort = 0.0
            elif sort:
                q_ordered = self._leapfrog_quantity(
                    query, stats, query.variables, tables
                )
                if factor * q_ordered <= factor * q + sort:
                    q, gao, sort = q_ordered, query.variables, 0.0
            formula = (
                f"Õ(N + Σ level candidates) ≈ {q:g} (AGM {stats.agm:g})"
            )
        else:  # hash
            gao = query.variables
            q = self._hash_plan_quantity(stats, [a.name for a in query.atoms])
            by_size = left_deep_order(
                query.atoms, lambda name: stats.relation(name).cardinality
            )
            bound = binding_order(query, by_size)
            q_size = (
                self._hash_plan_quantity(stats, by_size)
                if bound != gao
                else math.inf
            )
            if factor * q_size + sort < factor * q:
                q, gao = q_size, bound
            else:
                sort = 0.0
            formula = f"N + Σ intermediates ≈ {q:g}"
        return CostEstimate(
            backend, q, factor * q + sort, formula, sort=sort, gao=gao,
        )

    # -- parallel-plan candidates ----------------------------------------------

    def estimate_parallel(
        self,
        base: CostEstimate,
        query: JoinQuery,
        stats: QueryStats,
        workers: int,
        num_shards: int,
    ) -> CostEstimate:
        """Price a backend run shard-parallel on ``workers`` processes.

        Speedup-aware: the backend's quantity (input, output and
        intermediate work, all of which partition cleanly) divides by
        the effective parallelism ``min(workers, shards, usable
        cores)`` — workers beyond the cores this process may run on add
        no speedup.  On top ride the flat shard-dispatch charge, the
        output rows (returned and merged) and the input: laid out once
        in shared memory and mapped by every worker, it costs the flat
        :data:`PARALLEL_SHM_ATTACH` charge per (atom × worker).
        """
        p = max(1, min(workers, num_shards, usable_cores()))
        overhead = (
            self.PARALLEL_SHARD_OVERHEAD * num_shards
            + self.PARALLEL_SHM_ATTACH * len(query.atoms) * p
            + self.PARALLEL_SHIP_OUTPUT * stats.output_estimate
        )
        quantity = base.quantity / p
        factor = self.calibration[base.backend]
        # Workers sort their own shards; the parent's final sort then
        # merges already-sorted runs.
        sort = base.sort / p
        return CostEstimate(
            base.backend,
            quantity,
            factor * quantity + overhead + sort,
            f"{base.formula} ∥ ×{p} workers ({num_shards} shards, shm)",
            workers=workers,
            parallel=True,
            sort=sort,
            gao=base.gao,
        )

    def estimate_all(
        self,
        query: JoinQuery,
        profile: StructureProfile,
        stats: QueryStats,
        workers: Optional[int] = None,
        num_shards: int = 1,
    ) -> Tuple[CostEstimate, ...]:
        """Every candidate: serial per :data:`CANDIDATES` backend, plus —
        when a worker count is on the table and the split produced > 1
        shard — one parallel candidate per backend at that worker
        count."""
        tables = self._variable_tables(query, stats)
        sort = self._sort_cost(stats, tables)
        serial = tuple(
            self._estimate(b, query, profile, stats, sort, tables)
            for b in CANDIDATES
        )
        if workers is None or workers < 1 or num_shards <= 1:
            return serial
        parallel = tuple(
            self.estimate_parallel(c, query, stats, workers, num_shards)
            for c in serial
        )
        return serial + parallel

    # -- calibration hook ------------------------------------------------------

    def calibrate(
        self, measurements: Mapping[str, Tuple[float, float]]
    ) -> "CostModel":
        """Refit constant factors from ``{backend: (seconds, quantity)}``.

        Factors are normalized so ``hash`` stays at its current value —
        relative order is all the argmin ever reads.  Returns a new model;
        the receiver is untouched.  A backend outside :data:`CANDIDATES`
        raises ``ValueError``.
        """
        _check_priced(measurements)
        per_unit = {
            b: seconds / quantity
            for b, (seconds, quantity) in measurements.items()
            if quantity > 0 and seconds > 0
        }
        if not per_unit:
            return CostModel(self.calibration, unit_seconds=self.unit_seconds)
        anchor = per_unit.get("hash")
        scale = (
            self.calibration["hash"] / anchor
            if anchor
            else 1.0 / min(per_unit.values())
        )
        updated = dict(self.calibration)
        updated.update({b: v * scale for b, v in per_unit.items()})
        return CostModel(updated, unit_seconds=self.unit_seconds)
