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
Its values were fitted offline from kernel-only timings of this
repository's benchmark shapes (the table above
:data:`DEFAULT_CALIBRATION`).  Nothing is loaded or refit at run time:
the constants below are the only ones the planner prices with,
wherever the process runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Optional, Sequence, Tuple

from repro.engine.stats import (
    QueryShape,
    QueryStats,
    VariableTables,
    frozen_record,
    query_shape,
)
from repro.joins.hashjoin import connected_order
from repro.relational.agm import fhtw_of_order
from repro.relational.hypergraph import Hypergraph
from repro.relational.query import JoinQuery


#: Abstract-operation cost per backend, in units of one hash-join probe.
#: ``hash`` is the anchor.  ``leapfrog`` was fitted on the block kernels
#: as the ratio of medians of measured seconds per modelled unit, from
#: kernel-only timings (``list(iter_*)``, median of 5, sort excluded)
#: over the benchmark's ``auto_mix`` shapes and
#: ``tests/engine/test_planner.py``'s — measured µs per modelled unit,
#: hash / leapfrog:
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


@dataclass(frozen=True)
class StructureProfile:
    """The structural planning signals of a query (Table 1's row keys).

    The planner reads ``acyclic`` and ``gao``: the reverse GYO order of
    an α-acyclic query, else a treewidth-optimal elimination order.
    ``treewidth`` and ``fhtw_upper`` only EXPLAIN shows, so they are
    worked out from the ``hypergraph`` when read, not at planning.
    """

    acyclic: bool
    gao: Tuple[str, ...]
    hypergraph: Hypergraph = field(compare=False, repr=False)

    @property
    def treewidth(self) -> int:
        return self.hypergraph.treewidth()[0]

    @property
    def fhtw_upper(self) -> float:
        """fhtw, upper-bounded by the cover number of the GAO's
        decomposition (1 for an α-acyclic query) — one LP per bag no
        edge contains instead of the exact-but-exponential search in
        :func:`repro.relational.agm.fhtw`."""
        if self.acyclic:
            return 1.0
        return fhtw_of_order(self.hypergraph, self.gao)

    @property
    def table1_row(self) -> str:
        if self.acyclic:
            return "α-acyclic: Õ(N + Z) [Yannakakis / Thm D.8]"
        if self.treewidth == 1:
            return "treewidth 1: Õ(|C| + Z) [Thm 4.7]"
        fhtw_upper = self.fhtw_upper
        return (
            f"fhtw ≤ {fhtw_upper:g}: Õ(N^{fhtw_upper:g} + Z) "
            f"[Thm D.9]"
        )


def structure_of(query: JoinQuery) -> StructureProfile:
    """Analyze a query's hypergraph once, for planning: one GYO run,
    and the treewidth elimination order only for a cyclic query."""
    h = Hypergraph.of_query(query)
    gao = h.acyclic_gao()
    if gao is not None:
        return StructureProfile(acyclic=True, gao=gao, hypergraph=h)
    _, order = h.treewidth()
    return StructureProfile(acyclic=False, gao=tuple(order), hypergraph=h)


def usable_cores() -> int:
    """Cores this process may run on — the one place the count is read.

    The scheduling affinity, not the machine: under ``taskset`` or a
    container CPU set, extra workers only time-slice the same cores.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


def _gao_indices(shape: QueryShape, gao: Tuple[str, ...]) -> Tuple[int, ...]:
    """A GAO as variable indices, worked out once per shape."""
    order = shape.gao_orders.get(gao)
    if order is None:
        order = shape.gao_orders[gao] = tuple(map(shape.variables.index, gao))
    return order


def _atom_order(
    shape: QueryShape, indices: Sequence[int]
) -> Tuple[Tuple, Tuple[str, ...], Tuple]:
    """An atom order (atom indices): its pricing steps, the variable
    order it binds (:func:`~repro.joins.hashjoin.binding_order`) and its
    atoms as ``(name, attrs)`` pairs (what the hash kernel is compiled
    from) — once per shape and order.

    A step is an atom index and, per attribute, ``(k, j, bound)``: the
    variable's index, the atom's place among its participants (so the
    variable table holds its distinct count there) and whether an
    earlier atom binds it already.
    """
    key = tuple(indices)
    entry = shape.atom_orders.get(key)
    if entry is None:
        variables = shape.variables
        seen = set()
        binds = []
        steps = []
        for i in key:
            reads = []
            for k, j in shape.atom_reads[i]:
                bound = k in seen
                reads.append((k, j, bound))
                if not bound:
                    seen.add(k)
                    binds.append(variables[k])
            steps.append((i, tuple(reads)))
        entry = shape.atom_orders[key] = (
            tuple(steps),
            tuple(binds),
            tuple(map(shape.signature.__getitem__, key)),
        )
    return entry


def _by_size(
    shape: QueryShape, cards: Sequence[int]
) -> Tuple[Tuple, Tuple[str, ...], Tuple]:
    """:func:`_atom_order` of :func:`~repro.joins.hashjoin.left_deep_order`
    by size.  That order depends only on how ``cards`` rank the atoms by
    (size, name) — a stable sort by size of the atoms in name order —
    so it is worked out once per shape and ranking."""
    ranking = tuple(sorted(shape.name_order, key=cards.__getitem__))
    entry = shape.by_size.get(ranking)
    if entry is None:
        entry = shape.by_size[ranking] = _atom_order(
            shape, connected_order(ranking, shape.edges)
        )
    return entry


#: A variable table's value-range overlap.
_OVERLAP = itemgetter(3)

#: The candidates' formulas, as ``str.format`` templates.
_LEAPFROG_FORMULA = "Õ(N + Σ level candidates) ≈ {:g} (AGM {:g})"
_HASH_FORMULA = "N + Σ intermediates ≈ {:g}"
_PARALLEL_FORMULA = " ∥ ×{} workers ({} shards, shm)"


@frozen_record
class CostEstimate:
    """One backend's predicted cost on an instance.

    ``parallel`` marks a *parallel-plan candidate*: the same backend run
    shard-parallel on ``workers`` processes, priced with the dispatch
    and shipping overheads of :meth:`CostModel.estimate_parallel` (a
    pool of one worker is still a parallel plan — sharded, dealt,
    merged — so the flag is explicit rather than inferred from the
    count).  A hash candidate carries the ``atom_order`` it was priced
    on, as ``(name, attrs)`` pairs, which a serial plan runs.

    A forced-only backend's plan carries an *unpriced* estimate:
    ``quantity`` and ``cost`` are ``None``.

    The :attr:`formula` EXPLAIN prints is kept as a ``str.format``
    ``template`` and its ``args``, and formatted only when read: most
    plans are never explained.
    """

    backend: str
    quantity: Optional[float]
    cost: Optional[float]
    template: str
    workers: int = 1
    parallel: bool = False
    sort: float = 0.0
    gao: Optional[Tuple[str, ...]] = None
    atom_order: Optional[Tuple[Tuple[str, Tuple[str, ...]], ...]] = None
    args: Tuple = ()

    @property
    def formula(self) -> str:
        """The instantiated cost formula."""
        return self.template.format(*self.args)


class CostModel:
    """Calibrated cost estimates of the :data:`CANDIDATES` over query
    statistics.

    The constants are :data:`DEFAULT_CALIBRATION`, read at each
    estimate.  :data:`DEFAULT_UNIT_SECONDS` — the measured wall time of
    one abstract cost unit — turns predicted costs into predicted
    seconds (:meth:`predicted_seconds`), which is what EXPLAIN ANALYZE
    holds against the measured run.
    """

    @staticmethod
    def predicted_seconds(cost: float) -> float:
        """A predicted cost in wall seconds, via the calibrated unit."""
        return cost * DEFAULT_UNIT_SECONDS

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

    def _leapfrog_quantity(
        self,
        cards: Sequence[float],
        stats: QueryStats,
        order: Sequence[int],
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
        ``order`` (variable indices); the per-variable ``tables`` and
        the atoms' ``cards`` are shared between the orders a plan
        prices.
        """
        log2 = math.log2
        prod = math.prod
        spanned = [1.0] * len(cards)  # Π distinct over bound attributes
        factor = [1.0] * len(cards)  # min(|R|, spanned) once bound
        scale = 1.0
        survivors = 1.0
        total = 0.0
        # min(a, b) is ``b if b < a else a`` and max(a, b) is ``b if b > a
        # else a``, spelled out on this hot path, and the one- and
        # two-relation levels (every level of a binary query) unrolled.
        # The smallest fan-out's own term is log₂(1 + f / f) = 1 exactly.
        for k in order:
            parts, distinct, selectivity, overlap, _ = tables[k]
            arity = len(parts)
            if arity == 1:
                # A lone relation: one seek per candidate.
                i = parts[0]
                s = spanned[i] = spanned[i] * distinct[0]
                c = cards[i]
                grown = s if s < c else c
                fan_out = grown / factor[i] if factor[i] else 0.0
                factor[i] = grown
                seeks = 1.0
            elif arity == 2:
                i, j = parts
                s = spanned[i] = spanned[i] * distinct[0]
                c = cards[i]
                grown = s if s < c else c
                fan_i = grown / factor[i] if factor[i] else 0.0
                factor[i] = grown
                s = spanned[j] = spanned[j] * distinct[1]
                c = cards[j]
                grown = s if s < c else c
                fan_j = grown / factor[j] if factor[j] else 0.0
                factor[j] = grown
                if fan_j < fan_i:
                    fan_out = fan_j
                    seeks = log2(1.0 + fan_i / fan_j) + 1.0 if fan_j else 1.0
                elif fan_i:
                    fan_out = fan_i
                    seeks = 1.0 + log2(1.0 + fan_j / fan_i)
                else:
                    fan_out = fan_i
                    seeks = 1.0
            else:
                fans = []
                for i, d in zip(parts, distinct):
                    s = spanned[i] = spanned[i] * d
                    c = cards[i]
                    grown = s if s < c else c
                    fans.append(grown / factor[i] if factor[i] else 0.0)
                    factor[i] = grown
                fan_out = min(fans)
                if not fan_out:
                    seeks = 1.0
                else:
                    seeks = 0.0
                    for f in fans:
                        seeks += log2(1.0 + f / fan_out)
            scale *= selectivity * overlap
            candidates = survivors * fan_out * overlap * seeks
            survivors = prod(factor) * scale
            total += candidates if candidates > survivors else survivors
        cap = (
            len(order) * max(stats.agm, 1.0) * max(stats.domain_depth, 1)
        )
        # Per-atom seek/cursor setup; the sorted views are cached.
        setup = len(cards) * self.STEP_OVERHEAD
        return setup + min(total, cap)

    def _hash_plan_quantity(
        self,
        cards: Sequence[int],
        tables: VariableTables,
        steps: Sequence[Tuple],
    ) -> float:
        """Σ (build + probe + intermediate) of the left-deep plan over
        an atom order, as :func:`_atom_order`'s ``steps``.

        Each intermediate is estimated under independence: joining on
        shared variables divides the cross product by the larger
        distinct count per variable.
        """
        first, reads = steps[0]
        acc_size = float(cards[first])
        acc = [0] * len(tables)  # per bound variable, its distinct count
        for k, j, _ in reads:
            acc[k] = tables[k][1][j]
        total = acc_size
        step = self.STEP_OVERHEAD
        for i, reads in steps[1:]:
            # One join step: the cross product, divided by the larger
            # distinct count per shared variable (at least 1); the
            # atom's counts then fold into the accumulator's (the
            # smaller one wins).
            c = cards[i]
            acc_size *= c
            for k, j, bound in reads:
                d = tables[k][1][j]
                if not bound:
                    acc[k] = d
                    continue
                a = acc[k]
                if a < d:
                    acc_size /= d if d > 1 else 1
                else:
                    acc_size /= a if a > 1 else 1
                    acc[k] = d
            total += c + acc_size + step
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
        z = stats.output_estimate * math.prod(map(_OVERLAP, tables))
        return self.SORT * z * math.log2(z) if z > 1.0 else 0.0

    def _estimate(
        self,
        backend: str,
        query: JoinQuery,
        shape: QueryShape,
        profile: StructureProfile,
        stats: QueryStats,
        cards: Sequence[int],
        sort: float,
        tables: VariableTables,
    ) -> CostEstimate:
        """One serial candidate, given the plan's :meth:`_sort_cost` and
        :meth:`~repro.engine.stats.QueryStats.variable_tables`.

        Every candidate emits in GAO-lexicographic order, so it pays the
        sort unless its GAO is ``query.variables``.  Leapfrog is
        worst-case optimal under any order and is priced on the
        structural GAO and on ``query.variables``, keeping the cheaper.
        A hash cascade emits lexicographic in the order it binds
        variables (:func:`~repro.joins.hashjoin.binding_order`), so it
        is priced the same way: the query's own atom order, which binds
        ``query.variables`` and pays no sort, against
        :func:`~repro.joins.hashjoin.left_deep_order` by size plus the
        sort (unless that order binds ``query.variables`` too).  Its GAO
        is the binding order of the order kept, and the order itself is
        the estimate's ``atom_order``.  Orders are priced as index lists,
        each worked out once per shape.
        """
        factor = DEFAULT_CALIBRATION[backend]
        if backend == "leapfrog":
            floats = list(map(float, cards))
            gao = profile.gao
            q = self._leapfrog_quantity(
                floats, stats, _gao_indices(shape, gao), tables
            )
            if gao == query.variables:
                sort = 0.0
            elif sort:
                q_ordered = self._leapfrog_quantity(
                    floats, stats, range(len(tables)), tables
                )
                if factor * q_ordered <= factor * q + sort:
                    q, gao, sort = q_ordered, query.variables, 0.0
            return CostEstimate(
                backend, q, factor * q + sort, _LEAPFROG_FORMULA,
                sort=sort, gao=gao, args=(q, stats.agm),
            )
        # hash
        gao = query.variables
        q = self._hash_plan_quantity(
            cards, tables, _atom_order(shape, range(len(cards)))[0]
        )
        steps, bound, atoms = _by_size(shape, cards)
        q_size = (
            self._hash_plan_quantity(cards, tables, steps)
            if bound != gao
            else math.inf
        )
        if factor * q_size + sort < factor * q:
            q, gao = q_size, bound
        else:
            sort, atoms = 0.0, shape.signature
        return CostEstimate(
            backend, q, factor * q + sort, _HASH_FORMULA,
            sort=sort, gao=gao, atom_order=atoms, args=(q,),
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
        factor = DEFAULT_CALIBRATION[base.backend]
        # Workers sort their own shards; the parent's final sort then
        # merges already-sorted runs.
        sort = base.sort / p
        return CostEstimate(
            base.backend,
            quantity,
            factor * quantity + overhead + sort,
            base.template + _PARALLEL_FORMULA,
            workers=workers,
            parallel=True,
            sort=sort,
            gao=base.gao,
            atom_order=base.atom_order,
            args=base.args + (p, num_shards),
        )

    def estimate_all(
        self,
        query: JoinQuery,
        profile: StructureProfile,
        stats: QueryStats,
        workers: Optional[int] = None,
        num_shards: int = 1,
        shape: Optional[QueryShape] = None,
    ) -> Tuple[CostEstimate, ...]:
        """Every candidate: serial per :data:`CANDIDATES` backend, plus —
        when a worker count is on the table and the split produced > 1
        shard — one parallel candidate per backend at that worker
        count.  ``stats`` are the query's (profiles in its atom order);
        ``shape`` is its :func:`~repro.engine.stats.query_shape`, looked
        up when not given."""
        if shape is None:
            shape = query_shape(query)
        cards = [p.cardinality for p in stats.relations]
        tables = stats.variable_tables(shape)
        sort = self._sort_cost(stats, tables)
        serial = tuple([
            self._estimate(
                b, query, shape, profile, stats, cards, sort, tables
            )
            for b in CANDIDATES
        ])
        if workers is None or workers < 1 or num_shards <= 1:
            return serial
        parallel = tuple(
            self.estimate_parallel(c, query, stats, workers, num_shards)
            for c in serial
        )
        return serial + parallel
