"""Merging shard results: outcomes, aggregated stats, the run report.

:func:`run_shards` is the orchestration entry the engine's executor
calls: partition → clip (pruning shards with an empty relation before
any dispatch) → deal to the persistent pool → yield
:class:`ShardOutcome` objects in completion order, each carrying its
shard's rows as one sorted list.  The engine hands those lists to its
ordinary :class:`ResultCursor`: iteration streams them shard by shard,
``fetchall`` puts them in order of their first row and concatenates —
shards that are ranges of the leading variable *are* the sorted output,
and only interleaving shards are sorted again.  ``limit``, ``decode``
and ``close`` (which stops dealing and drains the pool) keep their
serial semantics, and per-shard ``ResolutionStats`` aggregate with
:meth:`ResolutionStats.merge`.

The :class:`ParallelReport` filled along the way is the subsystem's
instrumentation: per-shard compute seconds (CPU, measured where the
shard ran), per-process busy time — worker id ``-1`` is the parent,
which computes shards itself while every worker is busy
(``shards_in_parent``) as well as every shard that failed on a worker
(``shards_quarantined``) or found no pool to run on — rows
shipped vs. reference hits, pruned shard count, and the **makespan** —
partition time + parent-side coordination + the busiest process —
which is the wall time a host with ≥ ``workers`` free cores sees, and
what ``repro explain`` renders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.resolution import ResolutionStats
from repro.obs import tracing as _tracing
from repro.obs.metrics import REGISTRY as _METRICS
from repro.parallel.partition import (
    Shard,
    clip_relation,
    clip_slice,
    partition_shards,
)
from repro.parallel.scheduler import (
    PendingShard,
    QueryTimeout,
    WorkerError,
    get_pool,
    run_job_in_parent,
)
from repro.parallel import shm as _shm
from repro.parallel.shm import SlicePlan
from repro.relational.query import ContentLRU, Database, JoinQuery

Row = Tuple[int, ...]


@dataclass
class ShardOutcome:
    """One executed shard: its rows, stats and scheduling facts."""

    shard: Shard
    shard_id: int
    rows: List[Row]
    stats: ResolutionStats
    compute_seconds: float
    worker_id: int
    input_rows: int


@dataclass
class ParallelReport:
    """Aggregated instrumentation of one shard-parallel run."""

    workers: int
    num_shards: int
    split_attrs: Tuple[str, ...]
    pruned_shards: int = 0
    executed_shards: int = 0
    output_rows: int = 0
    #: Rows shipped by value the first time their content left the
    #: parent.  Re-ships of content already resident on another worker
    #: (work stealing) are tallied apart in :attr:`rows_reshipped`.
    rows_shipped: int = 0
    #: Actual wire bytes of every cold payload — pickled blob lengths
    #: plus the (tiny) pickled segment refs, measured at ship time.
    bytes_shipped: int = 0
    #: The nominal figure the wire volume used to be reported as
    #: (8 bytes per column value), kept for cross-run comparability.
    bytes_nominal: int = 0
    #: Steal-induced duplicate ships: rows pickled to a worker although
    #: another worker already cached the same content.
    rows_reshipped: int = 0
    #: Shards dealt to a worker holding none of their relations while
    #: another worker held some (the work-stealing last resort).
    shards_stolen: int = 0
    ref_hits: int = 0
    refs_total: int = 0
    #: Shared-memory data plane: payloads shipped as segment refs,
    #: refs that fell back to pickle blobs (creation failure), segments
    #: newly attached worker-side with their mapped bytes and attach
    #: wall time.
    shm_ships: int = 0
    shm_fallbacks: int = 0
    shm_attaches: int = 0
    shm_attached_bytes: int = 0
    shm_attach_seconds: float = 0.0
    #: Fault-recovery accounting: workers respawned after death/hang,
    #: shards that failed on a worker and ran in the parent instead,
    #: shards run in the parent because no pool could be spawned, and
    #: shm exports that failed by *raising* (degraded to blob ships).
    worker_respawns: int = 0
    shards_quarantined: int = 0
    serial_fallback_shards: int = 0
    shm_export_errors: int = 0
    #: Never-dispatched shards the parent computed itself because every
    #: worker was busy and nothing was ready to receive.  Not a fault
    #: and not a dispatch: ``had_faults`` ignores it.
    shards_in_parent: int = 0
    #: Wall seconds the deal loop spent executing shards in the parent
    #: (taken, quarantined or without a pool alike).
    in_parent_seconds: float = 0.0
    #: Pipe dispatches attempted vs. answered clean.  A shard is
    #: dispatched at most once and its in-parent re-run is no
    #: dispatch, so ``attempts == successes + shards_quarantined`` in
    #: every run that completes.
    dispatch_attempts: int = 0
    dispatch_successes: int = 0
    #: The run aborted on its deadline (the report is partial).
    timed_out: bool = False
    #: Wall seconds of partition + clip (zero-ish on a job-cache hit).
    partition_seconds: float = 0.0
    #: Wall seconds from the outcome stream's first pull to its close.
    #: When the cursor *streams*, whatever the consumer does between
    #: pulls is inside it; materialising paths (``fetchall``,
    #: ``execute``) pull back to back.
    loop_seconds: float = 0.0
    #: worker id → Σ CPU seconds (``process_time``) of the shards it
    #: ran; ``-1`` is the parent.
    worker_busy: Dict[int, float] = field(default_factory=dict)
    #: (shard description, worker id, output rows, compute seconds),
    #: completion order — the EXPLAIN shard tree's rows.
    shard_details: List[Tuple[str, int, int, float]] = field(
        default_factory=list
    )

    def record(self, outcome: ShardOutcome) -> None:
        self.executed_shards += 1
        self.output_rows += len(outcome.rows)
        self.worker_busy[outcome.worker_id] = (
            self.worker_busy.get(outcome.worker_id, 0.0)
            + outcome.compute_seconds
        )
        self.shard_details.append(
            (
                outcome.shard.describe(),
                outcome.worker_id,
                len(outcome.rows),
                outcome.compute_seconds,
            )
        )

    @property
    def total_compute_seconds(self) -> float:
        """Σ per-shard compute — the run's aggregate shard CPU time,
        parent-run shards included."""
        return sum(self.worker_busy.values())

    @property
    def max_worker_seconds(self) -> float:
        """The busiest process's total shard CPU (the parent counts as
        one): the parallel critical path."""
        return max(self.worker_busy.values(), default=0.0)

    @property
    def coordination_seconds(self) -> float:
        """Parent-side work during the loop that is not shard compute:
        dispatch pickling, receive, unpickling results.

        ``loop_seconds`` (wall) minus ``in_parent_seconds`` (wall: those
        shards ran inside the loop, serially) minus the workers' shard
        CPU seconds.  The last term is on another clock and another
        core: it is exact when workers and parent share one core, and on
        a host with free cores worker compute overlaps the loop and this
        collapses toward the true (small) coordination cost — hence the
        clamp at zero."""
        in_workers = sum(s for w, s in self.worker_busy.items() if w >= 0)
        return max(
            0.0, self.loop_seconds - self.in_parent_seconds - in_workers
        )

    @property
    def makespan_seconds(self) -> float:
        """Critical-path wall time with ≥ ``workers`` free cores:
        partition + serial coordination + the busiest process."""
        return (
            self.partition_seconds
            + self.coordination_seconds
            + self.max_worker_seconds
        )

    @property
    def had_faults(self) -> bool:
        """Whether any recovery machinery fired during this run."""
        return bool(
            self.worker_respawns
            or self.shards_quarantined
            or self.serial_fallback_shards
            or self.shm_export_errors
            or self.timed_out
        )

    @property
    def balance(self) -> float:
        """Busiest process's share of the mean load over the processes
        that ran shards, the parent included (1.0 = perfectly level)."""
        if not self.worker_busy:
            return 1.0
        mean = self.total_compute_seconds / len(self.worker_busy)
        if mean == 0.0:
            return 1.0
        return self.max_worker_seconds / mean

    def summary(self) -> str:
        hit = (
            f"{self.ref_hits}/{self.refs_total}"
            if self.refs_total
            else "0/0"
        )
        shm = (
            f" shm={self.shm_ships} refs"
            f"/{self.shm_attached_bytes}B attached"
            if self.shm_ships
            else ""
        )
        faults = (
            f" faults: {self.worker_respawns} respawns, "
            f"{self.shards_quarantined + self.serial_fallback_shards} "
            f"serial"
            if self.had_faults
            else ""
        )
        timed = " TIMED OUT" if self.timed_out else ""
        return (
            f"workers={self.workers} shards={self.executed_shards}"
            f"+{self.pruned_shards} pruned "
            f"({self.shards_in_parent} in parent) "
            f"shipped={self.rows_shipped} rows (ref hits {hit}){shm} "
            f"makespan={self.makespan_seconds:.4f}s "
            f"(busiest worker {self.max_worker_seconds:.4f}s)"
            f"{faults}{timed}"
        )


#: Prepared (partitioned + clipped) jobs, keyed on content.
#: Partitioning probes and clipping slices are pure functions of the
#: relations' content and the plan's shard parameters, and relations
#: are immutable — so a served workload re-running the same parallel
#: query skips the whole prepare step: same shards, same clipped
#: relation objects (hence the same worker cache keys: repeats still
#: ship no rows), near-zero partition time in the report.
_JOB_CACHE = ContentLRU(32)


def clear_job_cache() -> None:
    """Drop every memoized shard partition (tests / memory pressure)."""
    _JOB_CACHE.clear()


def prepare_jobs(
    query: JoinQuery, db: Database, plan
) -> Tuple[Tuple[Shard, ...], List[PendingShard], int]:
    """Partition and clip: the dispatchable jobs plus the pruned count.

    Memoized on content — query signature, relation fingerprints and
    the plan's shard parameters — so repeated executions reuse the
    clipped relations (zero-copy, including their memoized views).

    Where a shard's clip of a large-enough relation starts from the
    schema-leading attribute (:func:`~repro.parallel.partition.
    clip_slice`), the job carries a :class:`~repro.parallel.shm.
    SlicePlan` — a bisected canonical-row range plus any residual
    value-range filters — instead of a materialized copy: every shard of
    every worker then reads the same shared base segment, and the parent
    never builds the clipped rows at all.
    """
    key = (
        query.signature,
        db.stats_fingerprint(),
        plan.num_shards,
        tuple(plan.split_attrs),
    )
    cached = _JOB_CACHE.get(key)
    if cached is not None:
        return cached
    shards = partition_shards(
        query, db, plan.num_shards, plan.split_attrs or None
    )
    depth = db.domain.depth
    jobs: List[PendingShard] = []
    pruned = 0
    for shard_id, shard in enumerate(shards):
        relations = []
        weight = 0
        for atom in query.atoms:
            rel = db[atom.name]
            attr_map = dict(zip(atom.attrs, rel.attrs))
            rng = None
            if rel.nominal_bytes() >= _shm.MIN_BYTES:
                rng = clip_slice(rel, shard, depth, attr_map)
            if rng is not None:
                lo, hi, rest = rng
                if hi <= lo:
                    relations = None
                    break
                relations.append(
                    (
                        atom.name,
                        ("shm-slice", rel.cache_key(), lo, hi, rest),
                        SlicePlan(rel, lo, hi, rest),
                    )
                )
                weight += hi - lo
                continue
            piece = clip_relation(rel, shard, depth, attr_map)
            if len(piece) == 0:
                relations = None
                break
            relations.append((atom.name, piece.cache_key(), piece))
            weight += len(piece)
        if relations is None:
            pruned += 1
            continue
        jobs.append(
            PendingShard(
                shard_id=shard_id,
                shard=shard,
                relations=tuple(relations),
                weight=weight,
            )
        )
    prepared = (shards, jobs, pruned)
    _JOB_CACHE.put(key, prepared)
    return prepared


def run_shards(
    query: JoinQuery,
    db: Database,
    plan,
    limit: Optional[int] = None,
    timeout_ms: Optional[int] = None,
) -> Tuple[Iterator[ShardOutcome], ParallelReport]:
    """Execute a planned parallel join; outcomes stream as shards finish.

    Returns ``(outcomes, report)``.  The outcome iterator deals shards
    to the persistent pool lazily — closing it early (cursor ``limit``)
    stops dealing and drains in-flight work.  ``limit`` is forwarded to
    every shard as a per-shard cap (no shard can contribute more than
    ``limit`` rows; the merged cursor enforces the global cut-off).

    ``timeout_ms`` (``None``/≤0 = unbounded) arms a per-query deadline,
    counted from first consumption: past it the run aborts with
    :class:`~repro.parallel.scheduler.QueryTimeout` carrying this
    (partial) report, and any hung workers are killed and respawned.

    A pool that cannot be spawned at all degrades the whole run to
    serial in-process execution — ``workers=N`` is a performance hint,
    never a correctness risk.
    """
    tracer = _tracing.current_tracer()
    t0 = time.perf_counter()
    with _tracing.span("parallel.partition", shards=plan.num_shards) as sp:
        shards, jobs, pruned = prepare_jobs(query, db, plan)
        if sp is not None:
            sp.attrs.update(jobs=len(jobs), pruned=pruned)
    report = ParallelReport(
        workers=plan.workers,
        num_shards=len(shards),
        split_attrs=tuple(plan.split_attrs),
        pruned_shards=pruned,
    )
    report.partition_seconds = time.perf_counter() - t0

    if not jobs:
        _publish_report(report)
        return iter(()), report

    by_id = {job.shard_id: job for job in jobs}
    if timeout_ms is not None and timeout_ms <= 0:
        timeout_ms = None
    # Capture the dispatch span's parent *now*, while the caller's span
    # stack still reflects this query — the outcome generator below may
    # run after the ambient context has moved on.
    dispatch_parent = tracer.context()[1] if tracer is not None else None

    def emit(result, worker_id: int, job: PendingShard) -> ShardOutcome:
        if tracer is not None and result.spans:
            tracer.adopt(result.spans)
        outcome = ShardOutcome(
            shard=by_id[result.shard_id].shard,
            shard_id=result.shard_id,
            rows=result.rows,
            stats=result.stats,
            compute_seconds=result.compute_seconds,
            worker_id=worker_id,
            input_rows=job.weight,
        )
        report.record(outcome)
        return outcome

    def outcomes() -> Iterator[ShardOutcome]:
        loop_start = time.perf_counter()
        deadline = (
            time.monotonic() + timeout_ms / 1000.0
            if timeout_ms is not None
            else None
        )
        dispatch_span = None
        trace_ctx = None
        if tracer is not None:
            dispatch_span = tracer.start(
                "parallel.dispatch",
                parent_id=dispatch_parent,
                workers=plan.workers,
                shards=len(jobs),
            )
            trace_ctx = (tracer.trace_id, dispatch_span.span_id)
        try:
            # Pool acquisition happens at first consumption,
            # synchronously with the dealer reserving it — get_pool
            # never returns a pool another open cursor is mid-run on,
            # so interleaved parallel cursors cannot cross-wire each
            # other's pipe replies.  A pool that cannot be spawned at
            # all (fork/pipe exhaustion) degrades the run to serial
            # in-process execution of every shard instead of failing:
            # workers=N is a performance hint, never a correctness
            # risk.
            try:
                pool = get_pool(plan.workers)
            except (OSError, WorkerError):
                if tracer is not None:
                    tracer.finish(
                        tracer.start(
                            "parallel.degraded",
                            reason="pool spawn failed",
                        )
                    )
                for job in sorted(jobs, key=lambda j: -j.weight):
                    if (
                        deadline is not None
                        and time.monotonic() >= deadline
                    ):
                        report.timed_out = True
                        raise QueryTimeout(
                            "serial-fallback query exceeded its "
                            "deadline",
                            report=report,
                        )
                    t_job = time.perf_counter()
                    result = run_job_in_parent(
                        job, query.atoms, plan.backend, plan.index_kind,
                        plan.gao, limit, trace_ctx,
                    )
                    report.in_parent_seconds += time.perf_counter() - t_job
                    report.serial_fallback_shards += 1
                    yield emit(result, -1, job)
                return
            dealer = pool.run_shards(
                jobs,
                atoms=query.atoms,
                backend=plan.backend,
                index_kind=plan.index_kind,
                gao=plan.gao,
                limit=limit,
                report=report,
                trace=trace_ctx,
                deadline=deadline,
            )
            try:
                for result, worker_id, job in dealer:
                    yield emit(result, worker_id, job)
            finally:
                # Explicit close: abandoning the merged cursor
                # mid-stream must deterministically stop dealing and
                # drain in-flight shards, not wait for garbage
                # collection.
                dealer.close()
        finally:
            report.loop_seconds = time.perf_counter() - loop_start
            if tracer is not None:
                tracer.finish(
                    dispatch_span,
                    executed=report.executed_shards,
                    rows=report.output_rows,
                )
            _publish_report(report)

    return outcomes(), report


def _publish_report(report: ParallelReport) -> None:
    """Fold one run's report into the process-wide metrics registry."""
    if not _METRICS.enabled:
        return
    _METRICS.inc_many(
        {
            "parallel.runs": 1,
            "parallel.shards.executed": report.executed_shards,
            "parallel.shards.pruned": report.pruned_shards,
            "parallel.shards.stolen": report.shards_stolen,
            "parallel.shards.in_parent": report.shards_in_parent,
            "parallel.ship.rows": report.rows_shipped,
            "parallel.ship.rows_reshipped": report.rows_reshipped,
            "parallel.ship.bytes": report.bytes_shipped,
            "parallel.ship.bytes_nominal": report.bytes_nominal,
            "parallel.ship.ref_hits": report.ref_hits,
            "parallel.ship.refs_total": report.refs_total,
            "parallel.shm.ships": report.shm_ships,
            "parallel.shm.fallbacks": report.shm_fallbacks,
            "parallel.shm.attaches": report.shm_attaches,
            "parallel.shm.attached_bytes": report.shm_attached_bytes,
            "parallel.dispatch.attempts": report.dispatch_attempts,
            "parallel.dispatch.successes": report.dispatch_successes,
            "parallel.faults.respawns": report.worker_respawns,
            "parallel.faults.quarantined": report.shards_quarantined,
            "parallel.faults.serial_fallback": (
                report.serial_fallback_shards
            ),
            "parallel.faults.shm_export_errors": report.shm_export_errors,
            "parallel.faults.timeouts": 1 if report.timed_out else 0,
        }
    )
    if report.shm_attach_seconds > 0.0:
        _METRICS.observe(
            "parallel.shm.attach_seconds", report.shm_attach_seconds
        )
    _METRICS.observe("parallel.makespan_seconds", report.makespan_seconds)
