"""The unified execution engine: one entry point over every join backend.

``execute(query, db, algorithm="auto")`` plans (or takes the caller's
``plan=``), drains the plan's rows and sorts them, and returns an
:class:`ExecutionResult` — the same shape as
:class:`repro.joins.tetris_join.JoinResult` (``tuples`` / ``variables`` /
``stats`` / ``gao``) plus the :class:`~repro.engine.planner.Plan` and the
measured wall time, so EXPLAIN can show predicted vs. actual.

``execute_cursor(...)`` is the same path stopped one step earlier: it
returns the :class:`ResultCursor`, which pulls rows lazily from the
backend, ``limit=k`` terminates early after materializing at most O(k)
output rows, and ``decode=`` threads a
:class:`~repro.relational.io.ValueDictionary` so results come back as
the original values instead of dictionary codes.

Rows cross every boundary on the way — kernel to backend to cursor,
shard to parent — a **block** at a time: a list of fewer than ``2 ×``
:data:`~repro.relational.io.BLOCK_ROWS` rows (``limit``, if smaller).
A backend that emits in output order says so, and is not sorted again.

The six backends are declared once, in :data:`BACKEND_TABLE`, each as
a single ``run`` function, and :func:`run_backend` is the only place one
is entered — by a serial run here (``execute``'s drain or a cursor)
and by :func:`repro.parallel.workers.execute_shard` for every shard of
a parallel run, whichever process computes it.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.resolution import ResolutionStats
from repro.engine.codegen import hash_kernel
from repro.engine.planner import Plan, plan_query
from repro.joins.hashjoin import binding_order, hash_order
from repro.obs import tracing as _tracing
from repro.obs.metrics import REGISTRY as _METRICS
from repro.relational.io import (
    block_rows_for,
    concat_blocks,
    gc_paused,
    row_blocks,
)
from repro.relational.query import Database, JoinQuery

Row = Tuple[int, ...]


@dataclass(frozen=True)
class BackendSpec:
    """One execution backend: a name and the function that runs it.

    ``run(query, db, index_kind, gao, limit)`` returns ``(blocks,
    stats, sorted_runs)``: ``blocks`` iterates the join output as lists
    of rows in the backend's own enumeration order and does no work
    before the first pull; ``sorted_runs`` declares the stream already
    in output order; ``limit`` is a materialization hint (it sizes the
    blocks, Tetris caps its enumeration with it) — the caller enforces
    the exact cut-off and sorts what needs it.  A serial hash plan's
    ``atom_order`` rides along as a sixth argument, to the hash backend
    only.  ``requires_acyclic`` marks a backend that runs only on
    α-acyclic queries: the planner refuses to plan it on any other.
    """

    name: str
    run: Callable[
        [JoinQuery, Database, str, Optional[Tuple[str, ...]], Optional[int]],
        Tuple[Iterator[List[Row]], ResolutionStats, bool],
    ]
    description: str
    requires_acyclic: bool = False


class ResultCursor:
    """A lazily-evaluated join result: rows stream, nothing pre-sorts.

    The source is ``batches`` — an iterator of row lists: a serial
    backend's blocks, or a shard-parallel run's per-shard lists in
    completion order (a bare ``rows`` iterator is cut into blocks
    first).  Iterating hands out each list's rows as it arrives,
    :meth:`blocks` the lists themselves, ``fetchmany`` / ``fetchall``
    batch the pulls.  An optional ``limit`` caps the row count (early
    termination: the underlying pipeline is abandoned once the cap is
    hit) and an optional ``decode`` dictionary maps each row's codes
    back to original values on the way out.  ``sorted_runs`` declares
    every list sorted and the lists tiling the output (leapfrog and
    hash binding ``variables`` in order; Tetris's one list; shard
    lists):
    :meth:`fetchall` then concatenates, and :attr:`ordered` says whether
    the boundaries rose.

    ``stats`` (and Tetris resolution counters in particular) are filled
    in *during* iteration — read them after consuming the cursor.
    """

    def __init__(
        self,
        rows: Optional[Iterator[Row]],
        variables: Tuple[str, ...],
        backend: str,
        plan: Plan,
        stats: ResolutionStats,
        gao: Tuple[str, ...],
        limit: Optional[int] = None,
        decode=None,
        batches: Optional[Iterator[List[Row]]] = None,
        sorted_runs: bool = False,
    ):
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        self.variables = variables
        self.backend = backend
        self.plan = plan
        self.stats = stats
        self.gao = gao
        self.limit = limit
        #: Filled by the shard-parallel path: the run's ParallelReport.
        self.parallel = None
        #: The cursor's own Tracer when it opened one (cursor path with
        #: tracing enabled and no ambient tracer); read after close().
        self.trace = None
        #: Invoked once on close — how a cursor-owned trace's root span
        #: gets its end time at exhaustion or abandonment.
        self.on_close: Optional[Callable[[], None]] = None
        self.rows_produced = 0
        #: Whether the last :meth:`fetchall` returned its rows in sorted
        #: order (sorted runs whose boundaries all ascended).
        self.ordered = False
        # The backend pipeline itself, for close().
        self._source = rows if batches is None else batches
        if batches is None:
            batches = row_blocks(rows, block_rows_for(limit))
        if limit is not None:
            # Cut in C: the first ``limit`` rows, re-blocked.
            flat = itertools.chain.from_iterable(batches)
            batches = row_blocks(itertools.islice(flat, limit))
        if decode is not None:
            # A block at a time; decoded values sort differently.
            batches = (list(decode.decode_rows(b)) for b in batches)
            sorted_runs = False
        self._sorted_runs = sorted_runs
        self._blocks = batches
        #: The unread rows of the block row iteration is inside.
        self._head: Iterator[Row] = iter(())
        self._closed = False

    def __iter__(self) -> "ResultCursor":
        return self

    def _next_block(self) -> Optional[List[Row]]:
        """The source's next block; ``None`` (and closed) at its end."""
        block = next(self._blocks, None)
        if block is None:
            # The stream ended — by exhaustion or by the limit cutting
            # it off.  Close the underlying pipeline either way: a limit
            # cut-off leaves it suspended (holding hash tables, and for
            # parallel runs the worker pool's active slot) with nothing
            # left to pull it.
            self.close()
        return block

    def __next__(self):
        if self._closed:
            raise StopIteration
        row = next(self._head, None)  # rows are tuples, never None
        while row is None:
            block = self._next_block()
            if block is None:
                raise StopIteration
            self._head = iter(block)
            row = next(self._head, None)
        self.rows_produced += 1
        return row

    def blocks(self) -> Iterator[List[Row]]:
        """The remaining rows as lists — the rest of the block row
        iteration is inside, then the source's — honouring ``limit``,
        ``decode`` and :meth:`close`; no row is touched on the way."""
        while not self._closed:
            block = list(self._head) or self._next_block()
            if block is None:
                return
            self.rows_produced += len(block)
            yield block

    def fetchmany(self, k: int) -> List[Row]:
        """Up to ``k`` more rows (fewer at exhaustion)."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return list(itertools.islice(self, k))

    def fetchall(self) -> List[Row]:
        """Every remaining row, materialized; closes the cursor.

        An untouched cursor over sorted runs concatenates them and
        :attr:`ordered` says whether the result *is* the sorted output;
        anything else claims nothing.  Serial blocks are appended as
        they arrive; shard lists arrive in completion order and are put
        in order of their first row first.

        The whole drain runs with the cyclic collector paused
        (:class:`~repro.relational.io.gc_paused`): no caller code runs
        until it returns, and the rows it builds are alive, so a
        generation scan would find nothing.  Streaming — iteration,
        :meth:`fetchmany`, :meth:`blocks` — does not pause: the caller
        runs between pulls.
        """
        with gc_paused():
            blocks = self.blocks()
            sorted_runs = self._sorted_runs and self.rows_produced == 0
            if sorted_runs and self.parallel is not None:
                blocks = sorted(
                    filter(None, blocks), key=operator.itemgetter(0)
                )
            rows, self.ordered = concat_blocks(blocks, sorted_runs)
            self.close()
        return rows

    def close(self) -> None:
        """Abandon the underlying pipeline; further iteration stops.

        Closes the backend generator itself, not the limit/decode
        wrappers around it, so suspended pipeline frames (and their
        hash tables) are released immediately.  Idempotent: the source
        is closed once however many paths (exhaustion, ``fetchall``, a
        ``with`` block) end here.
        """
        if self._closed:
            return
        self._closed = True
        close = getattr(self._source, "close", None)
        if close is not None:
            close()
        callback, self.on_close = self.on_close, None
        if callback is not None:
            callback()

    def __enter__(self) -> "ResultCursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class ExecutionResult:
    """Join output plus the plan that produced it — JoinResult-shaped.

    With ``limit`` set, ``tuples`` holds the first ≤ limit rows the
    backend produced (sorted among themselves; *which* rows depends on
    the backend's enumeration order).  With ``decode`` threaded through
    :func:`execute`, the attached dictionary decodes rows lazily via
    :meth:`decoded_rows` — no second full copy of the result is held.
    """

    tuples: List[Row]
    variables: Tuple[str, ...]
    stats: ResolutionStats
    gao: Tuple[str, ...]
    backend: str
    plan: Plan
    elapsed: float
    limit: Optional[int] = None
    decode: Optional[object] = field(default=None, repr=False)
    #: The shard-parallel run's ParallelReport; None for serial plans.
    parallel: Optional[object] = field(default=None, repr=False)
    #: The query's Tracer when it ran traced; None otherwise.
    trace: Optional[object] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def decoded_rows(self) -> Iterator[Tuple]:
        """Lazily decode ``tuples`` through the attached dictionary."""
        if self.decode is None:
            raise ValueError(
                "no dictionary attached; pass decode= to execute()"
            )
        return self.decode.decode_rows(self.tuples)


# -- the backends --------------------------------------------------------------


def _tetris(variant: str):
    def run(query, db, index_kind, gao, limit):
        from repro.joins.tetris_join import join_tetris

        stats = ResolutionStats()

        def blocks() -> Iterator[List[Row]]:
            # The engine enumerates uncovered points as one resolution
            # fixpoint, so rows cannot stream mid-resolution: the one
            # block is the list it builds, the ``limit`` cap bounds its
            # materialization instead, and being a generator defers all
            # of it to the first pull.  ``join_tetris`` sorts that list
            # in ``query.variables`` order, so it is one sorted run.
            yield join_tetris(
                query, db, variant=variant, index_kind=index_kind,
                gao=gao, stats=stats, max_outputs=limit,
            ).tuples

        return blocks(), stats, True

    return run


def _leapfrog(query, db, index_kind, gao, limit):
    from repro.joins.leapfrog import leapfrog_blocks

    blocks = leapfrog_blocks(query, db, gao, block_rows_for(limit))
    # GAO-lexicographic *is* sorted when the GAO is the output order.
    return blocks, ResolutionStats(), gao == query.variables


def _yannakakis(query, db, index_kind, gao, limit):
    from repro.joins.yannakakis import yannakakis_blocks

    blocks = yannakakis_blocks(query, db, block_rows_for(limit))
    return blocks, ResolutionStats(), False


def _hash(query, db, index_kind, gao, limit, atom_order=None):
    """A serial plan's cascade joins the atoms in the order its estimate
    was priced on (``atom_order``: ``(name, attrs)`` pairs, binding the
    plan's GAO); a shard, or a plan whose GAO the caller set, has the
    GAO pick it (``hash_order``).  A cascade that binds variables in
    output order emits its rows sorted."""
    if atom_order is None:
        names = hash_order(query, db, gao)
        atom = query.atom
        atom_order = tuple([(name, atom(name).attrs) for name in names])
        gao = binding_order(query, names)
    blocks = _cascade(db, atom_order, query.variables, block_rows_for(limit))
    return blocks, ResolutionStats(), gao == query.variables


def _cascade(db, atom_order, variables, block_rows):
    """The compiled hash cascade over ``atom_order``, lazily."""
    yield from hash_kernel(atom_order, variables)(
        [db[name].rows() for name, _ in atom_order], block_rows
    )


def _nested_loop(query, db, index_kind, gao, limit):
    from repro.joins.nested_loop import iter_nested_loop

    blocks = row_blocks(iter_nested_loop(query, db), block_rows_for(limit))
    return blocks, ResolutionStats(), False


#: Every backend, declared once; the algorithm aliases and the CLI's
#: ``--algorithm`` choices derive from its keys.  ``auto`` prices two of
#: them (:data:`repro.engine.cost.CANDIDATES`, in this table's order:
#: hash and leapfrog); the rest run only when forced.
BACKEND_TABLE: Dict[str, BackendSpec] = {
    spec.name: spec
    for spec in (
        BackendSpec(
            "yannakakis", _yannakakis,
            "Yannakakis semijoin reduction (α-acyclic only, Õ(N + Z))",
            requires_acyclic=True,
        ),
        BackendSpec(
            "hash", _hash,
            "left-deep hash-join plan (the query's atom order, or "
            "connectivity-aware size-ascending); a check atom is "
            "intersected into the lookup binding its last attribute",
        ),
        BackendSpec(
            "leapfrog", _leapfrog,
            "generic worst-case-optimal join (Leapfrog/NPRR, AGM bound)",
        ),
        BackendSpec(
            "tetris-reloaded", _tetris("reloaded"),
            "Tetris, gap boxes on demand (certificate-based, Thm 4.7/4.9)",
        ),
        BackendSpec(
            "tetris-preloaded", _tetris("preloaded"),
            "Tetris, gap boxes preloaded (worst-case-optimal, Thm D.8/D.9)",
        ),
        BackendSpec(
            "nested-loop", _nested_loop,
            "block nested loops (baseline floor)",
        ),
    )
}

BACKENDS: Tuple[str, ...] = tuple(BACKEND_TABLE)

#: Every spelling accepted wherever an algorithm name is expected: the
#: backends themselves, ``auto`` (the cost model chooses) and ``tetris``
#: (the worst-case-optimal variant).
ALGORITHM_ALIASES: Dict[str, str] = {
    "auto": "auto",
    "tetris": "tetris-preloaded",
    **{name: name for name in BACKEND_TABLE},
}


def normalize_algorithm(name: str) -> str:
    """Resolve an algorithm alias to a backend name (or ``"auto"``)."""
    try:
        return ALGORITHM_ALIASES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; expected one of "
            f"{sorted(ALGORITHM_ALIASES)}"
        ) from None


def run_backend(
    backend: str,
    query: JoinQuery,
    db: Database,
    index_kind: str,
    gao: Optional[Tuple[str, ...]],
    limit: Optional[int],
    atom_order: Optional[Tuple[Tuple[str, Tuple[str, ...]], ...]] = None,
) -> Tuple[Iterator[List[Row]], ResolutionStats, bool]:
    """Enter a backend — the only place one is.

    Returns the backend's lazy block stream (its own enumeration order,
    uncut), the :class:`ResolutionStats` the stream fills as it is
    consumed, and whether it is in output order already.  Callers cut
    at ``limit`` and sort what is not.  ``atom_order`` is a serial hash
    plan's (:attr:`~repro.engine.planner.Plan.atom_order`).
    """
    spec = BACKEND_TABLE.get(backend)
    if spec is None:
        raise ValueError(f"no backend named {backend!r}")
    if atom_order is None:
        return spec.run(query, db, index_kind, gao, limit)
    return spec.run(query, db, index_kind, gao, limit, atom_order)


def _open_cursor(
    query: JoinQuery,
    db: Database,
    plan: Plan,
    limit: Optional[int],
    decode,
    timeout_ms: Optional[int],
) -> ResultCursor:
    """The cursor of a plan: shard-parallel, or one backend's stream."""
    if plan.num_shards > 1:
        return _parallel_cursor(query, db, plan, limit, decode, timeout_ms)
    blocks, stats, sorted_runs = run_backend(
        plan.backend, query, db, plan.index_kind, plan.gao, limit,
        plan.atom_order,
    )
    return ResultCursor(
        None, variables=query.variables, backend=plan.backend, plan=plan,
        stats=stats, gao=plan.gao, limit=limit, decode=decode,
        batches=blocks, sorted_runs=sorted_runs,
    )


def _parallel_cursor(
    query: JoinQuery,
    db: Database,
    plan: Plan,
    limit: Optional[int],
    decode,
    timeout_ms: Optional[int],
) -> ResultCursor:
    """The merged streaming cursor over a shard-parallel run.

    Shards are dealt to the persistent worker pool lazily as the cursor
    is consumed; per-shard ``ResolutionStats`` are absorbed into the
    cursor's aggregate as each shard completes (shards are disjoint in
    output space, so their row lists concatenate without
    deduplication).  Closing the cursor early — the ``limit`` path —
    stops dealing and drains in-flight shards.
    """
    from repro.parallel.merge import run_shards

    # Capture the tracer by reference: the merge generator below may be
    # pulled after the ambient context has been uninstalled.
    tracer = _tracing.current_tracer()
    outcomes, report = run_shards(query, db, plan, limit, timeout_ms)
    stats = ResolutionStats()

    def batches() -> Iterator[List[Row]]:
        merge_span = (
            tracer.start("merge", shards=report.num_shards)
            if tracer is not None
            else None
        )
        produced = 0
        try:
            for outcome in outcomes:
                stats.absorb(outcome.stats)
                produced += len(outcome.rows)
                yield outcome.rows
        finally:
            close = getattr(outcomes, "close", None)
            if close is not None:
                close()
            if tracer is not None:
                tracer.finish(merge_span, rows=produced)

    cursor = ResultCursor(
        None, variables=query.variables, backend=plan.backend, plan=plan,
        stats=stats, gao=plan.gao, limit=limit, decode=decode,
        batches=batches(), sorted_runs=limit is None,  # else unsorted
    )
    cursor.parallel = report
    return cursor


def _drain(
    query: JoinQuery,
    db: Database,
    plan: Plan,
    limit: Optional[int],
    timeout_ms: Optional[int],
) -> Tuple[List[Row], ResolutionStats, Optional[object]]:
    """:func:`execute`'s run: every row, sorted unless they arrived in
    order, with the run's stats and parallel report.

    A serial plan without a limit has nothing to cut, decode or
    release, so its backend's blocks are concatenated as they come.
    Anything else drains the plan's cursor, closed once materialized
    (with a limit the backend's pipeline is abandoned mid-stream, and a
    parallel cursor must release its worker pool, draining in-flight
    shards, for the next run).
    """
    if plan.num_shards == 1 and limit is None:
        blocks, stats, sorted_runs = run_backend(
            plan.backend, query, db, plan.index_kind, plan.gao, None,
            plan.atom_order,
        )
        tuples, ordered = concat_blocks(blocks, sorted_runs)
        parallel = None
    else:
        with _open_cursor(query, db, plan, limit, None, timeout_ms) as cursor:
            tuples = cursor.fetchall()
        stats, parallel, ordered = cursor.stats, cursor.parallel, cursor.ordered
    if not ordered:
        # Its own span: ANALYZE fits the backend constant on execute −
        # sort, as the cost model prices sort separately.
        with _tracing.span("sort"):
            tuples.sort()
    return tuples, stats, parallel


def execute_cursor(
    query: JoinQuery,
    db: Database,
    algorithm: str = "auto",
    index_kind: Optional[str] = None,
    gao: Optional[Sequence[str]] = None,
    plan: Optional[Plan] = None,
    workers: Optional[int] = None,
    limit: Optional[int] = None,
    decode=None,
    timeout_ms: Optional[int] = None,
) -> ResultCursor:
    """Plan a join and return a lazy :class:`ResultCursor` over its rows.

    Rows stream in the backend's natural enumeration order (unsorted);
    consuming a prefix does only the work that prefix needs.  ``limit``
    caps the row count, ``decode`` yields dictionary-decoded rows.
    Aggregates should consume cursors — no intermediate result set is
    materialized on the way.  With ``workers=N`` (and a plan that went
    parallel) rows stream shard by shard off the worker pool instead.
    Anything else a plan is made from — a cost model, bypassing the
    plan cache, assumed row counts — goes through
    :func:`~repro.engine.planner.plan_query` and arrives as ``plan=``.

    ``timeout_ms`` deadlines a *parallel* run: past it, consumption
    raises :class:`~repro.parallel.QueryTimeout` (hung workers are
    killed and respawned; the exception carries the partial parallel
    report).  Serial plans ignore it — single-process backends have no
    supervisor to interrupt them.
    """
    # A directly-opened cursor under ``tracing.set_enabled(True)`` gets
    # its own tracer (ambient only while planning — the caller drives
    # consumption); under an ambient tracer its spans nest where the
    # caller stands.
    tracer = _tracing.current_tracer()
    owns_tracer = tracer is None and _tracing.enabled()
    if owns_tracer:
        tracer = _tracing.Tracer()
    with _tracing.use(tracer):
        qspan = (
            tracer.start(
                "query", kind="cursor",
                algorithm=algorithm if plan is None else plan.algorithm,
            )
            if owns_tracer
            else None
        )
        if plan is None:
            plan = plan_query(
                query, db, algorithm=algorithm, index_kind=index_kind,
                gao=gao, workers=workers,
            )
        cursor = _open_cursor(query, db, plan, limit, decode, timeout_ms)
    if owns_tracer:
        cursor.trace = tracer
        cursor.on_close = lambda: tracer.finish(qspan)
    return cursor


def execute(
    query: JoinQuery,
    db: Database,
    algorithm: str = "auto",
    index_kind: Optional[str] = None,
    gao: Optional[Sequence[str]] = None,
    plan: Optional[Plan] = None,
    workers: Optional[int] = None,
    limit: Optional[int] = None,
    decode=None,
    timeout_ms: Optional[int] = None,
) -> ExecutionResult:
    """Plan (unless a plan is supplied) and run a join query.

    The single entry point the CLI and benchmarks dispatch through:
    plan, drain the plan's rows (a serial plan's backend blocks as they
    come, anything else through its cursor's ``fetchall()``), and sort
    unless they arrived in order.  ``algorithm="auto"`` selects the
    cost-optimal backend, any backend name forces it; whatever else a
    plan is made from goes through
    :func:`~repro.engine.planner.plan_query` and arrives as ``plan=``.
    ``limit=k`` terminates early, materializing at most O(k) output
    rows; ``decode=dictionary`` attaches a
    :class:`~repro.relational.io.ValueDictionary` so callers can read
    ``result.decoded_rows()`` lazily.

    ``workers=N`` offers the planner a shard-parallel plan on N worker
    processes: under ``algorithm="auto"`` the cost model decides
    serial-vs-parallel; a forced backend plus ``workers`` always runs
    parallel.  Parallel output is bit-for-bit the serial output (shards
    partition the output space; their sorted row lists are put in order,
    and re-sorted only where shard boundaries interleave) — a shard whose
    worker crashes, hangs or errs runs in the parent instead (the worker
    is respawned), so it stays bit-for-bit under faults too.
    ``timeout_ms`` deadlines a parallel run with
    :class:`~repro.parallel.QueryTimeout`; serial plans ignore it.

    Observability happens here, once per query, and is O(1) in the
    registry: with tracing on the whole run executes under a ``query``
    span; with the metrics registry enabled the query's wall time lands
    in ``query.latency`` and one ``inc_many`` adds ``engine.queries``,
    ``engine.rows.returned`` and, for a Tetris backend (the only ones
    that count resolutions), the run's ``ResolutionStats``.  Both
    checks are per-query flag reads; a caller that wants this query's
    registry delta brackets the call with ``REGISTRY.snapshot()`` /
    ``MetricsSnapshot.since``.

    The whole call — planning, the drain, the sort — runs with
    the cyclic collector paused (:class:`~repro.relational.io.gc_paused`):
    each output row is a new tracked tuple, and the generation scans
    their allocation would trigger collect nothing.  The collector is
    left as the call found it, raised or returned.
    """
    with gc_paused():
        tracer = _tracing.current_tracer()
        if tracer is None and _tracing.enabled():
            tracer = _tracing.Tracer()
        wall0 = time.perf_counter()
        if tracer is None:
            # Untraced: no span to open, nothing to install.
            if plan is None:
                plan = plan_query(
                    query, db, algorithm=algorithm, index_kind=index_kind,
                    gao=gao, workers=workers,
                )
            t0 = time.perf_counter()
            tuples, stats, parallel = _drain(
                query, db, plan, limit, timeout_ms
            )
            elapsed = time.perf_counter() - t0
        else:
            with _tracing.use(tracer), tracer.span(
                "query",
                algorithm=algorithm if plan is None else plan.algorithm,
            ) as qspan:
                if plan is None:
                    plan = plan_query(
                        query, db, algorithm=algorithm,
                        index_kind=index_kind, gao=gao, workers=workers,
                    )
                t0 = time.perf_counter()
                with tracer.span(
                    "execute", backend=plan.backend, workers=plan.workers
                ) as espan:
                    tuples, stats, parallel = _drain(
                        query, db, plan, limit, timeout_ms
                    )
                    espan.attrs["rows"] = len(tuples)
                elapsed = time.perf_counter() - t0
                qspan.attrs["backend"] = plan.backend
        if _METRICS.enabled:
            _METRICS.observe("query.latency", time.perf_counter() - wall0)
            counts = {"engine.queries": 1, "engine.rows.returned": len(tuples)}
            if plan.backend.startswith("tetris-"):
                counts.update(stats.as_metrics())
            _METRICS.inc_many(counts)
        return ExecutionResult(
            tuples=tuples,
            variables=query.variables,
            stats=stats,
            gao=plan.gao,
            backend=plan.backend,
            plan=plan,
            elapsed=elapsed,
            limit=limit,
            decode=decode,
            parallel=parallel,
            trace=tracer,
        )
