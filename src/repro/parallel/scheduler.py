"""The shard scheduler: persistent worker pools, dynamic dealing, and
worker supervision.

A :class:`WorkerPool` owns N worker processes connected by duplex pipes
and deals shards **dynamically**: every worker holds exactly one
outstanding shard, and the next shard is dealt the moment a worker's
result arrives.  With the partitioner's oversharding (more shards than
workers) this is classic LPT-style list scheduling — a skewed shard
delays one worker by one shard, never the whole run.

The parent **is a worker when it would otherwise sleep**.  Moving an
output row to the parent (pickle, pipe, unpickle) costs more CPU than
computing it, and the parent is the process that pays the unpickle — so
when every worker is busy, shards are still pending and a zero-timeout
look at the pipes finds nothing to receive, the parent pops the
*lightest* pending shard and computes it itself through
:func:`run_job_in_parent`: the same ``execute_shard``, no pipe, no
pickle.  Pending shards were never dispatched, and the heaviest —
dealt first, LPT — are never the parent's.  It never takes one past the
deadline (a taken shard can overrun the deadline by one shard).  Such a
shard is yielded with worker id ``-1`` and tallied in
``ParallelReport.shards_in_parent`` — not as a fault, not as a dispatch.
So ``-1`` means "ran in the parent": taken while the workers were busy,
or failed on its worker (``shards_quarantined``).

Dealing is **cache-affine**: the pool mirrors each worker's relation
cache (exactly — inserts are decided here, evictions are acknowledged on
the next result from that worker, and a worker never holds two tasks, so
the mirror cannot race).  A pending shard whose relations a free worker
already holds is preferred, and known relations ship as content-key
references instead of rows — the "repeated queries on the same data ship
no rows" path.

Cold payloads go through :meth:`WorkerPool._encode_payload`: relations
above the shm size threshold export into the process-wide
:data:`~repro.parallel.shm.ARENA` and ship as segment *refs*
(``ShmRef``/``ShmSlice`` — a few hundred wire bytes however large the
relation); everything else ships as a pre-pickled :class:`RelBlob`,
sized at dispatch for the actual-wire accounting.  The pool holds one
arena owner per ``(pool, worker, segment)``; eviction acks and pool
close release them, which is what lets the arena unlink safely.

Dealing is also **supervised**, by one rule.  Shards are disjoint dyadic
output boxes whose results are pure functions of ``(shard, database)``,
so a shard run in the parent gives the rows any worker retry would:

* **A failed shard runs in the parent**, right away, through
  :func:`run_job_in_parent`, and is never dealt again
  (``shards_quarantined``).  The failures are a send that fails, a
  worker death (the wait set includes each busy worker's
  ``Process.sentinel``, so a crash or OOM-kill is noticed the moment it
  happens), an unreadable reply, a ``ShardResult.error``, and a worker
  silent past the stall budget (``REPRO_SHARD_TIMEOUT_MS``, read per
  run).  A dead or hung worker is also **respawned in place** (its
  arena owners released, its cache mirror reset).  ``workers=N`` is a
  performance hint, never a correctness risk.
* A per-query **deadline** (``run_shards(..., deadline=)``) bounds the
  wait; on expiry busy workers are killed-and-respawned and
  :class:`QueryTimeout` carries the partial report out.
* The abandoned-cursor drain in the ``finally`` block is **bounded**
  (:data:`DRAIN_TIMEOUT_MS`): a dead or hung worker can no longer
  wedge the parent; it is respawned and the pool stays serviceable.

Pools persist for the process lifetime (:func:`get_pool` memoizes per
worker count; ``atexit`` shuts them down and closes the arena), so a
served workload pays process spawn once, not per query.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import config
from repro.errors import QueryTimeout, WorkerError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.parallel import faults as _faults
from repro.parallel import shm as _shm
from repro.parallel.partition import Shard
from repro.parallel.workers import (
    RelBlob,
    ShardResult,
    ShardTask,
    WorkerCache,
    execute_shard,
    worker_main,
)

#: Bound on the abandoned-run drain (cursor closed with shards still in
#: flight).  A worker that doesn't answer within the budget is respawned
#: instead of wedging the parent.
DRAIN_TIMEOUT_MS = 5000


class _WorkerDied(Exception):
    """Internal: a pipe endpoint failed — the worker process is gone."""


@dataclass
class PendingShard:
    """A clipped shard ready to deal.

    ``relations`` holds ``(name, cache key, ship)`` per query atom,
    where ``ship`` is a clipped :class:`Relation` or a
    :class:`~repro.parallel.shm.SlicePlan` (a bisect range over the base
    relation, resolved at dispatch).  ``weight`` is the clipped input
    size: the LPT priority.
    """

    shard_id: int
    shard: Shard
    relations: Tuple[Tuple[str, Tuple, object], ...]
    weight: int


@dataclass
class _InFlight:
    """One dispatched shard: what's riding on a busy worker's pipe."""

    job: PendingShard
    started: float  # monotonic dispatch time (stall detection)


def _preferred_start_method() -> str:
    # fork shares the warm parent image (no re-import per worker); fall
    # back to spawn where fork is unavailable (Windows, some macOS).
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _wire_size(payload) -> int:
    """The payload's actual pickled size on the task wire."""
    return len(ForkingPickler.dumps(payload))


def _instant_span(name: str, **attrs) -> None:
    """Record a zero-duration event span if a tracer is ambient."""
    tracer = _tracing.current_tracer()
    if tracer is None:
        return
    tracer.finish(tracer.start(name, **attrs))


def run_job_in_parent(
    job: PendingShard,
    atoms: Tuple,
    backend: str,
    index_kind: str,
    gao: Optional[Tuple[str, ...]],
    limit: Optional[int],
    trace: Optional[Tuple[str, Optional[str]]] = None,
) -> ShardResult:
    """Execute one clipped shard serially in the parent process.

    How the parent computes a shard — one it took because every worker
    was busy, one that failed on its worker, or all of them when no
    pool could be spawned.  The
    clipped relations are already parent-side (that's what
    :class:`PendingShard` carries; a slice plan keeps its materialized
    relation, so a repeated query finds it warm), so the shard runs
    through the exact worker code path —
    :func:`~repro.parallel.workers.execute_shard` over bare relation
    payloads — with no pipes, no pickling, no shared memory.  Raises
    :class:`WorkerError` when the shard fails even here: a shard that
    fails deterministically in serial execution is a genuine query
    error, not a fault to survive.
    """
    payloads = []
    for name, key, ship in job.relations:
        if isinstance(ship, _shm.SlicePlan):
            ship = ship.materialize()
        payloads.append((name, key, ship))
    task = ShardTask(
        shard_id=job.shard_id,
        atoms=atoms,
        payloads=tuple(payloads),
        backend=backend,
        index_kind=index_kind,
        gao=gao,
        limit=limit,
        trace=trace,
    )
    # As in a worker, no tracer is ambient: the shard reports exactly
    # the spans it opens under ``trace``, whichever process ran it.
    with _tracing.use(None):
        result = execute_shard(task, WorkerCache())
    if result.error is not None:
        raise WorkerError(
            f"shard {job.shard_id} failed even in serial in-parent "
            f"re-execution:\n{result.error}"
        )
    return result


class WorkerPool:
    """N persistent shard workers plus the parent-side cache mirror."""

    def __init__(
        self, num_workers: int, start_method: Optional[str] = None
    ):
        if num_workers < 1:
            raise ValueError(f"need at least 1 worker, got {num_workers}")
        # Start the resource tracker *before* forking: children then
        # share the parent's tracker (idempotent re-registers on shm
        # attach), instead of each lazily starting a private tracker
        # that would unlink parent-owned segments when the worker exits.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - exotic platforms
            pass
        self._ctx = mp.get_context(start_method or _preferred_start_method())
        self.num_workers = num_workers
        self._conns: List = []
        self._procs: List = []
        try:
            fault_plan = _faults.plan()
            if fault_plan is not None and fault_plan.take_spawn_failure():
                raise OSError(
                    "injected worker pool spawn failure (REPRO_FAULTS)"
                )
            for i in range(num_workers):
                conn, proc = self._spawn_worker(i)
                self._conns.append(conn)
                self._procs.append(proc)
        except BaseException:
            # Leave no half-pool behind: callers degrade to serial
            # in-process execution on a spawn failure.
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:
                    pass
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
            raise
        #: Precomputed pipe → worker id map (the deal loop's ready-conn
        #: lookup; kept exact across respawns).
        self._conn_wid: Dict[object, int] = {
            conn: wid for wid, conn in enumerate(self._conns)
        }
        #: Mirror of each worker's relation cache, by content key.
        self._known: List[set] = [set() for _ in range(num_workers)]
        #: Per-worker map of cached key → arena segment id, so an
        #: eviction ack releases the matching arena owner.
        self._seg_refs: List[Dict[Tuple, Tuple[str, int]]] = [
            {} for _ in range(num_workers)
        ]
        #: Content keys ever shipped by value through this pool — how
        #: the report tells a first ship from a steal-induced re-ship.
        self._shipped_keys: set = set()
        #: Content keys whose arena export failed in the current
        #: :meth:`run_shards` call (emptied at its start).
        self._failed_exports: set = set()
        #: Pool-lifetime count of workers respawned after death/hang.
        self.respawns = 0
        self.closed = False
        #: True while a run owns the pipes.  The one-in/one-out protocol
        #: cannot multiplex runs: a second concurrent run would receive
        #: the first run's in-flight replies as its own shards.
        self.active = False

    def _spawn_worker(self, wid: int):
        parent_end, child_end = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_end,),
            daemon=True,
            name=f"repro-shard-worker-{wid}",
        )
        proc.start()
        child_end.close()
        return parent_end, proc

    def _respawn(self, wid: int, report=None, reason: str = "") -> None:
        """Replace a dead/hung worker in place.

        The worker's segment attachments died with it, so its arena
        owners are released and its cache mirror reset — the respawned
        worker starts cold and the next dispatch re-ships what it needs.
        """
        old_conn = self._conns[wid]
        self._conn_wid.pop(old_conn, None)
        try:
            old_conn.close()
        except OSError:
            pass
        proc = self._procs[wid]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=2.0)
        self._seg_refs[wid].clear()
        _shm.ARENA.release_owner((id(self), wid))
        self._known[wid] = set()
        conn, proc = self._spawn_worker(wid)
        self._conns[wid] = conn
        self._procs[wid] = proc
        self._conn_wid[conn] = wid
        self.respawns += 1
        if report is not None:
            report.worker_respawns += 1
        _instant_span("worker.respawn", worker=wid, reason=reason)

    # -- dealing ---------------------------------------------------------------

    def _pick_job(
        self, wid: int, pending: List[PendingShard]
    ) -> Tuple[PendingShard, bool]:
        """Pop the best pending shard for a worker: affinity, then LPT.

        ``pending`` is kept heaviest-first.  Score prefers shards this
        worker already caches, then unclaimed shards, then shards cached
        by *another* worker — stealing re-ships rows, so it's the last
        resort (and the right one: when only another worker's shards
        remain, idling would straggle the run).  Ties break toward the
        heavier shard.  Returns ``(job, stolen)`` — stolen meaning the
        pick holds relations resident on another worker but none on this
        one, so any by-value payloads it ships are genuine re-ships.
        """
        known = self._known[wid]
        others = [k for i, k in enumerate(self._known) if i != wid]
        best_i = 0
        best_score = None
        for i, job in enumerate(pending):
            own = sum(1 for _, key, _ in job.relations if key in known)
            stolen = max(
                (
                    sum(1 for _, key, _ in job.relations if key in o)
                    for o in others
                ),
                default=0,
            )
            # Own-cached first, then unclaimed, then steal (stealing
            # re-ships rows — last resort, but better than idling).
            score = (own, -stolen)
            if best_score is None or score > best_score:
                best_i, best_score = i, score
                if own == len(job.relations):
                    break  # fully cached and heaviest such — done
        job = pending.pop(best_i)
        own, stolen = (best_score if best_score is not None
                       else (0, 0))
        return job, own == 0 and -stolen > 0

    def run_shards(
        self,
        jobs: Sequence[PendingShard],
        atoms: Tuple,
        backend: str,
        index_kind: str,
        gao: Optional[Tuple[str, ...]],
        limit: Optional[int],
        report=None,
        trace: Optional[Tuple[str, Optional[str]]] = None,
        deadline: Optional[float] = None,
    ) -> Iterator[Tuple[ShardResult, int, PendingShard]]:
        """Deal shards dynamically; yield results in completion order.

        Yields ``(result, worker_id, job)`` — ``worker_id`` is ``-1``
        for shards executed in the parent (taken while every worker was
        busy, or failed on a worker).  ``deadline`` is a
        ``time.monotonic()`` instant; past it the run aborts with
        :class:`QueryTimeout` (busy workers are killed and respawned so
        the pool stays serviceable).

        A shard whose worker fails it — send failure, death, unreadable
        reply, error result or stall — runs in the parent right away;
        a dead or hung worker is respawned.  :class:`WorkerError` is
        raised only for genuine failures — a shard that fails in the
        parent too, or an unrecoverable protocol desync.  Closing the
        generator early (a merged cursor hitting its limit) stops
        dealing and *drains* the in-flight shards with a bounded
        timeout so the one-in/one-out pipe protocol stays in sync for
        the next run.

        A pool runs one shard set at a time: the generator marks the
        pool ``active`` while it owns the pipes, and every received
        result is checked against the shard it was paired with —
        callers acquire pools through :func:`get_pool`, which never
        hands out an active one, so overlapping cursors each get their
        own pool instead of cross-wiring each other's replies.
        """
        if self.closed:
            raise WorkerError("worker pool is closed")
        if self.active:
            raise WorkerError(
                "worker pool is already running a shard set "
                "(acquire pools via get_pool)"
            )
        # Per-shard stall budget; 0 disables the check (the fault-free
        # wait then blocks with no timeout at all).  A busy worker silent
        # past it is treated as hung.  Read before the pool goes active:
        # a malformed value raises.
        stall_ms = config.SHARD_TIMEOUT_MS.get()
        stall_s = stall_ms / 1000.0 if stall_ms > 0 else None
        self.active = True
        self._failed_exports.clear()
        # Heaviest first; only never-dispatched shards are ever here.
        pending = sorted(jobs, key=lambda j: -j.weight)
        free = list(range(self.num_workers))
        busy: Dict[int, _InFlight] = {}

        def in_parent(job: PendingShard, failed: bool) -> ShardResult:
            t0 = time.perf_counter()
            try:
                return run_job_in_parent(
                    job, atoms, backend, index_kind, gao, limit, trace
                )
            finally:
                if report is not None:
                    report.in_parent_seconds += time.perf_counter() - t0
                    if failed:
                        report.shards_quarantined += 1
                    else:
                        report.shards_in_parent += 1

        def lost(wid: int, reason: str) -> PendingShard:
            """A busy worker died or hung: respawn it, return its shard."""
            job = busy.pop(wid).job
            self._respawn(wid, report=report, reason=reason)
            free.append(wid)
            return job

        try:
            while pending or busy:
                while free and pending:
                    wid = free.pop()
                    job, stolen = self._pick_job(wid, pending)
                    if stolen and report is not None:
                        report.shards_stolen += 1
                    busy[wid] = _InFlight(job, time.monotonic())
                    try:
                        self._dispatch(
                            wid, job, atoms, backend, index_kind, gao,
                            limit, report, trace,
                        )
                    except _WorkerDied as exc:
                        job = lost(wid, f"dispatch failed: {exc}")
                        yield in_parent(job, True), -1, job
                if not busy:
                    continue

                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    self._abort_on_deadline(busy, pending, report)
                timeout = None
                if deadline is not None:
                    timeout = max(0.0, deadline - now)
                if stall_s is not None:
                    next_stall = max(
                        0.0,
                        min(f.started for f in busy.values())
                        + stall_s - now,
                    )
                    timeout = (
                        next_stall if timeout is None
                        else min(timeout, next_stall)
                    )
                # Waiting on pipes *and* process sentinels: a worker
                # death wakes the loop immediately, even when it died
                # without writing a byte.  Fault-free with no deadline
                # armed, timeout stays None — a plain blocking wait.
                conns = {self._conns[w]: w for w in busy}
                sentinels = {self._procs[w].sentinel: w for w in busy}
                waitable = list(conns) + list(sentinels)
                # Shards still pending here means every worker is busy,
                # and blocking would put to sleep a core the run could
                # use.  So the parent only looks (zero timeout), and
                # when nothing is ready it computes the lightest
                # pending shard itself.
                look = bool(pending)
                ready = mp_connection.wait(waitable, 0 if look else timeout)
                if look and not ready:
                    job = pending.pop()
                    yield in_parent(job, False), -1, job
                ready_wids: List[int] = []
                dead_wids: List[int] = []
                seen = set()
                for obj in ready:
                    wid = conns.get(obj)
                    if wid is not None and wid not in seen:
                        seen.add(wid)
                        ready_wids.append(wid)
                for obj in ready:
                    wid = sentinels.get(obj)
                    if wid is None or wid in seen:
                        continue
                    seen.add(wid)
                    # The process is gone, but its final result may
                    # still sit in the pipe buffer — prefer it to a
                    # needless re-run.
                    try:
                        has_result = self._conns[wid].poll(0)
                    except (OSError, EOFError):
                        has_result = False
                    (ready_wids if has_result else dead_wids).append(wid)

                for wid in ready_wids:
                    try:
                        result = self._receive(wid)
                    except _WorkerDied as exc:
                        job = lost(wid, str(exc))
                        yield in_parent(job, True), -1, job
                        continue
                    job = busy.pop(wid).job
                    free.append(wid)
                    if result.shard_id != job.shard_id:
                        # Desynchronized pipe: never serve mismatched
                        # results as if they belonged to this run.
                        self._invalidate()
                        raise WorkerError(
                            f"worker {wid} answered shard "
                            f"{result.shard_id} while "
                            f"{job.shard_id} was in flight "
                            f"(protocol desync)"
                        )
                    if result.error is not None:
                        # The worker is alive and in protocol; only its
                        # shard failed.
                        yield in_parent(job, True), -1, job
                        continue
                    if report is not None:
                        report.dispatch_successes += 1
                        report.shm_attaches += result.shm_attaches
                        report.shm_attached_bytes += (
                            result.shm_attached_bytes
                        )
                        report.shm_attach_seconds += result.attach_seconds
                    yield result, wid, job

                for wid in dead_wids:
                    if wid in busy:
                        job = lost(wid, "worker process died")
                        yield in_parent(job, True), -1, job

                if stall_s is not None:
                    now = time.monotonic()
                    stalled = [
                        w for w, f in busy.items()
                        if now - f.started >= stall_s
                    ]
                    for wid in stalled:
                        job = lost(
                            wid,
                            f"no result in {stall_s:.1f}s (hung worker)",
                        )
                        yield in_parent(job, True), -1, job
        finally:
            if not self.closed:
                self._drain(busy, report)
            self.active = False

    def _abort_on_deadline(self, busy, pending, report) -> None:
        """Deadline expired: kill-and-respawn every busy worker (a hung
        worker must not outlive the query), then raise
        :class:`QueryTimeout` with the partial report."""
        in_flight = len(busy)
        for wid in list(busy):
            busy.pop(wid)
            self._respawn(wid, report=report, reason="query deadline")
        if report is not None:
            report.timed_out = True
        raise QueryTimeout(
            f"parallel query exceeded its deadline with {in_flight} "
            f"shards in flight and {len(pending)} pending",
            report=report,
        )

    def _drain(self, busy: Dict[int, _InFlight], report) -> None:
        """Drain in-flight replies (dispatched but not yet received) so
        the next run starts from a synchronized protocol state.

        Bounded: a worker that doesn't answer within
        :data:`DRAIN_TIMEOUT_MS` — dead, or hung mid-shard — is
        respawned instead of wedging the parent forever (the failure
        mode of the old unbounded drain).
        """
        drain_deadline = time.monotonic() + DRAIN_TIMEOUT_MS / 1000.0
        for wid in list(busy):
            busy.pop(wid)
            drained = False
            try:
                remaining = drain_deadline - time.monotonic()
                if remaining > 0 and self._conns[wid].poll(remaining):
                    self._receive(wid)
                    drained = True
            except (_WorkerDied, OSError, EOFError):
                drained = False
            if not drained:
                self._respawn(wid, report=report, reason="drain timeout")

    def _export(self, wid: int, key: Tuple, rel, report):
        """``rel``'s arena segment ref, or ``None``: ship a blob instead.

        An *exception* from ``export`` (shm exhaustion beyond the
        arena's own fallback net, injected faults) counts as a ``None``
        return: shipping is never the reason a query dies.  A content
        key whose export failed is not tried again in the same run
        (``_failed_exports``), so a full ``/dev/shm`` costs one failed
        create per relation, not one per payload.
        """
        content = rel.cache_key()
        if content in self._failed_exports:
            return None
        try:
            ref = _shm.ARENA.export(rel, owner=(id(self), wid))
        except Exception:
            ref = None
            if report is not None:
                report.shm_export_errors += 1
        if ref is None:
            self._failed_exports.add(content)
            if report is not None:
                report.shm_fallbacks += 1
            return None
        self._seg_refs[wid][key] = (ref.segment, ref.generation)
        if report is not None:
            report.shm_ships += 1
        return ref

    def _encode_payload(self, wid: int, key: Tuple, ship, report):
        """One cold payload's wire form, with ship accounting.

        Slices and large relations go by segment ref through the arena
        (:meth:`_export`); everything else — a slice whose base did not
        export included, as its materialized clip — ships as a
        pre-pickled blob whose length is the *actual* wire size.  The
        nominal ``8 × rows × attrs`` figure is kept separately.
        """
        if isinstance(ship, _shm.SlicePlan):
            ref = self._export(wid, key, ship.base, report)
            if ref is not None:
                payload = _shm.ShmSlice(ref, ship.lo, ship.hi, ship.rest)
                if report is not None:
                    report.bytes_shipped += _wire_size(payload)
                    report.bytes_nominal += ship.nominal_bytes()
                return payload
            ship = ship.materialize()
        elif ship.nominal_bytes() >= _shm.MIN_BYTES:
            ref = self._export(wid, key, ship, report)
            if ref is not None:
                if report is not None:
                    report.bytes_shipped += _wire_size(ref)
                    report.bytes_nominal += ship.nominal_bytes()
                return ref
        payload = RelBlob(bytes(ForkingPickler.dumps(ship)))
        if report is not None:
            if key in self._shipped_keys:
                # This content is already resident on another worker:
                # a steal-induced re-ship, tallied apart so the
                # first-ship row count stays meaningful.
                report.rows_reshipped += len(ship)
            else:
                report.rows_shipped += len(ship)
            report.bytes_shipped += len(payload.blob)
            report.bytes_nominal += ship.nominal_bytes()
        self._shipped_keys.add(key)
        return payload

    def _dispatch(
        self, wid, job, atoms, backend, index_kind, gao, limit, report,
        trace=None,
    ) -> None:
        known = self._known[wid]
        payloads = []
        for name, key, ship in job.relations:
            if key in known:
                payloads.append((name, key, None))
                if report is not None:
                    report.ref_hits += 1
            else:
                payloads.append(
                    (name, key, self._encode_payload(wid, key, ship, report))
                )
                known.add(key)
            if report is not None:
                report.refs_total += 1
        task = ShardTask(
            shard_id=job.shard_id,
            atoms=atoms,
            payloads=tuple(payloads),
            backend=backend,
            index_kind=index_kind,
            gao=gao,
            limit=limit,
            trace=trace,
            metrics=_metrics.REGISTRY.enabled,
        )
        if report is not None:
            # Attempts and successes are tallied apart: a shard whose
            # worker fails it counts one attempt here and no success,
            # and its re-run in the parent touches neither — so
            # attempts == successes + shards_quarantined.
            report.dispatch_attempts += 1
        try:
            self._conns[wid].send(task)
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerDied(
                f"worker {wid} is gone at dispatch: {exc}"
            ) from exc

    def _receive(self, wid: int) -> ShardResult:
        try:
            result = self._conns[wid].recv()
        except (EOFError, OSError) as exc:
            raise _WorkerDied(
                f"worker {wid} died mid-shard: {exc}"
            ) from exc
        for key in result.evicted:
            self._known[wid].discard(key)
            seg_id = self._seg_refs[wid].pop(key, None)
            if seg_id is not None and seg_id not in (
                self._seg_refs[wid].values()
            ):
                _shm.ARENA.release(seg_id, (id(self), wid))
        # Fold the worker's registry movement in right here — the one
        # chokepoint every result passes through (normal completions,
        # error results whose shard then runs in the parent, even
        # abandoned-run drains), so supervision never drops worker
        # telemetry.
        if result.metrics is not None:
            _metrics.merge_wire_delta(
                _metrics.REGISTRY,
                result.metrics,
                worker_prefix=f"worker.{wid}",
            )
            result.metrics = None  # consumed; never fold twice
        return result

    # -- lifecycle -------------------------------------------------------------

    def _invalidate(self) -> None:
        """Tear down after a protocol failure; drop from the registry."""
        self.close(graceful=False)
        pools = _POOLS.get(self.num_workers)
        if pools is not None and self in pools:
            pools.remove(self)

    def close(self, graceful: bool = True) -> None:
        if self.closed:
            return
        self.closed = True
        for conn in self._conns:
            if graceful:
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + (2.0 if graceful else 0.2)
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
        for conn in self._conns:
            conn.close()
        # Workers are gone (or going): their segment attachments die
        # with them, so every arena owner this pool held is released.
        for refs in self._seg_refs:
            refs.clear()
        _shm.ARENA.release_owners(id(self))


_POOLS: Dict[int, List[WorkerPool]] = {}


def get_pool(num_workers: int) -> WorkerPool:
    """An *idle* persistent pool for a worker count.

    Pools are memoized and reused across queries (that's what keeps the
    per-worker relation caches warm), but a pool mid-run is never handed
    out again: a second parallel cursor consumed while the first is
    still open gets its own pool, because the pipe protocol cannot carry
    two runs at once.  Idle pools are recycled; extra pools accumulate
    only while that many parallel runs are genuinely open at once.

    May raise ``OSError`` when worker processes cannot be spawned at
    all; :func:`repro.parallel.merge.run_shards` degrades that into
    serial in-process execution.
    """
    pools = _POOLS.setdefault(num_workers, [])
    pools[:] = [p for p in pools if not p.closed]
    for pool in pools:
        if not pool.active:
            return pool
    pool = WorkerPool(num_workers)
    pools.append(pool)
    return pool


def shutdown_pools() -> None:
    """Close every memoized pool and unlink the arena's segments
    (registered atexit; callable in tests)."""
    for pools in _POOLS.values():
        for pool in pools:
            pool.close()
    _POOLS.clear()
    _shm.ARENA.close()


atexit.register(shutdown_pools)
