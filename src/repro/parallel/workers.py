"""Shard worker processes: the remote end of the scheduler's pipes.

Each worker is a long-lived process running :func:`worker_main` on its
end of a duplex pipe.  The protocol is strictly one-in/one-out: every
:class:`ShardTask` received produces exactly one :class:`ShardResult`
(errors included, as a formatted traceback) — the scheduler relies on
this to keep its per-worker bookkeeping exact, even while draining an
abandoned run.

Relation payloads arrive in one of three forms, and only the *first*
time a given content key reaches a given worker:

* :class:`~repro.parallel.shm.ShmRef` — attach the named shared-memory
  segment and build a zero-copy relation over it
  (``Relation.from_shm``);
* :class:`~repro.parallel.shm.ShmSlice` — the same, restricted to a
  canonical row range (the zero-copy form of a shard clip);
* :class:`RelBlob` — the pickle fallback: the relation as one blob,
  sized at ship time for the actual-wire accounting.

The worker keeps an LRU **relation cache keyed by content**
(:class:`WorkerCache`), so repeated queries over the same data ship
references, no rows.  Cached shm relations ref-count their attached
segment; the segment detaches when its last relation is evicted
(tolerating Python's ``BufferError`` on still-exported views by
leaving the unmap to the garbage collector).  Evictions are reported
back with each result so the scheduler's cache mirror and the arena's
segment ref-counts never drift.

Workers enter a backend the way a serial cursor does, through
:func:`repro.engine.executor.run_backend` (the parent already planned:
backend, index kind and GAO arrive in the task), skipping the per-shard
planning pass — no treewidth search, no AGM LP in the hot loop.
"""

from __future__ import annotations

import gc
import itertools
import pickle
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.obs.metrics import REGISTRY as _METRICS, wire_delta
from repro.parallel import faults as _faults

Row = Tuple[int, ...]

#: Worker-side relation cache capacity (entries).  Evicted keys ride
#: back on the next result so the scheduler stops sending references to
#: them.
CACHE_ENTRIES = 256


@dataclass(frozen=True)
class RelBlob:
    """A relation pre-pickled at dispatch time (the shm fallback wire).

    Pickling in the scheduler — instead of letting ``Connection.send``
    embed the live object — costs nothing extra (one dumps either way)
    and gives the report the *actual* wire size, not the nominal
    ``8 × rows × attrs`` estimate.
    """

    blob: bytes

    def load(self):
        return pickle.loads(self.blob)


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order, self-contained on the wire.

    ``payloads`` holds, per query atom, ``(name, cache key, payload)``
    where the payload is ``None`` ("you have this one cached"), a
    :class:`RelBlob`, or an ``ShmRef``/``ShmSlice`` segment reference.
    ``trace`` is the propagated span context of a traced query:
    ``(trace id, parent span id)``; the worker's spans open under that
    parent so the merged trace renders one tree across processes.
    ``None`` (the default) keeps the worker's hot path untouched.
    A shard is dispatched at most once per run: if its worker fails it,
    the scheduler runs it in the parent instead.
    ``metrics`` asks the worker to snapshot its metrics registry around
    the shard and ship the movement home on the result (the same
    piggyback pattern as ``trace``/``spans``); ``False`` — the default,
    and always the value for shards run in the parent, whose counters
    already land in the parent registry — keeps the hot path untouched.
    """

    shard_id: int
    atoms: Tuple  # RelationSchema, in query-atom order
    payloads: Tuple[Tuple[str, Tuple, Optional[object]], ...]
    backend: str
    index_kind: str
    gao: Optional[Tuple[str, ...]]
    limit: Optional[int]
    trace: Optional[Tuple[str, Optional[str]]] = None
    metrics: bool = False


@dataclass
class ShardResult:
    """One shard's answer: rows, engine stats, and cache bookkeeping."""

    shard_id: int
    rows: List[Row]
    stats: object  # ResolutionStats (kept untyped: workers import lazily)
    compute_seconds: float
    ref_hits: int
    evicted: Tuple[Tuple, ...] = field(default_factory=tuple)
    error: Optional[str] = None
    #: Serialized worker-side spans (dicts), present only when the task
    #: carried a trace context; the scheduler's parent tracer adopts
    #: them verbatim.
    spans: Tuple = field(default_factory=tuple)
    #: Shared-memory accounting: segments newly attached by this task,
    #: the bytes they map, and the wall time spent attaching + building
    #: the zero-copy relations.
    shm_attaches: int = 0
    shm_attached_bytes: int = 0
    attach_seconds: float = 0.0
    #: The worker registry's movement during this task, as a
    #: :func:`repro.obs.metrics.wire_delta` tuple (``None`` when the
    #: task didn't ask or nothing moved).  The scheduler folds it into
    #: the parent registry on receipt — error results included, so a
    #: failing shard's cache traffic isn't lost telemetry.
    metrics: Optional[tuple] = None


class WorkerCache:
    """The worker's relation LRU plus its attached-segment table.

    Relations are keyed by the parent-assigned content key; each
    shm-backed relation holds a reference into ``_segments``, a
    ``(name, generation) → [mapping, refcount, header]`` table, so one
    segment shared by many slices attaches exactly once — and its
    layout header (schema, domain, row count) is unpickled exactly
    once, no matter how many slices of it the run ships.  Evicting the
    last relation of a segment detaches it.
    """

    def __init__(self, entries: int = CACHE_ENTRIES):
        self.entries = entries
        #: key → (relation, segment id or None)
        self._rels: "OrderedDict[Tuple, Tuple[object, Optional[Tuple]]]" = (
            OrderedDict()
        )
        self._segments: dict = {}

    def __len__(self) -> int:
        return len(self._rels)

    def get(self, key: Tuple):
        """The cached relation for a key, or ``None`` (LRU-touched)."""
        hit = self._rels.get(key)
        if hit is None:
            return None
        self._rels.move_to_end(key)
        return hit[0]

    def _attach(self, ref) -> Tuple[list, int]:
        """The segment's table entry, attaching on first use.

        Returns ``([mapping, refcount, header], newly attached bytes)``
        — the bytes are zero on a table hit, which is what makes warm
        repeats report ``shm_attached_bytes == 0``.  The header slot
        starts ``None`` and is filled by the first relation built over
        the segment, so later slices skip the unpickle.
        """
        from repro.parallel.shm import attach_segment

        seg_id = (ref.segment, ref.generation)
        entry = self._segments.get(seg_id)
        if entry is not None:
            return entry, 0
        entry = [attach_segment(ref.segment), 0, None]
        self._segments[seg_id] = entry
        return entry, ref.nbytes

    @staticmethod
    def _from_entry(entry: list, lo=None, hi=None):
        """A zero-copy relation over an attached entry, header-cached."""
        from repro.relational.relation import Relation

        shm = entry[0]
        if entry[2] is None:
            entry[2] = Relation.parse_shm_header(shm.buf)
        return Relation.from_shm(shm.buf, lo, hi, keep=shm, header=entry[2])

    def store(self, key: Tuple, payload, evicted: List[Tuple]):
        """Materialize a payload, cache it, evict LRU overflow.

        Returns ``(relation, newly attached bytes)``.  Evicted keys are
        appended to ``evicted`` for the result's bookkeeping ride home.
        """
        from repro.parallel.shm import ShmRef, ShmSlice, filter_rows
        from repro.relational.relation import Relation

        seg_id = None
        attached = 0
        if isinstance(payload, RelBlob):
            rel = payload.load()
        elif isinstance(payload, ShmSlice):
            entry, attached = self._attach(payload.base)
            rel = self._from_entry(entry, payload.lo, payload.hi)
            if payload.rest:
                # A residual box beyond the leading-attribute bisect:
                # filter the slice here, where it runs in parallel —
                # the parent shipped a range, never the rows.
                rel = Relation.from_sorted_rows(
                    rel.schema,
                    filter_rows(rel.rows(), payload.rest),
                    rel.domain,
                )
            seg_id = (payload.base.segment, payload.base.generation)
        elif isinstance(payload, ShmRef):
            entry, attached = self._attach(payload)
            rel = self._from_entry(entry)
            seg_id = (payload.segment, payload.generation)
        else:  # a bare Relation (direct calls in tests)
            rel = payload
        self._rels[key] = (rel, seg_id)
        self._rels.move_to_end(key)
        if seg_id is not None:
            self._segments[seg_id][1] += 1
        while len(self._rels) > self.entries:
            old_key, (_, old_seg) = self._rels.popitem(last=False)
            evicted.append(old_key)
            if old_seg is not None:
                self._release_segment(old_seg)
        return rel, attached

    def _release_segment(self, seg_id: Tuple) -> None:
        entry = self._segments.get(seg_id)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] > 0:
            return
        del self._segments[seg_id]
        try:
            entry[0].close()
        except BufferError:
            # A live relation (this task's own database, typically)
            # still exports views over the mapping; dropping our
            # reference leaves the unmap to the garbage collector.
            pass


#: The worker's last-shipped registry snapshot (rolling baseline for
#: per-shard wire deltas).  ``None`` whenever shipping is off, so a
#: re-enable never charges a disabled period's collector traffic.
_SHIP_BASELINE = None


def _ship_delta() -> Optional[tuple]:
    """This shard's registry movement, advancing the rolling baseline."""
    global _SHIP_BASELINE
    now = _METRICS.snapshot()
    wire = wire_delta(_SHIP_BASELINE, now)
    _SHIP_BASELINE = now
    return wire


def execute_shard(task: ShardTask, cache: WorkerCache) -> ShardResult:
    """Run one shard through ``run_backend``; never raises.

    The rows come back sorted when the task has no ``limit`` — by
    concatenation alone when the backend's blocks are sorted runs, the
    way ``ResultCursor.fetchall`` then joins the shard lists — and as
    the first ``limit`` the backend produced otherwise.
    """
    from repro.core.resolution import ResolutionStats
    from repro.engine.executor import run_backend
    from repro.parallel.shm import ShmRef, ShmSlice
    from repro.relational.io import sorted_rows
    from repro.relational.query import Database, JoinQuery

    tracer = None
    span = None
    if task.trace is not None:
        from repro.obs.tracing import Tracer

        tracer = Tracer(trace_id=task.trace[0], parent_id=task.trace[1])
        span = tracer.start(
            f"shard[{task.shard_id}]",
            shard=task.shard_id,
            backend=task.backend,
        )

    global _SHIP_BASELINE
    ship_metrics = task.metrics and _METRICS.enabled
    if ship_metrics:
        # Rolling baseline: one snapshot per shard, not two.  The delta
        # shipped with this shard is everything since the previous
        # shard's ship (or since shipping was enabled), which is
        # exactly this shard's traffic — workers do nothing between
        # shards.
        if _SHIP_BASELINE is None:
            _SHIP_BASELINE = _METRICS.snapshot()
    else:
        _SHIP_BASELINE = None

    # CPU time, not wall: on a host where workers outnumber free cores
    # the OS time-slices them, and wall clocks would double-count the
    # contention.  process_time is what the shard costs on any host.
    t0 = time.process_time()
    evicted: List[Tuple] = []
    attach_seconds = 0.0
    attached_bytes = 0
    attaches = 0
    try:
        relations = []
        hits = 0
        attach_span = None
        if tracer is not None and any(
            isinstance(p, (ShmRef, ShmSlice)) for _, _, p in task.payloads
        ):
            attach_span = tracer.start("shm.attach")
        for _name, key, payload in task.payloads:
            if payload is None:
                rel = cache.get(key)
                if rel is None:
                    raise KeyError(
                        f"scheduler referenced {key!r} but it is not cached"
                    )
                hits += 1
            else:
                is_shm = isinstance(payload, (ShmRef, ShmSlice))
                ta = time.perf_counter() if is_shm else 0.0
                rel, new_bytes = cache.store(key, payload, evicted)
                if is_shm:
                    attach_seconds += time.perf_counter() - ta
                    if new_bytes:
                        attached_bytes += new_bytes
                        attaches += 1
            relations.append(rel)
        if attach_span is not None:
            tracer.finish(
                attach_span, attaches=attaches, bytes=attached_bytes
            )
        fault_plan = _faults.plan()
        if fault_plan is not None:
            # After materialization, before compute: a crash here leaves
            # the scheduler's cache mirror genuinely diverged from the
            # (dead) worker — the case supervision must clean up.
            _faults.maybe_fire(fault_plan, task.shard_id)
        query = JoinQuery(task.atoms)
        db = Database(relations)
        blocks, stats, sorted_runs = run_backend(
            task.backend, query, db, task.index_kind, task.gao, task.limit
        )
        if task.limit is None:
            rows = sorted_rows(blocks, sorted_runs)
        else:
            rows = list(itertools.islice(
                itertools.chain.from_iterable(blocks), task.limit
            ))
            blocks.close()
        if tracer is not None:
            tracer.finish(span, rows=len(rows), ref_hits=hits)
        return ShardResult(
            shard_id=task.shard_id,
            rows=rows,
            stats=stats,
            compute_seconds=time.process_time() - t0,
            ref_hits=hits,
            evicted=tuple(evicted),
            spans=tuple(tracer.serialized()) if tracer is not None else (),
            shm_attaches=attaches,
            shm_attached_bytes=attached_bytes,
            attach_seconds=attach_seconds,
            metrics=_ship_delta() if ship_metrics else None,
        )
    except Exception:
        if tracer is not None:
            tracer.finish(span, error=True)
        return ShardResult(
            shard_id=task.shard_id,
            rows=[],
            stats=ResolutionStats(),
            compute_seconds=time.process_time() - t0,
            ref_hits=0,
            evicted=tuple(evicted),
            error=traceback.format_exc(),
            spans=tuple(tracer.serialized()) if tracer is not None else (),
            shm_attaches=attaches,
            shm_attached_bytes=attached_bytes,
            attach_seconds=attach_seconds,
            metrics=_ship_delta() if ship_metrics else None,
        )


def _fallback_result(task: ShardTask, result: ShardResult) -> ShardResult:
    """An error-result standing in for one that failed to pickle.

    Carries the original result's eviction acks — the worker's cache
    *did* change, and dropping the acks would desynchronize the
    scheduler's mirror — but none of the unpicklable content.
    """
    from repro.core.resolution import ResolutionStats

    return ShardResult(
        shard_id=task.shard_id,
        rows=[],
        stats=ResolutionStats(),
        compute_seconds=result.compute_seconds,
        ref_hits=result.ref_hits,
        evicted=result.evicted,
        error=(
            "shard result failed to serialize on the pipe:\n"
            + traceback.format_exc()
        ),
        # The wire delta is plain tuples of str/float — always
        # picklable — so the worker's telemetry survives even when the
        # result payload itself could not.
        metrics=result.metrics,
    )


def worker_main(conn) -> None:
    """The worker process loop: recv task / send result until ``None``.

    A worker forked inside ``execute()`` inherits its paused cyclic
    collector; the loop turns it back on for the worker's lifetime.
    """
    _faults.mark_worker()
    gc.enable()
    cache = WorkerCache()
    try:
        while True:
            task = conn.recv()
            if task is None:
                break
            result = execute_shard(task, cache)
            fault_plan = _faults.plan()
            if (
                fault_plan is not None
                and task.shard_id in fault_plan.unpicklable
            ):
                result.stats = _faults.Unpicklable()
            try:
                conn.send(result)
            except Exception:
                # One-in/one-out must hold even when the result itself
                # is unsendable (an unpicklable stats object, say):
                # answer with a fallback error-result instead of dying
                # and desynchronizing the whole pipe.  Connection.send
                # pickles fully before writing, so the failed send left
                # no partial bytes on the wire.
                conn.send(_fallback_result(task, result))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        conn.close()
