"""The unified metrics registry: every counter in the engine, one namespace.

Every metric the engine emits is declared once, in :data:`CATALOGUE`,
with its kind, unit and one-line help; the registry, ``repro metrics``
and the OpenMetrics exposition read kind and help from there.  The
names are dotted::

    engine.queries                    engine.plan_cache.hits
    kernels.compile.misses            relation.index.builds
    tetris.resolutions.by_axis.0      parallel.ship.bytes

Two ingestion paths keep the hot loops honest:

* **Direct instruments** — :meth:`MetricsRegistry.inc`,
  :meth:`~MetricsRegistry.gauge`, :meth:`~MetricsRegistry.observe` — for
  per-query / per-shard events.  Each is one guarded dict update; with
  the registry disabled (:func:`set_enabled`), one attribute test.
  Nothing per-tuple ever calls them: kernels keep counting in locals and
  flush once per query.
* **Collectors** — callbacks registered by the subsystems that already
  own counters (kernel caches, plan/stats caches).  They run only at
  :meth:`~MetricsRegistry.snapshot` time, so steady-state execution pays
  nothing for them.  Counter-valued collector names *add* to any direct
  counter of the same name, so deltas shipped home from pool workers
  (which land in the parent's direct counters) aggregate with the
  parent's own cache traffic instead of being overwritten.

Histograms are log-bucketed (:class:`QuantileHistogram`): every sample
lands in a fixed base-:data:`HIST_BASE` bucket, so ``quantile(q)`` has a
bounded relative error (:data:`HIST_RELATIVE_ERROR`, ≈9.5%) and merging
two histograms — across snapshots or across processes — is exact
bucket-wise addition.  A snapshot is a flat mapping: each histogram
expands into ``name.count`` / ``name.sum`` / ``name.min`` /
``name.max`` scalars, and carries its bucket data alongside so
:meth:`MetricsSnapshot.since` diffs distributions and
:func:`render_metrics` prints ``p50``/``p95``/``p99`` lines.

:func:`wire_delta` / :func:`merge_wire_delta` are the cross-process
shipping path: a worker snapshots its registry around a shard, encodes
the movement as plain tuples, and the parent folds it in under both the
aggregate names and a ``worker.<wid>.*`` breakdown.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

_COUNTER = "counter"
_GAUGE = "gauge"
_HIST = "histogram"

#: Every metric the engine emits, declared once: name → (kind, unit,
#: help).  The kind is the OpenMetrics type and the unit, where there is
#: one, an OpenMetrics base unit.  A ``<…>`` last segment declares a
#: family (one metric per axis, per backend); ``worker.<wid>.<counter>``
#: repeats any declared counter per pool worker.
CATALOGUE: Dict[str, Tuple[str, str, str]] = {
    "engine.queries": (_COUNTER, "", "Queries executed."),
    "engine.rows.returned": (_COUNTER, "", "Rows the executed queries returned."),
    "engine.plan_cache.hits": (_COUNTER, "", "Plan lookups the plan cache answered."),
    "engine.plan_cache.misses": (_COUNTER, "", "Plan lookups that planned afresh."),
    "engine.plan_cache.entries": (_GAUGE, "", "Plans the plan cache holds."),
    "engine.stats_cache.hits": (_COUNTER, "", "Statistics lookups the stats cache answered."),
    "engine.stats_cache.misses": (_COUNTER, "", "Statistics lookups that collected afresh."),
    "engine.stats_cache.entries": (_GAUGE, "", "Statistics the stats cache holds."),
    "kernels.compile.hits": (_COUNTER, "", "Kernel lookups a kernel cache answered."),
    "kernels.compile.misses": (_COUNTER, "", "Kernels generated and compiled."),
    "kernels.compile.evictions": (_COUNTER, "", "Compiled kernels evicted from their cache."),
    "kernels.cache.entries": (_GAUGE, "", "Compiled kernels the kernel caches hold."),
    "query.latency": (_HIST, "seconds", "Wall time of one execute() call."),
    "query.latency.backend.<backend>": (_HIST, "seconds", "Wall time of one execute() call, per backend."),
    "relation.index.builds": (_COUNTER, "", "Indexes built over a sorted view."),
    "tetris.resolutions": (_COUNTER, "", "Geometric resolutions (Lemma 4.5)."),
    "tetris.ordered_resolutions": (_COUNTER, "", "Resolutions of the ordered shape (Definition 4.3)."),
    "tetris.resolutions.by_axis.<axis>": (_COUNTER, "", "Resolutions on one axis of the GAO."),
    "tetris.containment_queries": (_COUNTER, "", "Knowledge-base probes, one per traversal box."),
    "tetris.oracle_queries": (_COUNTER, "", "Oracle probes for a gap box."),
    "tetris.skeleton_calls": (_COUNTER, "", "Calls of the skeleton traversal."),
    "tetris.boxes_loaded": (_COUNTER, "", "Gap and output boxes stored in the knowledge base."),
    "tetris.cache_hits": (_COUNTER, "", "Knowledge-base probes that found a container."),
    "tetris.resumes": (_COUNTER, "", "Traversals resumed in place after the knowledge base grew."),
    "tetris.witness_depth_sum": (_COUNTER, "", "Component bits of the gap boxes the oracle returned."),
    "parallel.runs": (_COUNTER, "", "Shard-parallel runs."),
    "parallel.shards.executed": (_COUNTER, "", "Shards run, by a worker or the parent."),
    "parallel.shards.pruned": (_COUNTER, "", "Shards skipped: an input is empty in their space."),
    "parallel.shards.stolen": (_COUNTER, "", "Shards dealt to a worker holding none of their relations."),
    "parallel.shards.in_parent": (_COUNTER, "", "Shards the parent ran while every worker was busy."),
    "parallel.ship.rows": (_COUNTER, "", "Rows shipped by value to workers."),
    "parallel.ship.rows_reshipped": (_COUNTER, "", "Rows shipped again to a second worker."),
    "parallel.ship.bytes": (_COUNTER, "bytes", "Wire bytes of the payloads shipped to workers."),
    "parallel.ship.bytes_nominal": (_COUNTER, "bytes", "Shipped rows at 8 bytes per column value."),
    "parallel.ship.ref_hits": (_COUNTER, "", "Relations a worker already held, named by reference."),
    "parallel.ship.refs_total": (_COUNTER, "", "Relations the shard tasks named."),
    "parallel.shm.ships": (_COUNTER, "", "Payloads shipped as shared-memory segment refs."),
    "parallel.shm.fallbacks": (_COUNTER, "", "Segment refs that fell back to a pickled blob."),
    "parallel.shm.attaches": (_COUNTER, "", "Segments workers newly attached."),
    "parallel.shm.attached_bytes": (_COUNTER, "bytes", "Bytes of the segments workers attached."),
    "parallel.shm.attach_seconds": (_HIST, "seconds", "Worker time attaching segments, per run."),
    "parallel.shm.arena.entries": (_GAUGE, "", "Segments the parent's arena holds."),
    "parallel.shm.segments.created": (_COUNTER, "", "Shared-memory segments created."),
    "parallel.shm.segments.unlinked": (_COUNTER, "", "Shared-memory segments unlinked."),
    "parallel.shm.export.bytes": (_COUNTER, "bytes", "Bytes written into new segments."),
    "parallel.shm.export.fallbacks": (_COUNTER, "", "Exports that could not make a segment."),
    "parallel.dispatch.attempts": (_COUNTER, "", "Shard tasks sent to a worker."),
    "parallel.dispatch.successes": (_COUNTER, "", "Shard tasks a worker answered clean."),
    "parallel.faults.respawns": (_COUNTER, "", "Workers respawned after dying or hanging."),
    "parallel.faults.quarantined": (_COUNTER, "", "Shards a worker failed, run in the parent."),
    "parallel.faults.serial_fallback": (_COUNTER, "", "Shards run in the parent for want of a pool."),
    "parallel.faults.shm_export_errors": (_COUNTER, "", "Segment exports that raised."),
    "parallel.faults.timeouts": (_COUNTER, "", "Parallel runs stopped at their deadline."),
    "worker.<wid>.<counter>": (_COUNTER, "", "A declared counter, as pool worker <wid> shipped it."),
}


def declaring(name: str) -> Optional[str]:
    """The catalogue name that declares ``name`` — itself, or the family
    it belongs to — or None when it is undeclared."""
    if name in CATALOGUE:
        return name
    if name.startswith("worker."):
        inner = declaring(name.split(".", 2)[-1])
        if inner is None or CATALOGUE[inner][0] != _COUNTER:
            return None
        return "worker.<wid>.<counter>"
    family = name.rpartition(".")[0] + ".<"
    return next((key for key in CATALOGUE if key.startswith(family)), None)


#: Fixed log-bucket base.  Every histogram in every process uses the
#: same boundaries, which is what makes cross-process merges exact.
HIST_BASE = 1.2

#: Worst-case relative error of ``quantile``: a sample in bucket
#: ``[B^i, B^(i+1))`` is reported as the geometric midpoint
#: ``B^(i+0.5)``, so the estimate is within a factor ``sqrt(B)`` of the
#: true value — ``sqrt(1.2) - 1 ≈ 9.5%``.
HIST_RELATIVE_ERROR = HIST_BASE ** 0.5 - 1

_LOG_BASE = math.log(HIST_BASE)


class QuantileHistogram:
    """A mergeable log-bucketed histogram with bounded-error quantiles.

    Positive samples land in bucket ``i = floor(log_B(v))`` covering
    ``[B^i, B^(i+1))``; zero and negative samples share a dedicated
    bucket (durations are never negative, but the instrument must not
    corrupt itself on one).  Because the boundaries are fixed constants
    of the module, merging two histograms — from two snapshots or two
    processes — is exact: bucket counts add, and the merged histogram is
    identical to one that observed the concatenated sample stream.
    """

    __slots__ = ("count", "total", "lo", "hi", "zero", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.lo = math.inf
        self.hi = -math.inf
        #: samples ≤ 0 (kept out of the log buckets)
        self.zero = 0
        #: bucket index → sample count
        self.buckets: Dict[int, int] = {}

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.lo:
            self.lo = value
        if value > self.hi:
            self.hi = value
        if value > 0.0:
            i = int(math.floor(math.log(value) / _LOG_BASE))
            self.buckets[i] = self.buckets.get(i, 0) + 1
        else:
            self.zero += 1

    # -- merging / diffing -----------------------------------------------------

    def copy(self) -> "QuantileHistogram":
        out = QuantileHistogram()
        out.count = self.count
        out.total = self.total
        out.lo = self.lo
        out.hi = self.hi
        out.zero = self.zero
        out.buckets = dict(self.buckets)
        return out

    def absorb(self, other: "QuantileHistogram") -> None:
        """Exact merge: bucket-wise addition (fixed shared boundaries)."""
        self.count += other.count
        self.total += other.total
        if other.lo < self.lo:
            self.lo = other.lo
        if other.hi > self.hi:
            self.hi = other.hi
        self.zero += other.zero
        buckets = self.buckets
        for i, c in other.buckets.items():
            buckets[i] = buckets.get(i, 0) + c

    def since(
        self, earlier: "Optional[QuantileHistogram]"
    ) -> "QuantileHistogram":
        """The samples recorded after ``earlier`` (bucket-wise subtract).

        Extremes are running values, not counters: the diff keeps them
        only when samples actually arrived in the window.
        """
        if earlier is None or earlier.count == 0:
            return self.copy()
        out = QuantileHistogram()
        out.count = max(0, self.count - earlier.count)
        out.total = max(0.0, self.total - earlier.total)
        if out.count > 0:
            out.lo = self.lo
            out.hi = self.hi
        out.zero = max(0, self.zero - earlier.zero)
        for i, c in self.buckets.items():
            d = c - earlier.buckets.get(i, 0)
            if d > 0:
                out.buckets[i] = d
        return out

    # -- reading ---------------------------------------------------------------

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 ≤ q ≤ 1) within ``HIST_RELATIVE_ERROR``.

        Returns the geometric midpoint of the bucket holding the
        ``ceil(q·count)``-th smallest sample, clamped to the observed
        ``[min, max]`` (which tightens single-sample and extreme
        quantiles to exact values).
        """
        if self.count <= 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cum = self.zero
        if cum >= rank:
            return max(self.lo, min(0.0, self.hi))
        for i in sorted(self.buckets):
            cum += self.buckets[i]
            if cum >= rank:
                estimate = HIST_BASE ** (i + 0.5)
                return max(self.lo, min(self.hi, estimate))
        return self.hi

    def bucket_items(self) -> List[Tuple[int, int]]:
        """Sorted ``(bucket index, count)`` pairs (exposition format)."""
        return sorted(self.buckets.items())

    @staticmethod
    def bucket_upper(index: int) -> float:
        """The exclusive upper boundary of a bucket: ``B^(index+1)``."""
        return HIST_BASE ** (index + 1)

    # -- pickling-friendly wire form -------------------------------------------

    def to_wire(self) -> tuple:
        return (
            self.count,
            self.total,
            self.lo,
            self.hi,
            self.zero,
            tuple(sorted(self.buckets.items())),
        )

    @classmethod
    def from_wire(cls, wire: tuple) -> "QuantileHistogram":
        out = cls()
        out.count, out.total, out.lo, out.hi, out.zero, items = wire
        out.buckets = dict(items)
        return out


class MetricsSnapshot(Mapping):
    """An immutable point-in-time view of the registry: name → value.

    Histogram instruments expand into ``name.count`` / ``name.sum`` /
    ``name.min`` / ``name.max`` scalar entries, so a snapshot is always
    a flat mapping of dotted names to numbers; the full bucket data
    rides alongside for quantile queries and exact distribution diffs.
    """

    __slots__ = ("_values", "_kinds", "_hists")

    def __init__(
        self,
        values: Dict[str, float],
        kinds: Optional[Dict[str, str]] = None,
        hists: Optional[Dict[str, QuantileHistogram]] = None,
    ):
        self._values = dict(values)
        self._kinds = dict(kinds) if kinds is not None else {}
        self._hists = dict(hists) if hists is not None else {}

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def kind_of(self, name: str) -> str:
        """``"counter"``, ``"gauge"`` or ``"histogram"``."""
        return self._kinds.get(name, _COUNTER)

    def hist_items(self) -> List[Tuple[str, QuantileHistogram]]:
        return sorted(self._hists.items())

    def since(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened between ``earlier`` and this snapshot.

        Counter-like entries subtract (clamped at zero, so an external
        ``reset`` between snapshots cannot produce negative traffic);
        gauges keep this snapshot's value.  Histogram ``.min``/``.max``
        entries are running extremes, not counters: they appear in the
        diff only when the histogram's ``.count`` moved — a query that
        recorded no samples must not inherit an older run's extremes.
        Histogram buckets diff bucket-wise, so quantiles of the window
        are as exact as quantiles of the endpoints.  Names absent from
        the earlier snapshot count from zero.
        """
        out: Dict[str, float] = {}
        for name, value in self._values.items():
            kind = self._kinds.get(name)
            if kind == _GAUGE:
                out[name] = value
            elif kind == _HIST and name.rsplit(".", 1)[-1] in (
                "min", "max",
            ):
                base = name.rsplit(".", 1)[0]
                moved = self._values.get(
                    f"{base}.count", 0
                ) > earlier._values.get(f"{base}.count", 0)
                if moved:
                    out[name] = value
            else:
                out[name] = max(0.0, value - earlier._values.get(name, 0))
        hists = {
            name: h.since(earlier._hists.get(name))
            for name, h in self._hists.items()
        }
        return MetricsSnapshot(out, self._kinds, hists)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._values)


class MetricsRegistry:
    """Counters, gauges and histograms under one dotted namespace."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, QuantileHistogram] = {}
        self._collectors: Dict[str, Callable[[], Mapping[str, float]]] = {}

    # -- direct instruments ----------------------------------------------------

    def inc(self, name: str, delta: float = 1) -> None:
        """Add to a monotonic counter (no-op while disabled)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + delta

    def inc_many(self, values: Mapping[str, float]) -> None:
        """Fold a dict of counter deltas in (one enabled check for all)."""
        if not self.enabled:
            return
        counters = self._counters
        for name, delta in values.items():
            if delta:
                counters[name] = counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (last write wins)."""
        if not self.enabled:
            return
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a quantile histogram."""
        if not self.enabled:
            return
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = QuantileHistogram()
        h.record(value)

    def merge_hist(self, name: str, hist: QuantileHistogram) -> None:
        """Fold a whole histogram in (worker deltas, snapshot replays)."""
        if not self.enabled or hist.count == 0:
            return
        h = self._hists.get(name)
        if h is None:
            self._hists[name] = hist.copy()
        else:
            h.absorb(hist)

    # -- collectors ------------------------------------------------------------

    def register_collector(
        self, name: str, collect: Callable[[], Mapping[str, float]]
    ) -> None:
        """Attach a pull-time source of values.

        ``collect()`` runs at snapshot time and returns ``{dotted name:
        value}``; each name's kind is its catalogue entry's (a counter
        when undeclared).  Registration is keyed by ``name`` and
        idempotent — re-importing a module replaces its collector
        instead of duplicating it.
        """
        self._collectors[name] = collect

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Everything the registry knows right now, collectors included."""
        values: Dict[str, float] = {}
        kinds: Dict[str, str] = {}
        for name, v in self._counters.items():
            values[name] = v
            kinds[name] = _COUNTER
        for name, v in self._gauges.items():
            values[name] = v
            kinds[name] = _GAUGE
        hists: Dict[str, QuantileHistogram] = {}
        for name, h in self._hists.items():
            hists[name] = h.copy()
            values[f"{name}.count"] = h.count
            values[f"{name}.sum"] = h.total
            values[f"{name}.min"] = h.lo
            values[f"{name}.max"] = h.hi
            for suffix in ("count", "sum", "min", "max"):
                kinds[f"{name}.{suffix}"] = _HIST
        for collect in self._collectors.values():
            for name, v in collect().items():
                # A collected counter *adds* to any direct counter of
                # the same name: worker-shipped deltas land in the
                # parent's direct counters and must aggregate with the
                # parent's own cache traffic.
                key = declaring(name)
                kind = CATALOGUE[key][0] if key else _COUNTER
                if kind == _COUNTER:
                    v += values.get(name, 0)
                values[name] = v
                kinds[name] = kind
        return MetricsSnapshot(values, kinds, hists)

    def value(self, name: str, default: float = 0.0) -> float:
        """One instrument's current value (direct instruments only)."""
        if name in self._counters:
            return self._counters[name]
        if name in self._gauges:
            return self._gauges[name]
        return default

    def reset(self) -> None:
        """Zero every direct instrument (collector sources are theirs)."""
        self._counters.clear()
        self._gauges.clear()
        self._hists.clear()


#: The process-wide registry every subsystem reports into.
REGISTRY = MetricsRegistry()


def set_enabled(on: bool) -> None:
    """Flip the global registry's master switch (tests, benchmarks)."""
    REGISTRY.enabled = on


# -- cross-process shipping ----------------------------------------------------


def wire_delta(
    before: MetricsSnapshot, after: MetricsSnapshot
) -> Optional[tuple]:
    """Encode the registry movement between two snapshots for the pipe.

    The wire form is plain tuples — ``(counters, histograms)`` with
    ``counters = ((name, delta), ...)`` and ``histograms = ((name,
    hist wire), ...)`` — so it pickles small and fast.  Gauges are
    deliberately excluded: a worker's point-in-time gauge (arena bytes,
    cache entries) is not meaningful folded into the parent.  Returns
    ``None`` when nothing moved, so idle shards ship nothing.
    """
    delta = after.since(before)
    counters = tuple(
        (name, value)
        for name, value in sorted(delta.as_dict().items())
        if value and delta.kind_of(name) == _COUNTER
    )
    hists = tuple(
        (name, h.to_wire())
        for name, h in delta.hist_items()
        if h.count
    )
    if not counters and not hists:
        return None
    return (counters, hists)


def merge_wire_delta(
    registry: MetricsRegistry,
    wire: tuple,
    worker_prefix: Optional[str] = None,
) -> None:
    """Fold a worker's wire delta into ``registry``.

    Counters land under their aggregate names and — when
    ``worker_prefix`` is given (``"worker.3"``) — again under a
    per-worker breakdown, so both "total kernel misses" and "which
    worker missed" are answerable.  Histograms merge bucket-exactly
    under the aggregate name only (per-worker latency distributions
    would multiply cardinality for little insight).
    """
    counters, hists = wire
    if counters:
        registry.inc_many(dict(counters))
        if worker_prefix:
            registry.inc_many(
                {f"{worker_prefix}.{name}": v for name, v in counters}
            )
    for name, hist_wire in hists:
        registry.merge_hist(name, QuantileHistogram.from_wire(hist_wire))


#: Quantiles rendered for every histogram in text output.
_RENDER_QUANTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))


def render_metrics(snap: MetricsSnapshot, indent: str = "") -> List[str]:
    """A snapshot's non-zero entries as aligned ``name : value`` lines,
    sorted by name.

    Histogram instruments additionally render ``name.p50`` / ``.p95`` /
    ``.p99`` estimate lines next to their count/sum/min/max scalars.
    """
    entries = {name: v for name, v in snap.as_dict().items() if v}
    for name, h in snap.hist_items():
        if h.count > 0:
            for q, tag in _RENDER_QUANTILES:
                entries[f"{name}.{tag}"] = h.quantile(q)
    names = sorted(entries)
    if not names:
        return [f"{indent}(no metrics recorded)"]
    width = max(len(n) for n in names)
    lines = []
    for name in names:
        value = entries[name]
        if value == int(value) and abs(value) < 1e15:
            text = str(int(value))
        else:
            text = f"{value:.6g}"
        lines.append(f"{indent}{name:<{width}} : {text}")
    return lines
