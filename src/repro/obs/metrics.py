"""The unified metrics registry: every counter in the engine, one namespace.

Before this module the engine's instrumentation was scattered: kernel
cache hits lived on :class:`~repro.engine.codegen.KernelCache` objects,
plan/stats cache hits on module-private LRUs, sorted-view evictions on
each :class:`~repro.relational.relation.Relation`, shard shipping tallies
on :class:`~repro.parallel.merge.ParallelReport`, and the resolution
counters of Lemma 4.5 on per-query ``ResolutionStats``.  The registry
absorbs them all behind dotted names::

    engine.queries                    engine.plan_cache.hits
    kernels.compile.misses            relation.view.evictions
    relation.view.builds              relation.index.builds
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
bucket-wise addition.  Snapshots still expand each histogram into
``name.count`` / ``name.sum`` / ``name.min`` / ``name.max`` scalars for
backward compatibility, but also carry the bucket data so
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

from repro import config

_COUNTER = "c"
_GAUGE = "g"
_HIST = "h"

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
        """``"c"`` (counter), ``"g"`` (gauge) or ``"h"`` (histogram)."""
        return self._kinds.get(name, _COUNTER)

    def histogram(self, name: str) -> Optional[QuantileHistogram]:
        """The full bucket data behind a histogram instrument."""
        return self._hists.get(name)

    def hist_items(self) -> List[Tuple[str, QuantileHistogram]]:
        return sorted(self._hists.items())

    def quantile(self, name: str, q: float) -> Optional[float]:
        """``quantile(q)`` of a histogram instrument, or None."""
        h = self._hists.get(name)
        if h is None or h.count == 0:
            return None
        return h.quantile(q)

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

    def nonzero(self) -> "MetricsSnapshot":
        """Only the entries with a non-zero value (rendering filter)."""
        return MetricsSnapshot(
            {k: v for k, v in self._values.items() if v},
            self._kinds,
            {k: h for k, h in self._hists.items() if h.count},
        )

    def group(self, prefix: str) -> Dict[str, float]:
        """Entries under a dotted prefix, with the prefix stripped."""
        dot = prefix + "."
        return {
            k[len(dot):]: v
            for k, v in self._values.items()
            if k.startswith(dot)
        }

    def as_dict(self) -> Dict[str, float]:
        return dict(self._values)


class MetricsRegistry:
    """Counters, gauges and histograms under one dotted namespace."""

    def __init__(self, enabled: Optional[bool] = None):
        # ``REPRO_METRICS`` defaults on: every instrument sits at
        # per-query granularity, a handful of dict updates per query.
        self.enabled = config.METRICS.get() if enabled is None else enabled
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
        """Attach a pull-time source of counter values.

        ``collect()`` runs at snapshot time and returns ``{dotted name:
        value}``.  Registration is keyed by ``name`` and idempotent —
        re-importing a module replaces its collector instead of
        duplicating it.
        """
        self._collectors[name] = collect

    def unregister_collector(self, name: str) -> None:
        self._collectors.pop(name, None)

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
                # Collector-owned caches report running totals: treat
                # size-like names as gauges so since() keeps them
                # readable; everything else is a counter and *adds* to
                # any direct counter of the same name (worker-shipped
                # deltas land in the parent's direct counters and must
                # aggregate with the parent's own cache traffic).
                if name.rsplit(".", 1)[-1] in ("entries", "capacity"):
                    values[name] = v
                    kinds[name] = _GAUGE
                else:
                    values[name] = values.get(name, 0) + v
                    kinds[name] = _COUNTER
        return MetricsSnapshot(values, kinds, hists)

    def value(self, name: str, default: float = 0.0) -> float:
        """One instrument's current value (direct instruments only)."""
        if name in self._counters:
            return self._counters[name]
        if name in self._gauges:
            return self._gauges[name]
        return default

    def quantile(self, name: str, q: float) -> Optional[float]:
        """A live histogram's quantile without taking a full snapshot."""
        h = self._hists.get(name)
        if h is None or h.count == 0:
            return None
        return h.quantile(q)

    def histogram(self, name: str) -> Optional[QuantileHistogram]:
        """The live histogram behind a name (read-only use)."""
        return self._hists.get(name)

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


def enabled() -> bool:
    return REGISTRY.enabled


def snapshot() -> MetricsSnapshot:
    return REGISTRY.snapshot()


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


def render_metrics(
    snap: MetricsSnapshot,
    indent: str = "",
    skip_zero: bool = True,
) -> List[str]:
    """A snapshot as aligned ``name : value`` lines, sorted by name.

    Histogram instruments additionally render ``name.p50`` / ``.p95`` /
    ``.p99`` estimate lines next to their count/sum/min/max scalars.
    """
    shown = snap.nonzero() if skip_zero else snap
    entries = shown.as_dict()
    for name, h in shown.hist_items():
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
