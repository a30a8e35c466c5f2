"""Quantile histograms: bounded-error quantiles, exact merges, wire form.

The two properties everything downstream leans on:

* ``quantile(q)`` is within :data:`~repro.obs.metrics.
  HIST_RELATIVE_ERROR` of the true sample quantile (the render path
  prints p50/p95/p99 from it);
* merging — across snapshots (``since``/``absorb``) or across
  processes (``to_wire``/``from_wire`` + ``merge_wire_delta``) — is
  *exact* bucket-wise addition, so a parent that folds worker deltas in
  reports the same distribution as one process that saw every sample.
"""

import math
import pickle
import random

from repro.obs.metrics import (
    HIST_RELATIVE_ERROR,
    MetricsRegistry,
    QuantileHistogram,
    merge_wire_delta,
    wire_delta,
)


def _true_quantile(samples, q):
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def test_quantile_error_is_bounded():
    rng = random.Random(42)
    h = QuantileHistogram()
    samples = []
    # Log-uniform over six decades: every bucket regime is exercised.
    for _ in range(5000):
        v = 10 ** rng.uniform(-4, 2)
        samples.append(v)
        h.record(v)
    for q in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999):
        estimate = h.quantile(q)
        truth = _true_quantile(samples, q)
        rel = abs(estimate - truth) / truth
        assert rel <= HIST_RELATIVE_ERROR + 1e-9, (q, estimate, truth)


def test_single_sample_and_extremes_are_exact():
    h = QuantileHistogram()
    h.record(3.7)
    for q in (0.0, 0.5, 1.0):
        assert h.quantile(q) == 3.7
    h.record(100.0)
    # The top end clamps to the observed max exactly; the bottom is a
    # bucket-midpoint estimate within the relative-error bound.
    assert h.quantile(1.0) == 100.0
    assert abs(h.quantile(0.0) - 3.7) / 3.7 <= HIST_RELATIVE_ERROR


def test_zero_and_negative_samples_use_the_zero_bucket():
    h = QuantileHistogram()
    for v in (0.0, -1.0, 5.0):
        h.record(v)
    assert h.zero == 2
    assert h.count == 3
    assert h.lo == -1.0
    assert h.quantile(0.5) <= 0.0
    assert abs(h.quantile(1.0) - 5.0) / 5.0 <= HIST_RELATIVE_ERROR


def test_merge_is_exact_bucketwise():
    rng = random.Random(7)
    a, b, both = (
        QuantileHistogram(),
        QuantileHistogram(),
        QuantileHistogram(),
    )
    for _ in range(400):
        v = rng.expovariate(1.0)
        a.record(v)
        both.record(v)
    for _ in range(600):
        v = rng.expovariate(10.0)
        b.record(v)
        both.record(v)
    a.absorb(b)
    assert a.count == both.count
    assert a.buckets == both.buckets
    assert a.zero == both.zero
    assert a.lo == both.lo and a.hi == both.hi
    assert abs(a.total - both.total) < 1e-9
    for q in (0.1, 0.5, 0.9, 0.99):
        assert a.quantile(q) == both.quantile(q)


def test_since_diffs_the_window():
    h = QuantileHistogram()
    for v in (1.0, 2.0):
        h.record(v)
    earlier = h.copy()
    for v in (4.0, 8.0):
        h.record(v)
    window = h.since(earlier)
    assert window.count == 2
    assert window.buckets == {
        i: c for i, c in h.buckets.items()
        if c > earlier.buckets.get(i, 0)
    }
    assert window.quantile(1.0) == 8.0
    # Empty window: no samples, no stale extremes.
    empty = h.since(h.copy())
    assert empty.count == 0
    assert empty.quantile(0.5) == 0.0


def test_wire_round_trip_and_pickle():
    h = QuantileHistogram()
    for v in (0.5, 1.5, 1.5, 30.0, 0.0):
        h.record(v)
    wire = h.to_wire()
    # The wire form is plain tuples: what the worker pipe pickles.
    assert wire == pickle.loads(pickle.dumps(wire))
    back = QuantileHistogram.from_wire(wire)
    assert back.count == h.count
    assert back.buckets == h.buckets
    assert back.zero == h.zero
    assert back.lo == h.lo and back.hi == h.hi


def test_cross_process_merge_matches_single_process():
    """Worker deltas folded into the parent == one registry that saw
    every sample (the shipping path's correctness statement)."""
    rng = random.Random(13)
    parent = MetricsRegistry(enabled=True)
    oracle = MetricsRegistry(enabled=True)
    parent_samples = [rng.expovariate(5.0) for _ in range(100)]
    for v in parent_samples:
        parent.observe("query.latency", v)
        oracle.observe("query.latency", v)
    parent.inc("kernels.compile.misses", 2)
    oracle.inc("kernels.compile.misses", 2)
    for wid in range(3):
        worker = MetricsRegistry(enabled=True)
        before = worker.snapshot()
        worker.inc("kernels.compile.misses")
        for _ in range(50):
            v = rng.expovariate(1.0)
            worker.observe("query.latency", v)
            oracle.observe("query.latency", v)
        oracle.inc("kernels.compile.misses")
        wire = wire_delta(before, worker.snapshot())
        assert wire == pickle.loads(pickle.dumps(wire))
        merge_wire_delta(parent, wire, worker_prefix=f"worker.{wid}")
    merged = dict(parent.snapshot().hist_items())["query.latency"]
    truth = dict(oracle.snapshot().hist_items())["query.latency"]
    assert merged.count == truth.count == 250
    assert merged.buckets == truth.buckets
    for q in (0.5, 0.95, 0.99):
        assert merged.quantile(q) == truth.quantile(q)
    snap = parent.snapshot()
    assert snap["kernels.compile.misses"] == 5
    for wid in range(3):
        assert snap[f"worker.{wid}.kernels.compile.misses"] == 1


def test_wire_delta_of_idle_window_is_none():
    reg = MetricsRegistry(enabled=True)
    reg.inc("n", 3)
    reg.gauge("g", 1)
    before = reg.snapshot()
    reg.gauge("g", 2)  # gauges deliberately don't ship
    assert wire_delta(before, reg.snapshot()) is None


def test_registry_quantiles_render():
    from repro.obs.metrics import render_metrics

    reg = MetricsRegistry(enabled=True)
    for v in (0.010, 0.020, 0.040):
        reg.observe("query.latency", v)
    snap = reg.snapshot()
    assert dict(snap.hist_items())["query.latency"].quantile(1.0) == 0.040
    lines = render_metrics(snap)
    joined = "\n".join(lines)
    for needle in (
        "query.latency.count",
        "query.latency.p50",
        "query.latency.p95",
        "query.latency.p99",
    ):
        assert needle in joined
