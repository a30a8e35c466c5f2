"""One measured run of one workload, in a process of its own.

``run.py`` starts this with a scrubbed environment.  It generates the
workload's inputs from the seed, measures either the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``), and writes one JSON
document to ``--out``: the metrics, every timing sample, and a log of every
operation with the digest of its output.  The caller holds the reference
digests and does the comparison, so this process's peak RSS is the
program's plus the raw inputs, not the reference join's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

import inputs
from metrics import PER_LAYER
from reference import digest
from repro.engine import kernel_cache_info
from spans import Tracer
from workloads import (
    WORKLOADS,
    Probe,
    Workload,
    clear_program_caches,
    shm_entries,
    timed,
)

WARMUPS = 2
#: What ``host_probe`` takes on the sizing host when it is quiet.  It anchors
#: the unit: a reported time is seconds on a host this fast.
PROBE_REF_S = 0.025


def host_probe() -> int:
    """Fixed allocation-, dict- and sort-heavy work in pure Python.

    The shared host slows memory-bound interpreter work by up to 40 % for
    minutes at a time.  The probe slows with it, the program under test has no
    part in it, so dividing a run's times by the probe's cancels most of the
    drift (quartile spread of ``query_s`` over ten runs on ten seeds: 10-31 %
    of the median raw, 4-11 % normalized).
    """
    rows = [((i * 7919) % 100003, i) for i in range(40000)]
    buckets: Dict[int, list] = {}
    for row in rows:
        buckets.setdefault(row[0] & 1023, []).append(row)
    return len(set(sorted(t for bucket in buckets.values() for t in bucket)))


class HostSpeed:
    """Probe samples taken throughout a run, and the factor they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, times: int = 2) -> None:
        self.samples.extend(timed(host_probe)[0] for _ in range(times))

    @property
    def factor(self) -> float:
        """How much slower than the reference the host was (1.0 = as fast)."""
        return statistics.median(self.samples) / PROBE_REF_S


class OpLog:
    """Every operation attempted: phase, seconds, output digests or the error."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.ops: List[dict] = []

    def record(self, phase: str, seconds: float, outputs=None, first: int = 0,
               error: Optional[str] = None) -> None:
        entry = {"phase": phase, "seconds": seconds, "first": first}
        if error is not None:
            entry["error"] = error
        elif outputs is not None:
            entry["digests"] = [digest(rows) for rows in outputs]
        self.ops.append(entry)

    def attempt(self, phase: str, fn) -> Optional[tuple]:
        """Time ``fn`` and log it; ``None`` (and a logged error) if it raised."""
        try:
            seconds, out = timed(fn)
            self.record(phase, seconds, self.workload.rows_of(out))
        except Exception:
            self.record(phase, 0.0, error=traceback.format_exc(limit=4))
            return None
        return seconds, out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def end_to_end(w: Workload, instances, seconds: float, log: OpLog) -> dict:
    """Set-up, cold and warm samples, taken in cycles across the whole run.

    The host's speed drifts over seconds, so no metric is sampled in one
    block.  There is a cycle per second of ``seconds``, between two and eight;
    each builds fresh databases (a set-up sample), runs one cold
    operation on them, then spends its share of ``seconds`` on warm
    operations over the long-lived state.  Every program cache is keyed on
    content, so the cold operation leaves the warm state warm.  The host probe
    is sampled between the phases and the medians are divided by its factor.
    """
    cycles = min(8, max(2, round(seconds)))
    host = HostSpeed()
    state = w.build(instances)
    for _ in range(WARMUPS):
        log.attempt("warmup", lambda: w.op(state))
    setup: List[float] = []
    cold: List[float] = []
    warm: List[float] = []
    warm_spent = 0.0
    for cycle in range(cycles):
        host.sample()
        seconds_built, fresh = timed(lambda: w.build(instances))
        setup.append(seconds_built)
        # One more build always, up to three while they are cheap.
        cheap_until = time.perf_counter() + 0.03
        for extra in range(3):
            if extra and time.perf_counter() > cheap_until:
                break
            setup.append(timed(lambda: w.build(instances))[0])
        if w.has_cold_phase:
            clear_program_caches()
            done = log.attempt("cold", lambda: w.op(fresh))
            if done:
                cold.append(done[0])
        del fresh
        host.sample()
        share = seconds * (cycle + 1) / cycles
        started = time.perf_counter()
        first = True
        while first or warm_spent + time.perf_counter() - started < share:
            first = False
            done = log.attempt("warm", lambda: w.op(state))
            if done:
                warm.append(done[0])
        warm_spent += time.perf_counter() - started
        host.sample()
    if not w.has_cold_phase:
        cold = warm

    clear_program_caches()  # reaps the pool's workers before rusage is read
    samples = {"setup_s": setup, "cold_query_s": cold, "query_s": warm}
    metrics = {
        name: statistics.median(values) / host.factor
        for name, values in samples.items()
    }
    metrics["peak_rss_mb"] = peak_rss_mb()
    samples["host_probe_s"] = host.samples
    return {"metrics": metrics, "samples": samples, "host_factor": host.factor}


def per_layer(w: Workload, instances, seconds: float, quick: bool, seed: int,
              log: OpLog, trace_path: str, shm_before: set) -> dict:
    """Layer probes on fresh state, then untraced and stepwise operations in turn."""
    host = HostSpeed()
    host.sample()
    metrics: Dict[str, float] = dict(w.cold_layers(instances, log.record))
    state = w.build(instances)
    for _ in range(WARMUPS):
        log.attempt("warmup", lambda: w.op(state))

    tracer = Tracer()
    plain: List[float] = []
    traced: List[float] = []
    results = None
    kernels_before = kernel_cache_info()
    min_rounds = 2 if quick else 3
    started = time.perf_counter()
    while len(plain) < min_rounds or time.perf_counter() - started < 0.4 * seconds:
        host.sample()
        done = log.attempt("plain", lambda: w.op(state))
        if done:
            plain.append(done[0])
            results = done[1]
        gc.collect()
        with tracer.operation(w.name) as root:
            out = w.traced_op(state, tracer)
        log.record("traced", root.duration, w.rows_of(out))
        traced.append(root.duration)

    probe = Probe(w, state, tracer, plain, traced, results, log.record,
                  seed, quick, shm_before, kernels_before)
    metrics.update(w.warm_layers(probe))
    host.sample()
    # Times are reported in the same host-normalised seconds as the
    # end-to-end metrics; counts, ratios and the waterfall are as measured.
    for name in metrics:
        if PER_LAYER[name].unit in ("s", "ns"):
            metrics[name] /= host.factor
    metrics["bench.host_factor"] = host.factor
    clear_program_caches()
    with open(trace_path, "w") as handle:
        json.dump([s.as_dict() for s in tracer.spans], handle)
    return {
        "metrics": metrics,
        "samples": {"plain_s": plain, "traced_s": traced},
        "info": probe.info,
        "waterfall": waterfall(tracer),
    }


def waterfall(tracer: Tracer) -> dict:
    """The median traced operation: wall, then each layer's share of it."""
    roots = tracer.roots()
    sums = [tracer.by_name(r) for r in roots]
    names = sorted({n for s in sums for n in s})
    return {
        "operation_s": statistics.median(r.duration for r in roots),
        "layers": {
            n: statistics.median(s.get(n, 0.0) for s in sums) for n in names
        },
        "self_s": statistics.median(tracer.self_time(r) for r in roots),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    cores = len(os.sched_getaffinity(0))
    if w.workers is not None and w.workers > cores:
        print(f"{w.name} needs {w.workers} cores, this process may use {cores}",
              file=sys.stderr)
        return 2
    shm_before = shm_entries()
    load_start = os.getloadavg()
    instances = inputs.instances(w.name, args.seed, args.quick)
    w.prepare(instances, args.workdir)
    log = OpLog(w)
    if args.trace:
        trace_path = os.path.join(
            os.path.dirname(args.out), f"trace_{w.name}.json")
        result = per_layer(w, instances, args.seconds, args.quick, args.seed,
                           log, trace_path, shm_before)
    else:
        result = end_to_end(w, instances, args.seconds, log)
    result.update({
        "workload": w.name,
        "seed": args.seed,
        "quick": args.quick,
        "trace": args.trace,
        "ops": log.ops,
        "leaked_segments": sorted(shm_entries() - shm_before),
        "host": {
            "python": sys.version.split()[0],
            "cores": cores,
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
    })
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
