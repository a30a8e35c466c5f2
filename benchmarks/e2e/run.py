#!/usr/bin/env python3
"""The repo's end-to-end benchmark: six workloads, a layer waterfall, one command.

    python benchmarks/e2e/run.py [--seed S] [--workload W] [--quick]
        every workload (or one), in rounds visited round-robin, then one
        traced run each; prints every metric and writes results/*.json
    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
        one measured run; the last line of stdout is one JSON object
        (the form BENCHMARK.json's ``command`` is run in)
    python benchmarks/e2e/run.py --compare A.json B.json
        two result files side by side, with a verdict per metric

Each measured run is a child process (``measure.py``) with every ``REPRO_*``
variable scrubbed and ``PYTHONHASHSEED`` fixed; this process computes the
independent reference and checks every operation's output against it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS, declared_on  # noqa: E402

CHILD_TIMEOUT_S = 170
_expected: Dict[tuple, list] = {}


def expected_digests(workload: str, seed: int, quick: bool) -> list:
    key = (workload, seed, quick)
    if key not in _expected:
        _expected[key] = [
            reference.expected_digest(inst.atoms, inst.data)
            for inst in inputs.instances(workload, seed, quick)
        ]
    return _expected[key]


def child_env(workdir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), inherited]))
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def verify(detail: dict, expected: list) -> List[str]:
    """One line per operation that raised or whose output is not the reference's."""
    errors = []
    for i, op in enumerate(detail["ops"]):
        if "error" in op:
            errors.append(f"op {i} ({op['phase']}): {op['error'].strip()}")
            continue
        for k, got in enumerate(op.get("digests", ())):
            why = reference.mismatch(got, expected[op["first"] + k])
            if why:
                errors.append(
                    f"op {i} ({op['phase']}), instance {op['first'] + k}: {why}")
    return errors


def run_child(workload: str, seed: int, seconds: float, trace: int,
              quick: bool) -> dict:
    """One measured run, verified: the child's document plus attempted/failed."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"the program under test is not at {SRC}")
    expected = expected_digests(workload, seed, quick)
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        out = workdir / "detail.json"
        argv = [
            sys.executable, str(HERE / "measure.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(workdir), "--out", str(out),
        ] + (["--quick"] if quick else [])
        # cwd is the scratch directory so that no ./.repro calibration file
        # of the checkout reaches the planner.
        done = subprocess.run(
            argv, cwd=workdir, env=child_env(workdir), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0 or not out.is_file():
            sys.stderr.write(done.stdout + done.stderr)
            sys.exit(f"{workload}: measured run failed "
                     f"(exit status {done.returncode})")
        detail = json.loads(out.read_text())
        trace_file = workdir / f"trace_{workload}.json"
        if trace_file.is_file():
            trace_file.replace(RESULTS / trace_file.name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    undeclared = set(detail["metrics"]) - set(END_TO_END) - set(declared_on(workload))
    if undeclared:
        sys.exit(f"{workload}: undeclared metrics {sorted(undeclared)}")
    detail["errors"] = verify(detail, expected)
    if detail["leaked_segments"]:
        detail["errors"].append(
            f"left in /dev/shm: {detail['leaked_segments']}")
    detail["attempted"] = len(detail["ops"])
    detail["failed"] = len(detail["errors"])
    return detail


def contract_line(detail: dict) -> str:
    """The driver's result object for one run."""
    table = PER_LAYER if detail["trace"] else END_TO_END
    metrics = {
        name: {"value": detail["metrics"].get(name, 0), "unit": spec.unit}
        for name, spec in table.items()
    }
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    })


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def summarize(samples: List[float], per_round: List[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (
        samples[0],) * 3
    return {
        "value": statistics.median(samples), "unit": unit, "samples": len(samples),
        "q1": q1, "q3": q3, "per_round": per_round,
    }


def full_run(names: List[str], seed: int, seconds: float, rounds: int,
             quick: bool, out: Path) -> int:
    started = time.time()
    load_start = os.getloadavg()
    plain: Dict[str, List[dict]] = {name: [] for name in names}
    for r in range(rounds):
        for name in names:
            print(f"round {r + 1}/{rounds}  {name}", file=sys.stderr)
            plain[name].append(run_child(name, seed, seconds, 0, quick))
    workloads = {}
    for name in names:
        print(f"traced  {name}", file=sys.stderr)
        traced = run_child(name, seed, seconds, 1, quick)
        runs = plain[name] + [traced]
        end_to_end = {}
        for metric, spec in END_TO_END.items():
            per_round = [d["metrics"][metric] for d in plain[name]]
            if metric == "peak_rss_mb":
                pooled = per_round
            else:
                pooled = [s / d["host_factor"]
                          for d in plain[name] for s in d["samples"][metric]]
            end_to_end[metric] = summarize(pooled, per_round, spec.unit)
        attempted = sum(d["attempted"] for d in runs)
        failed = sum(d["failed"] for d in runs)
        workloads[name] = {
            "why": WORKLOADS[name],
            "end_to_end": end_to_end,
            "error_rate": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "errors": [e for d in runs for e in d["errors"]],
            "per_layer": {
                metric: {"value": traced["metrics"][metric],
                         "unit": PER_LAYER[metric].unit}
                for metric in declared_on(name) if metric in traced["metrics"]
            },
            "waterfall": traced["waterfall"],
            "info": traced["info"],
            "host_factor": [d["host_factor"] for d in plain[name]],
        }
    host = dict(plain[names[0]][0]["host"])
    host.update(loadavg_start=load_start, loadavg_end=os.getloadavg(),
                git_commit=git_commit())
    result = {
        "schema": 1, "claim": None, "seed": seed, "quick": quick,
        "seconds": seconds, "rounds": rounds,
        "wall_s": time.time() - started, "host": host, "workloads": workloads,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(compare.render(result))
    print(f"\nwrote {out}  ({result['wall_s']:.0f} s)")
    return 1 if any(w["failed"] for w in workloads.values()) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each run's warm phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: small inputs, one round")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        text, worse = compare.compare(a, b)
        print(text)
        return 1 if worse else 0
    seconds = args.seconds if args.seconds is not None else (
        0.5 if args.quick else 4.0)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        detail = run_child(args.workload, args.seed, seconds, args.trace,
                           args.quick)
        for error in detail["errors"]:
            print(error, file=sys.stderr)
        print(contract_line(detail))
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    rounds = 1 if args.quick else 3
    label = f"e2e_seed{args.seed}" + ("_quick" if args.quick else "")
    out = args.out if args.out is not None else RESULTS / f"{label}.json"
    return full_run(names, args.seed, seconds, rounds, args.quick, out)


if __name__ == "__main__":
    sys.exit(main())
