"""BENCHMARK.json against the benchmark's own declarations and the contract's limits."""

import json
import re
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parents[3]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_command_and_paths():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(MANIFEST["run_seconds"], int)
    assert 1 <= MANIFEST["run_seconds"] <= 60
    runs = 4 + 22 * len(MANIFEST["workloads"])
    assert runs * (MANIFEST["run_seconds"] + 12) <= 3420  # ~12 s of set-up per run


def test_workloads_match_declarations():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == list(
        metrics.WORKLOADS.items())
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_matches_declarations():
    declared = [
        {"name": n, "unit": m.unit, "better": m.better, "bound": m.bound}
        for n, m in metrics.END_TO_END.items()
    ]
    assert MANIFEST["end_to_end"] == declared
    assert all(0 < m["bound"] <= 0.25 for m in declared)
    setup = metrics.END_TO_END["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END.values())


def test_per_layer_matches_declarations():
    declared = [
        {"name": n, "unit": m.unit, "better": m.better}
        for n, m in metrics.PER_LAYER.items()
    ]
    assert MANIFEST["per_layer"] == declared
    assert 1 <= len(declared) <= 128


def test_names_and_units_are_well_formed_and_unique():
    names = (
        [w["name"] for w in MANIFEST["workloads"]]
        + [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_every_layer_metric_names_known_workloads_and_targets():
    for name, layer in metrics.PER_LAYER.items():
        assert layer.workloads, name
        assert set(layer.workloads) <= set(metrics.WORKLOADS), name
        assert layer.moves in set(metrics.END_TO_END) | {"none"}, name
