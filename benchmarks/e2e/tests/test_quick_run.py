"""One ``--quick`` run of every workload, then the properties the issue asks of it."""

import json

import pytest

import metrics
import run

SEED = 5


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    status = run.main(["--quick", "--seed", str(SEED), "--out", str(out)])
    return status, json.loads(out.read_text())


def test_every_operation_is_correct(quick):
    status, result = quick
    assert status == 0
    assert result["claim"] is None
    for name, w in result["workloads"].items():
        assert w["failed"] == 0 and w["error_rate"] == 0, (name, w["errors"])
        assert w["attempted"] >= 6


def test_declared_metrics_are_emitted_and_nothing_else(quick):
    _, result = quick
    assert list(result["workloads"]) == list(metrics.WORKLOADS)
    for name, w in result["workloads"].items():
        assert set(w["end_to_end"]) == set(metrics.END_TO_END)
        assert set(w["per_layer"]) == set(metrics.declared_on(name)), name
        for metric, m in w["end_to_end"].items():
            assert m["value"] > 0 and m["unit"] == metrics.END_TO_END[metric].unit


def test_host_facts_are_recorded(quick):
    _, result = quick
    host = result["host"]
    assert host["cores"] >= 2 and host["python"]
    assert len(host["loadavg_start"]) == len(host["loadavg_end"]) == 3
    assert "git_commit" in host


def test_the_workloads_separate_the_layers(quick):
    _, result = quick
    layers = {n: {k: v["value"] for k, v in w["per_layer"].items()}
              for n, w in result["workloads"].items()}
    assert layers["auto_mix"]["tetris.resolutions"] == 0
    assert layers["parallel_star_w2"]["dispatch.leaked_segments"] == 0
    assert layers["tetris_reloaded_path"]["tetris.split_cert_resolutions"] <= 2
    assert layers["tetris_preloaded_triangle"]["indexes.oracle_queries"] == 0
    assert layers["tetris_reloaded_path"]["indexes.oracle_queries"] > 0
    for name in metrics.IN_PROCESS:
        assert layers[name]["codegen.cache_hit_ratio"] == 1.0, name


COUNTS = {
    "tetris_preloaded_triangle": ("tetris.resolutions", "indexes.gap_boxes"),
    "tetris_reloaded_path": ("tetris.resolutions", "indexes.gap_boxes"),
    "parallel_star_w2": ("partition.shards",),
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_counts_repeat_exactly_for_a_seed(quick, workload):
    _, result = quick
    again = run.run_child(workload, SEED, 0.5, 1, True)
    assert again["failed"] == 0
    for metric in COUNTS[workload]:
        first = result["workloads"][workload]["per_layer"][metric]["value"]
        assert again["metrics"][metric] == first, metric
    rows = [op["digests"] for op in again["ops"] if op["phase"] == "plain"]
    assert rows and all(r == rows[0] for r in rows)


@pytest.mark.parametrize(
    "workload", ["tetris_preloaded_triangle", "tetris_reloaded_path"])
def test_traced_spans_account_for_the_operation(workload):
    detail = run.run_child(workload, SEED, 6.0, 1, True)
    assert detail["failed"] == 0
    spans = json.loads((run.RESULTS / f"trace_{workload}.json").read_text())
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert len(roots) >= 3
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["op"] == s["op"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    assert len({r["op"] for r in roots}) == len(roots)
    query_s = detail["metrics"]["executor.query_q3_s"]
    assert abs(detail["metrics"]["executor.unattributed_s"]) < 0.15 * query_s
    assert 0.85 < detail["metrics"]["bench.trace_overhead_ratio"] < 1.15


def test_contract_line_lists_every_metric_once():
    detail = run.run_child("cli_join_csv", SEED, 0.5, 0, True)
    line = json.loads(run.contract_line(detail))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == set(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    detail = run.run_child("cli_join_csv", SEED, 0.5, 1, True)
    assert set(json.loads(run.contract_line(detail))["metrics"]) == set(
        metrics.PER_LAYER)
