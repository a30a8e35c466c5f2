"""The comparison tool's verdicts and exit status."""

import copy
import json

import compare
import run


def result(query_s, per_round, resolutions=100, failed=0):
    e2e = {
        name: {"value": 1.0, "unit": spec.unit, "samples": 30, "q1": 1.0,
               "q3": 1.0, "per_round": [1.0, 1.0, 1.0]}
        for name, spec in compare.END_TO_END.items()
    }
    e2e["query_s"].update(value=query_s, per_round=per_round)
    return {
        "seed": 1, "quick": False, "rounds": 3, "seconds": 4.0,
        "host": {"git_commit": "abc"},
        "workloads": {"tetris_preloaded_triangle": {
            "end_to_end": e2e, "error_rate": failed / 10, "attempted": 10,
            "failed": failed, "errors": [], "host_factor": [1.0, 1.1, 0.9],
            "per_layer": {
                "tetris.resolutions": {"value": resolutions, "unit": "count"},
                "tetris.run_s": {"value": 0.5, "unit": "s"},
            },
            "waterfall": {"operation_s": 1.0, "layers": {"tetris.run": 0.9},
                          "self_s": 0.1},
        }},
    }


def test_ok_worse_and_unresolved():
    base = result(1.0, [1.0, 1.01, 0.99])
    text, worse = compare.compare(base, result(1.05, [1.05, 1.04, 1.06]))
    assert worse == 0 and "  ok" in text and "ratio 1.050" in text
    text, worse = compare.compare(base, result(1.30, [1.3, 1.3, 1.3]))
    assert worse == 1 and "worse" in text
    text, worse = compare.compare(base, result(1.02, [0.7, 1.02, 1.4]))
    assert worse == 0 and "unresolved" in text


def test_counts_compare_exactly_and_failures_are_worse():
    base = result(1.0, [1.0, 1.0, 1.0])
    text, _ = compare.compare(base, copy.deepcopy(base))
    assert "same" in text
    text, _ = compare.compare(base, result(1.0, [1.0, 1.0, 1.0], resolutions=101))
    assert "DIFFERENT" in text
    _, worse = compare.compare(base, result(1.0, [1.0, 1.0, 1.0], failed=1))
    assert worse == 1


def test_exit_status(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result(1.0, [1.0, 1.0, 1.0])))
    b.write_text(json.dumps(result(2.0, [2.0, 2.0, 2.0])))
    assert run.main(["--compare", str(a), str(a)]) == 0
    assert run.main(["--compare", str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.render(result(1.0, [1.0, 1.0, 1.0]))
