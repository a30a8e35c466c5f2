"""The committed paper results are the ones this tree produces.

``benchmarks/paper.py`` writes ``PAPER_RESULTS.json`` and the README's
results table; these tests hold the three together without re-running
the whole sweep (CI's ``bench-smoke`` job does that): every row is
recorded and passes, its exponents are the fits of its own points, the
README table is the rendering of the file, and the cheapest rows
reproduce every committed count exactly.
"""

import json

import pytest

from benchmarks import paper

RESULTS = json.loads(paper.RESULTS.read_text())
ROWS = {r["id"]: r for r in RESULTS["rows"]}

#: Rows that run in milliseconds; a change to what they count must
#: re-run ``benchmarks/paper.py`` and commit the new table.
CHEAP = ("table1_agm_figure5", "table1_tww", "table1_tww_banded",
         "corollary_f8_klee", "parity_lb", "appb_decomposition",
         "ablation_sao", "balance_partition")


def _counts(value):
    """``value`` without its wall-clock fields."""
    if isinstance(value, dict):
        return {k: _counts(v) for k, v in value.items()
                if not k.endswith(("seconds", "us_per_resolution", "slowdown"))}
    if isinstance(value, list):
        return [_counts(v) for v in value]
    return value


def test_every_row_is_recorded_and_passes():
    assert list(ROWS) == [fn.__name__ for fn in paper.ROWS]
    assert [name for name, r in ROWS.items() if not r["pass"]] == []
    for r in ROWS.values():
        assert r["pass"] == all(r["checks"].values())
        for key, e in r["exponents"].items():
            assert paper.fit(r["points"], key) == e["measured"]


def test_readme_table_is_rendered_from_the_results():
    readme = paper.README.read_text()
    table = readme.split(paper.BEGIN, 1)[1].split(paper.END, 1)[0]
    assert table.strip() == paper.render(RESULTS)


@pytest.mark.parametrize("name", CHEAP)
def test_cheap_rows_reproduce_their_counts(name):
    fn = next(fn for fn in paper.ROWS if fn.__name__ == name)
    assert _counts({"id": name, **fn()}) == _counts(ROWS[name])
