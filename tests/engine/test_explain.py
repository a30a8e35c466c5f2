"""EXPLAIN rendering tests, including the CLI golden output."""

import textwrap

import pytest

from repro.cli import main
from repro.engine import clear_plan_cache, execute, explain_text, plan_query
from repro.workloads.generators import split_path_instance

#: The frozen `repro explain` output for a two-atom path under assumed
#: uniform statistics.  Every quantity is exact integer arithmetic (64 is
#: a power of two, so even the AGM LP result rounds cleanly and every
#: leapfrog seek depth is a whole log₂); the fractional constants (1.7,
#: the 0.15 sort charge on 64·log₂64) survive the 4-digit formatting,
#: which keeps the golden stable across platforms.  The two candidates
#: are the backends ``auto`` prices; the Tetris pair, nested-loop and
#: Yannakakis are forced-only and have no line.
GOLDEN = textwrap.dedent("""\
    # query: R(A, B) ⋈ S(B, C)
    EXPLAIN
    ├─ structure
    │   ├─ α-acyclic   : True
    │   ├─ treewidth   : 1
    │   ├─ fhtw ≤      : 1
    │   ├─ GAO         : A, B, C  (sort: none)
    │   └─ Table 1 row : α-acyclic: Õ(N + Z) [Yannakakis / Thm D.8]
    ├─ statistics [assumed (no data)]
    │   ├─ N = 128 tuples over 2 relations, domain depth 6
    │   ├─ R: |R|=64  d(A)=64, d(B)=64
    │   ├─ S: |S|=64  d(B)=64, d(C)=64
    │   └─ Ẑ ≈ 64  (AGM 4096, independence 64)
    ├─ candidates
    │   ├─ hash      cost≈       312  N + Σ intermediates ≈ 312  + sort 0  [GAO A, B, C: emits in output order] ◀
    │   └─ leapfrog  cost≈     900.8  Õ(N + Σ level candidates) ≈ 496 (AGM 4096)  + sort 57.6  [GAO B, C, A]
    └─ plan: hash  (index btree; predicted cost 312)
""")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def test_explain_golden_output(capsys):
    rc = main(["explain", "R(A,B), S(B,C)", "--assume-rows", "64"])
    assert rc == 0
    assert capsys.readouterr().out == GOLDEN


def test_explain_marks_the_output_order_gao(capsys):
    """A star's leapfrog and hash candidates are priced binding
    ``query.variables`` in order: each line names that GAO, says so, and
    carries a zero sort term (the golden's leapfrog, under another GAO,
    carries a positive one).  The plan's GAO line is the hash binding
    order."""
    rc = main([
        "explain", "R(H,A), S(H,B), T(H,C)", "--assume-rows", "4096",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    for backend in ("leapfrog", "hash"):
        line = next(l for l in lines if f"─ {backend} " in l)
        assert line.removesuffix(" ◀").endswith(
            "+ sort 0  [GAO H, A, B, C: emits in output order]"
        ), backend
    assert "│   ├─ GAO         : H, A, B, C  (sort: none)" in lines


def test_explain_prints_the_hash_binding_order(capsys):
    """A hash plan's GAO line is the order its cascade binds variables,
    not the structural GAO it never runs, and says when nothing sorts."""
    rc = main(["explain", "R(A,B), S(B,C), T(A,C)", "--algorithm", "hash"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "│   ├─ GAO         : A, B, C  (sort: none)" in lines
    rc = main(["explain", "R(A,B), S(B,C)", "--algorithm", "yannakakis"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "│   ├─ GAO         : B, C, A" in lines


def test_explain_with_data_and_execute(tmp_path, capsys):
    (tmp_path / "r.csv").write_text("u,v\nu,w\nx,y\n")
    (tmp_path / "s.csv").write_text("v,z\ny,q\n")
    rc = main([
        "explain", "R(A,B), S(B,C)", "--execute",
        "--csv", f"R={tmp_path / 'r.csv'}",
        "--csv", f"S={tmp_path / 's.csv'}",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "statistics [measured]" in out
    assert "execution" in out
    assert "tuples      : 2" in out  # (u,v,z) and (x,y,q)


def test_explain_execute_without_data_fails(capsys):
    rc = main(["explain", "R(A,B)", "--execute"])
    assert rc == 2
    assert "needs --csv" in capsys.readouterr().err


def test_explain_inapplicable_backend_clean_error(capsys):
    rc = main([
        "explain", "R(A,B), S(B,C), T(A,C)", "--algorithm", "yannakakis",
    ])
    assert rc == 2
    assert "not applicable" in capsys.readouterr().err


def test_cache_hit_is_visible():
    query, db, _ = split_path_instance(40, depth=8, seed=1)
    plan_query(query, db)
    cached = plan_query(query, db)
    assert "cached plan" in explain_text(cached)


def test_execution_section_reports_predicted_vs_actual():
    query, db, _ = split_path_instance(40, depth=8, seed=1)
    result = execute(query, db)
    text = explain_text(result.plan, result)
    assert "wall time" in text
    assert f"tuples      : {len(result.tuples)}" in text
