"""End-to-end tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


@pytest.fixture
def triangle_csvs(tmp_path):
    (tmp_path / "r.csv").write_text("u,v\nu,w\nx,y\n")
    (tmp_path / "s.csv").write_text("v,z\ny,q\n")
    (tmp_path / "t.csv").write_text("u,z\n")
    return tmp_path


class TestJoinCommand:
    def test_join_outputs_tuples(self, triangle_csvs, capsys):
        rc = main([
            "join", "R(A,B), S(B,C), T(A,C)",
            "--csv", f"R={triangle_csvs / 'r.csv'}",
            "--csv", f"S={triangle_csvs / 's.csv'}",
            "--csv", f"T={triangle_csvs / 't.csv'}",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "u,v,z" in out

    def test_join_reloaded_variant(self, triangle_csvs, capsys):
        rc = main([
            "join", "R(A,B), S(B,C), T(A,C)",
            "--variant", "reloaded",
            "--csv", f"R={triangle_csvs / 'r.csv'}",
            "--csv", f"S={triangle_csvs / 's.csv'}",
            "--csv", f"T={triangle_csvs / 't.csv'}",
        ])
        assert rc == 0
        assert "u,v,z" in capsys.readouterr().out

    def test_join_bad_csv_flag(self, capsys):
        rc = main(["join", "R(A,B)", "--csv", "nopath"])
        assert rc == 2

    @pytest.mark.parametrize("algo", [
        "auto", "tetris-preloaded", "tetris-reloaded", "leapfrog", "hash",
        "nested-loop",
    ])
    def test_join_algorithm_selection(self, triangle_csvs, capsys, algo):
        rc = main([
            "join", "R(A,B), S(B,C), T(A,C)", "--algorithm", algo,
            "--csv", f"R={triangle_csvs / 'r.csv'}",
            "--csv", f"S={triangle_csvs / 's.csv'}",
            "--csv", f"T={triangle_csvs / 't.csv'}",
        ])
        assert rc == 0
        assert "u,v,z" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["btree", "dyadic", "kdtree"])
    def test_join_index_kind_and_gao(self, triangle_csvs, capsys, kind):
        rc = main([
            "join", "R(A,B), S(B,C), T(A,C)",
            "--algorithm", "tetris-preloaded",
            "--index-kind", kind, "--gao", "C,B,A",
            "--csv", f"R={triangle_csvs / 'r.csv'}",
            "--csv", f"S={triangle_csvs / 's.csv'}",
            "--csv", f"T={triangle_csvs / 't.csv'}",
        ])
        assert rc == 0
        assert "u,v,z" in capsys.readouterr().out

    def test_join_backend_reported(self, triangle_csvs, capsys):
        rc = main([
            "join", "R(A,B), S(B,C), T(A,C)", "--algorithm", "leapfrog",
            "--csv", f"R={triangle_csvs / 'r.csv'}",
            "--csv", f"S={triangle_csvs / 's.csv'}",
            "--csv", f"T={triangle_csvs / 't.csv'}",
        ])
        assert rc == 0
        assert "via leapfrog" in capsys.readouterr().err

    def test_join_inapplicable_backend_errors(self, triangle_csvs, capsys):
        rc = main([
            "join", "R(A,B), S(B,C), T(A,C)", "--algorithm", "yannakakis",
            "--csv", f"R={triangle_csvs / 'r.csv'}",
            "--csv", f"S={triangle_csvs / 's.csv'}",
            "--csv", f"T={triangle_csvs / 't.csv'}",
        ])
        assert rc == 2
        assert "not applicable" in capsys.readouterr().err


class TestTrianglesCommand:
    def test_counts_triangles(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("a b\nb c\na c\nc d\n")
        rc = main(["triangles", str(edges)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "a b c" in captured.out
        assert "1 triangles" in captured.err

    @pytest.mark.parametrize("algo", ["tetris", "leapfrog", "hash"])
    def test_algorithms_agree(self, tmp_path, capsys, algo):
        edges = tmp_path / "e.txt"
        edges.write_text("a b\nb c\na c\nb d\nc d\n")
        rc = main(["triangles", str(edges), "--algorithm", algo,
                   "--count-only"])
        assert rc == 0
        assert "2 triangles" in capsys.readouterr().err


class TestSatCommand:
    def test_count(self, tmp_path, capsys):
        f = tmp_path / "f.cnf"
        f.write_text("p cnf 3 2\n1 2 0\n-1 -2 0\n")
        rc = main(["sat", str(f)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_enumerate(self, tmp_path, capsys):
        f = tmp_path / "f.cnf"
        f.write_text("p cnf 2 2\n1 0\n-2 0\n")
        rc = main(["sat", str(f), "--enumerate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 -2" in out
        assert out.strip().endswith("1")

    def test_enumerate_reports_learned_clauses(self, tmp_path, capsys):
        """--enumerate threads stats: same learned-clause count as counting."""
        f = tmp_path / "f.cnf"
        # Needs actual resolution work, not just direct gap covers.
        f.write_text(
            "p cnf 3 4\n1 2 0\n-1 3 0\n-2 -3 0\n1 -3 0\n"
        )
        rc = main(["sat", str(f)])
        assert rc == 0
        count_err = capsys.readouterr().err
        rc = main(["sat", str(f), "--enumerate"])
        assert rc == 0
        enum_err = capsys.readouterr().err
        learned = [
            line.split("(")[-1]
            for line in (count_err, enum_err)
        ]
        assert learned[0] == learned[1]
        assert "0 learned clauses" not in enum_err


class TestAnalyzeCommand:
    def test_triangle_profile(self, capsys):
        rc = main(["analyze", "R(A,B), S(B,C), T(A,C)"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "α-acyclic    : False" in out
        assert "treewidth    : 2" in out
        assert "fhtw         : 1.5" in out
        assert "Õ(|C|^1.5 + Z)" in out

    def test_acyclic_profile(self, capsys):
        rc = main(["analyze", "R(A,B), S(B,C)"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "α-acyclic    : True" in out
        assert "Õ(N + Z)" in out
        assert "Õ(|C| + Z)" in out


class TestStartupImports:
    def test_import_pulls_in_no_heavy_module(self):
        """Every ``repro`` process pays for what ``import repro.cli``
        loads: the LPs are solved in-repo (no numpy/scipy), networkx is
        for the workload generators only, nothing serves HTTP, and the
        profiler, the exporter and ANALYZE load when a subcommand asks
        for them."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        heavy = (
            "numpy", "scipy", "networkx", "http.server",
            "repro.obs.profiler", "repro.obs.export", "repro.obs.analyze",
        )
        code = (
            "import repro.cli, sys; "
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=60,
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"
