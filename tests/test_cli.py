"""End-to-end tests for the command-line interface."""

import os
import signal
import subprocess
import sys

import pytest

import repro
from repro import config
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
            "--algorithm", "tetris-reloaded",
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

    @pytest.mark.parametrize("command", [
        ("join",), ("explain",), ("metrics",),
    ], ids=" ".join)
    def test_csv_must_name_each_query_relation_once(
        self, triangle_csvs, capsys, command
    ):
        r, s = triangle_csvs / "r.csv", triangle_csvs / "s.csv"
        rc = main([
            *command, "R(A,B), S(B,C)",
            "--csv", f"R={r}", "--csv", f"S={s}", "--csv", f"Q={s}",
        ])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert "no relation Q" in captured.err
        rc = main([
            *command, "R(A,B), S(B,C)",
            "--csv", f"R={r}", "--csv", f"S={s}", "--csv", f"R={s}",
        ])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert "relation R twice" in captured.err

    def test_join_output_is_the_decoded_rows(self, triangle_csvs, capsys):
        """Block decode + block write print what row-at-a-time printed."""
        big = triangle_csvs / "big.csv"
        big.write_text("".join(f"k{i % 3},v{i}\n" for i in range(9000)))
        keys = triangle_csvs / "keys.csv"
        keys.write_text("k0\nk1\nk2\n")
        rc = main([
            "join", "K(A), R(A,B)", "--delimiter", ",",
            "--csv", f"K={keys}", "--csv", f"R={big}",
        ])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["# query: K(A) ⋈ R(A, B)", "# variables: A, B"]
        assert len(out) == 2 + 9000  # more than two write blocks
        assert sorted(out[2:]) == sorted(
            f"k{i % 3},v{i}" for i in range(9000)
        )

    def test_unknown_index_kind_exits_2(self, triangle_csvs, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "explain", "R(A,B)", "--index-kind", "bogus",
                "--csv", f"R={triangle_csvs / 'r.csv'}",
            ])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_join_variant_flag_is_gone(self, triangle_csvs, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "join", "R(A,B)", "--variant", "reloaded",
                "--csv", f"R={triangle_csvs / 'r.csv'}",
            ])
        assert exc.value.code == 2
        assert "--variant" in capsys.readouterr().err


def _child_env():
    """The environment of a child interpreter that imports this tree."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return dict(os.environ, PYTHONPATH=src)


class TestClosedPipe:
    def test_reader_that_stops_early_is_not_an_error(self, tmp_path):
        """``repro join ... | head -1``: exit 0, no traceback."""
        path = tmp_path / "r.csv"
        # Far more output than a pipe buffers, so the write must fail.
        path.write_text("".join(f"u{i},v{i}\n" for i in range(40000)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "join", "R(A,B)",
             "--csv", f"R={path}"],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"# query: R(A, B)\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert all(line.startswith("#") for line in err.splitlines()), err


class TestDeadline:
    """Every query-running subcommand meets a passed ``--timeout-ms``
    the same way: the error and the partial run on stderr, status 3."""

    @pytest.fixture
    def hung_shard(self, tmp_path, monkeypatch):
        """Triangle CSVs plus a worker that hangs on the heaviest shard
        (armed the way ``tests/parallel/test_faults.py::TestHangs`` does)."""
        from repro.engine import clear_plan_cache, plan_query
        from repro.parallel import faults, shutdown_pools
        from repro.parallel.merge import prepare_jobs
        from repro.relational.io import database_from_csvs, parse_query
        from repro.workloads.generators import random_graph_edges

        edges = random_graph_edges(40, 100, seed=7)
        edges += [(b, a) for a, b in edges]
        path = tmp_path / "e.csv"
        path.write_text("".join(f"{a},{b}\n" for a, b in edges))
        text = "R(A,B), S(B,C), T(A,C)"
        csvs = [f"--csv={name}={path}" for name in "RST"]
        query = parse_query(text)
        db, _ = database_from_csvs(query, dict.fromkeys("RST", str(path)))
        plan = plan_query(query, db, algorithm="hash", workers=2)
        _, jobs, _ = prepare_jobs(query, db, plan)
        victim = max(jobs, key=lambda j: j.weight).shard_id
        shutdown_pools()
        clear_plan_cache()
        monkeypatch.setenv(config.FAULTS.name, f"hang@{victim}")
        faults.reset()

        def boom(signum, frame):  # pragma: no cover - only on regression
            raise TimeoutError("the deadline was ignored: 60s backstop")

        # A subcommand that drops --timeout-ms would wait on the hung
        # worker forever; fail instead of wedging the suite.
        old = signal.signal(signal.SIGALRM, boom)
        signal.alarm(60)
        yield [
            text, *csvs, "--algorithm", "hash", "--workers", "2",
            "--timeout-ms", "300",
        ]
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        monkeypatch.delenv(config.FAULTS.name)
        faults.reset()
        shutdown_pools()

    @pytest.mark.parametrize("command", [
        ("join",),
        ("explain", "--execute"),
        ("explain", "--analyze"),
        ("metrics",),
    ], ids=" ".join)
    def test_deadline_exits_3_with_partial_summary(
        self, hung_shard, command, capsys
    ):
        rc = main([command[0], *hung_shard, *command[1:]])
        err = capsys.readouterr().err
        assert rc == 3
        assert "error:" in err
        assert "# partial:" in err
        assert "TIMED OUT" in err
        assert "Traceback" not in err


class TestBadInput:
    """Bad input exits 2 with one ``error:`` line in every subcommand."""

    @pytest.mark.parametrize("argv", [
        ("join", "R(A,B)", "--csv", "R=missing.csv"),
        ("sat", "missing.cnf"),
        ("sat", "bad.cnf"),
        ("triangles", "missing.txt"),
        ("triangles", "bad.txt"),
        ("analyze", "R(A,B),,S(B)"),
    ], ids=" ".join)
    def test_exits_2_without_a_traceback(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        (tmp_path / "bad.cnf").write_text("p cnf 2 1\n1 x 0\n")
        (tmp_path / "bad.txt").write_text("1 2\n3\n")
        monkeypatch.chdir(tmp_path)
        rc = main(list(argv))
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, text, message", [
        (("sat", "bad.cnf"), "p cnf 2 1\n1 x 0\n", "bad.cnf:2: bad literal 'x'"),
        (("sat", "bad.cnf"), "p cnf 2 x\n",
         "bad.cnf:1: malformed problem line: 'p cnf 2 x'"),
        (("triangles", "bad.txt"), "1 2\n3\n",
         "bad.txt:2: malformed edge line: '3'"),
    ], ids=["sat-token", "sat-problem-line", "triangles-edge"])
    def test_parse_errors_name_file_and_line(
        self, tmp_path, monkeypatch, capsys, argv, text, message
    ):
        (tmp_path / argv[1]).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("repeat", ["0", "-3"])
    def test_metrics_repeat_must_be_positive(
        self, triangle_csvs, capsys, repeat
    ):
        rc = main([
            "metrics", "R(A,B)", "--csv", f"R={triangle_csvs / 'r.csv'}",
            "--repeat", repeat,
        ])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (
            f"error: --repeat must be at least 1, got {repeat}\n"
        )


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


class TestExplainCommand:
    @pytest.mark.parametrize("extra", [(), ("--execute",)])
    def test_trace_out_needs_analyze(
        self, triangle_csvs, capsys, extra
    ):
        """Only ``--analyze`` traces its query: asked for a trace without
        it, ``explain`` refuses instead of quietly writing nothing."""
        trace = triangle_csvs / "trace.json"
        rc = main([
            "explain", "R(A,B), S(B,C), T(A,C)",
            "--csv", f"R={triangle_csvs / 'r.csv'}",
            "--csv", f"S={triangle_csvs / 's.csv'}",
            "--csv", f"T={triangle_csvs / 't.csv'}",
            "--trace-out", str(trace), *extra,
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --trace-out needs --analyze\n"
        assert captured.out == ""
        assert not trace.exists()


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
    @staticmethod
    def _loaded(code, candidates):
        """Which of ``candidates`` a fresh interpreter holds after ``code``."""
        code = (
            f"import sys; {code}; print("
            f"[m for m in {candidates!r} if m in sys.modules], "
            "file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), timeout=60,
            capture_output=True, text=True, check=True,
        )
        return proc.stderr.splitlines()[-1]

    def test_import_pulls_in_no_heavy_module(self):
        """Every ``repro`` process pays for what ``import repro.cli``
        loads: the LPs are solved in-repo (no numpy/scipy), nothing
        serves HTTP, and the exporter and ANALYZE load when a
        subcommand asks for them."""
        heavy = (
            "numpy", "scipy", "http.server",
            "repro.obs.export", "repro.obs.analyze",
        )
        assert self._loaded("import repro", heavy) == "[]"
        assert self._loaded("import repro.cli", heavy) == "[]"

    def test_serial_join_never_loads_the_parallel_subsystem(
        self, triangle_csvs
    ):
        """A plan that runs in this process pays for no worker pool:
        the errors the CLI catches live in ``repro.errors``."""
        argv = ["join", "R(A,B), S(B,C), T(A,C)"] + [
            f"--csv={name}={triangle_csvs / name.lower()}.csv"
            for name in "RST"
        ]
        code = f"from repro.cli import main; assert main({argv!r}) == 0"
        assert self._loaded(
            code, ("repro.parallel", "multiprocessing")
        ) == "[]"

    def test_hash_join_loads_no_tetris_index_or_explain_module(
        self, triangle_csvs
    ):
        """The package namespaces export lazily, so a hash join loads
        the modules it runs and not the Tetris machinery, the gap
        indexes, EXPLAIN's renderers or the JSON writer."""
        argv = ["join", "R(A,B), S(B,C), T(A,C)", "--algorithm", "hash"] + [
            f"--csv={name}={triangle_csvs / name.lower()}.csv"
            for name in "RST"
        ]
        code = f"from repro.cli import main; assert main({argv!r}) == 0"
        unused = (
            "repro.core.tetris", "repro.core.dyadic_tree", "repro.indexes",
            "repro.joins.tetris_join", "repro.engine.explain", "json",
        )
        assert self._loaded(code, unused) == "[]"

    def test_lazy_exports_resolve(self):
        """Every name a package exports, and every ``from repro… import``
        in the benchmarks, examples and tests, resolves."""
        import ast
        import importlib
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        for package in (
            "repro", "repro.core", "repro.engine", "repro.indexes",
            "repro.joins",
        ):
            module = importlib.import_module(package)
            for name in module.__all__:
                assert getattr(module, name) is not None, (package, name)
            with pytest.raises(AttributeError, match="no attribute"):
                getattr(module, "no_such_name")
        files = [
            path for top in ("benchmarks", "examples", "tests")
            for path in (root / top).rglob("*.py")
        ]
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.ImportFrom) and node.module
                        and node.module.split(".")[0] == "repro"):
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        importlib.import_module(f"{node.module}.{alias.name}")

    def test_parallel_reexports_the_same_errors(self):
        import repro.errors
        import repro.parallel
        import repro.parallel.scheduler as scheduler

        for name in ("QueryTimeout", "WorkerError"):
            leaf = getattr(repro.errors, name)
            assert getattr(repro.parallel, name) is leaf
            assert getattr(scheduler, name) is leaf
