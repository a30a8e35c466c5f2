"""One path per algorithm: the selectors that chose between twins are gone.

Leapfrog, hash and Tetris resume mode run their generated kernel and
nothing else, whatever the engine's shape.  This fence keeps a
``compiled=`` / ``one_pass=``
keyword, a third traversal mode or a frozen ``benchmarks/_*.py`` copy
from coming back — and the serving-era telemetry surfaces with their
``REPRO_*`` knobs, a second benchmark, a committed ``BENCH_*.json`` or
a third-party import.  One way in: a backend is one function, declared
in one table, entered from one place by front doors that take exactly
what callers pass.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro
import repro.core
import repro.core.intervals
import repro.core.tetris
import repro.engine
import repro.joins
import repro.joins.tetris_join
import repro.obs
from repro import config
from repro.cli import build_parser
from repro.engine import (
    ALGORITHM_ALIASES,
    BACKEND_TABLE,
    BACKENDS,
    DEFAULT_CALIBRATION,
    BackendSpec,
    CostModel,
    clear_kernel_caches,
    execute,
    execute_cursor,
    plan_query,
)

REMOVED_SELECTORS = {"compiled", "one_pass", "mode"}

ROOT = Path(__file__).resolve().parent.parent

#: Every environment variable the program reads, as ``repro.config``
#: declares them; a third needs two callers that want different values
#: (and a README row).  There is no shared-memory switch: the arena
#: reserves a segment's pages before writing them, so a ``/dev/shm`` too
#: small for one falls back to the pickle wire by itself.  There is no
#: metrics switch: the registry is on, and only a benchmark turns it off
#: (``set_enabled``).
KNOBS = {"REPRO_SHARD_TIMEOUT_MS", "REPRO_FAULTS"}

#: What ``execute`` / ``execute_cursor`` take, in order.  Anything else
#: a plan is made from goes through ``plan_query`` and arrives as
#: ``plan=``.
FRONT_DOOR = (
    "query", "db", "algorithm", "index_kind", "gao", "plan", "workers",
    "limit", "decode", "timeout_ms",
)


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj):
            continue
        yield f"{module.__name__}.{name}", obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_no_path_selector_on_the_public_api():
    modules = [repro, repro.joins, repro.core.tetris] + [
        importlib.import_module(f"repro.joins.{info.name}")
        for info in pkgutil.iter_modules(repro.joins.__path__)
    ]
    checked = 0
    for module in modules:
        for where, fn in _public_callables(module):
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):  # no introspectable signature
                continue
            checked += 1
            assert not REMOVED_SELECTORS & set(params), where
    assert checked > 50


def test_no_frozen_baseline_modules_in_benchmarks():
    """One benchmark and one results table beside it: no frozen ``_*.py``
    copy, no script racing backends, no committed ``BENCH_*.json``
    record; the paper's results are ``paper.py``'s one JSON file."""
    held = {
        p.name for p in (ROOT / "benchmarks").iterdir()
        if not p.name.startswith((".", "__pycache__"))
    }
    assert held == {"e2e", "paper.py"}
    assert sorted(p.name for p in ROOT.glob("BENCH_*.json")) == []
    assert sorted(p.name for p in ROOT.glob("*.json")) == [
        "BENCHMARK.json", "PAPER_RESULTS.json"]


def test_runtime_is_standard_library_only():
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "repro" or top in sys.stdlib_module_names, (
                    f"{path}: import {name}"
                )
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r"^dependencies\s*=\s*(.*)$", pyproject, re.M) == ["[]"]


def test_knobs_are_the_documented_set():
    in_src = set()
    for path in (ROOT / "src").rglob("*.py"):
        in_src |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    readme = (ROOT / "README.md").read_text()
    table = readme.split("### Environment variables", 1)[1]
    table = table.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \| .+ \| (.+) \|$", table, re.M)
    assert set(config.KNOBS) == in_src == set(dict(rows)) == KNOBS
    assert len(config.KNOBS) == 2
    shm = importlib.import_module("repro.parallel.shm")
    assert not hasattr(shm, "shm_enabled")
    # The README's effect column is each knob's declared doc.
    assert dict(rows) == {k.name: k.doc for k in config.KNOBS.values()}
    submodules = {m.name for m in pkgutil.iter_modules(repro.obs.__path__)}
    assert not {"flight", "slowlog", "calibration"} & submodules


def _metrics_a_run_emits(monkeypatch):
    """``(name, kind)`` of everything handed to the registry, zero deltas
    included, over every backend serially, hash on two workers and one
    ``analyze()`` — plus what one snapshot's collectors report."""
    from repro.obs.analyze import analyze
    from repro.obs.metrics import REGISTRY
    from repro.parallel import clear_job_cache, shm, shutdown_pools
    from repro.workloads.generators import random_path_db

    emitted = set()

    def record(method, kind):
        real = getattr(REGISTRY, method)

        def recording(first, *rest):
            names = [first] if isinstance(first, str) else list(first)
            emitted.update((name, kind) for name in names)
            return real(first, *rest)

        monkeypatch.setattr(REGISTRY, method, recording)

    for method, kind in (
        ("inc", "counter"), ("inc_many", "counter"), ("gauge", "gauge"),
        ("observe", "histogram"), ("merge_hist", "histogram"),
    ):
        record(method, kind)
    # Every relation ships through shared memory, so the attach
    # histogram is fed too.
    monkeypatch.setattr(shm, "MIN_BYTES", 0)
    clear_job_cache()
    query, db = random_path_db(3, 200, seed=1)
    try:
        for backend in BACKENDS:
            execute(query, db, algorithm=backend)
        execute(query, db, algorithm="hash", workers=2)
        analyze(query, db)
    finally:
        shutdown_pools()
        clear_job_cache()
    snap = REGISTRY.snapshot()
    emitted.update(
        (name, snap.kind_of(name)) for name in snap
        if snap.kind_of(name) != "histogram"
    )
    emitted.update((name, "histogram") for name, _ in snap.hist_items())
    return emitted


def test_metrics_are_declared_once(monkeypatch):
    """Every metric the engine emits is one ``CATALOGUE`` entry of the
    kind it is emitted as, every entry is emitted, and the README's
    metrics table has one row per namespace covering exactly them."""
    from fnmatch import fnmatch

    from repro.obs.metrics import CATALOGUE, declaring

    emitted = _metrics_a_run_emits(monkeypatch)
    undeclared = sorted(name for name, _ in emitted if not declaring(name))
    assert undeclared == []
    miskinded = sorted(
        (name, kind) for name, kind in emitted
        if CATALOGUE[declaring(name)][0] != kind
    )
    assert miskinded == []
    unemitted = set(CATALOGUE) - {declaring(name) for name, _ in emitted}
    assert sorted(unemitted) == []

    readme = (ROOT / "README.md").read_text()
    table = readme.split("**Metrics.**", 1)[1].split("\n\n", 2)[1]
    rows = [
        re.findall(r"`([^`]+)`", line.split(" | ")[0])
        for line in table.splitlines()[2:]
    ]
    namespaces = [{p.split(".")[0] for p in row} for row in rows]
    assert all(len(ns) == 1 for ns in namespaces), rows
    assert len(set(map(frozenset, namespaces))) == len(rows)
    patterns = [p for row in rows for p in row]
    unmatched = [
        p for p in patterns if not any(fnmatch(n, p) for n in CATALOGUE)
    ]
    uncovered = [
        n for n in CATALOGUE if not any(fnmatch(n, p) for p in patterns)
    ]
    assert unmatched == [] and uncovered == []


def test_only_config_reads_the_environment():
    for path in (ROOT / "src").rglob("*.py"):
        if path.name == "config.py" and path.parent.name == "repro":
            continue
        text = path.read_text()
        assert not re.search(r"\benviron\b|\bgetenv\b", text), path


def test_no_cli_option_duplicates_a_knob():
    """``--no-shm`` was a second spelling of a since-deleted pickle-wire
    switch, and ``calibrate`` refit the cost constants from a log that
    ``explain --analyze`` appended to in the working directory."""
    subparsers = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: {o for a in sub._actions for o in a.option_strings}
        for name, sub in subparsers.choices.items()
    }
    assert "calibrate" not in subparsers.choices
    assert all("--no-shm" not in opts for opts in options.values())


def test_planning_reads_nothing_from_the_working_directory(
    tmp_path, monkeypatch
):
    """A ``.repro/calibration.json`` in cwd — however absurd — changes
    neither the prices nor the plan."""
    from repro.workloads.generators import graph_triangle_db, random_graph_edges

    query, db = graph_triangle_db(random_graph_edges(30, 80, seed=21))
    monkeypatch.chdir(tmp_path)
    before = plan_query(query, db, use_cache=False)
    absurd = {b: 1e-9 for b in BACKENDS}
    absurd[before.backend] = 1e9
    (tmp_path / ".repro").mkdir()
    (tmp_path / ".repro" / "calibration.json").write_text(
        json.dumps({"calibration": absurd, "unit_seconds": 1e3})
    )
    after = plan_query(query, db, use_cache=False)
    assert after.backend == before.backend
    assert after.candidates == before.candidates


def test_explain_analyze_writes_nothing(tmp_path, monkeypatch, capsys):
    """EXPLAIN ANALYZE measures a plan against its prediction and
    leaves the working directory as it found it."""
    from repro.cli import main

    (tmp_path / "r.csv").write_text("a,1\na,2\nb,2\n")
    (tmp_path / "s.csv").write_text("1,x\n2,y\n")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    argv = ["explain", "R(A,B), S(B,C)", "--csv", "R=r.csv",
            "--csv", "S=s.csv", "--analyze"]
    assert main(argv) == 0
    assert "├─ cost        : actual" in capsys.readouterr().out
    assert sorted(tmp_path.iterdir()) == before


#: The README's length in lines.  A change that adds a paragraph raises
#: it; a change that deletes behaviour cuts the paragraphs describing it.
README_LINES = 514


def test_readme_length_is_fenced():
    text = (ROOT / "README.md").read_text()
    assert text.count("\n") <= README_LINES


def test_backend_table_is_the_documented_set():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("### Backends", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^\| `([a-z-]+)` \| (.+) \|$", table, re.M)
    assert documented == [
        (name, spec.description) for name, spec in BACKEND_TABLE.items()
    ]


def test_a_backend_is_one_function():
    fields = [f.name for f in dataclasses.fields(BackendSpec)]
    assert fields == ["name", "run", "description", "requires_acyclic"]
    assert not hasattr(repro.engine, "register_backend")
    assert not hasattr(repro.engine, "registered_backends")
    assert not hasattr(repro.joins.tetris_join, "iter_tetris")
    workers = (ROOT / "src/repro/parallel/workers.py").read_text()
    assert "runner" not in workers and "streamer" not in workers


def test_front_doors_take_what_callers_pass():
    for fn in (execute, execute_cursor):
        params = inspect.signature(fn).parameters
        assert tuple(params) == FRONT_DOOR, fn.__name__
        kinds = {p.kind for p in params.values()}
        assert kinds == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


def _algorithm_choices(parser):
    """``--algorithm``'s choices on every subcommand that has the flag."""
    subparsers = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: action.choices
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if "--algorithm" in action.option_strings
    }


def test_backends_are_declared_once():
    assert tuple(BACKEND_TABLE) == BACKENDS
    assert all(name == spec.name for name, spec in BACKEND_TABLE.items())
    assert set(DEFAULT_CALIBRATION) <= set(BACKEND_TABLE)
    assert set(ALGORITHM_ALIASES.values()) == set(BACKEND_TABLE) | {"auto"}
    assert len(ALGORITHM_ALIASES) == 8
    choices = _algorithm_choices(build_parser())
    assert set(choices) == {"join", "explain", "metrics", "triangles"}
    for command, offered in choices.items():
        assert list(offered) == sorted(ALGORITHM_ALIASES), command


#: The backends ``auto`` prices, in tie-break order.  A third candidate
#: needs a benchmark plan that picks it: over the 507 plans of the six
#: e2e workloads (seeds 1–3) ``auto`` picks hash every time, and leapfrog
#: keeps its place on ``path2_split_cert``.  The Tetris pair trails warm
#: leapfrog under the same GAO even on the O(1)-certificate split path
#: and cycle.  A backend that never wins is forced-only.
AUTO_CANDIDATES = ("hash", "leapfrog")


def test_auto_prices_only_what_it_can_pick():
    """Every backend stays reachable by name, but only the two
    candidates are priced: a forced-only plan carries no price, serial
    or sharded."""
    from repro.engine.cost import CANDIDATES
    from repro.workloads.generators import chained_path_db

    assert CANDIDATES == tuple(DEFAULT_CALIBRATION) == AUTO_CANDIDATES
    assert all(ALGORITHM_ALIASES[name] == name for name in BACKEND_TABLE)
    query, db = chained_path_db(3, 60, depth=6)
    plan = plan_query(query, db, use_cache=False)
    assert tuple(c.backend for c in plan.candidates) == AUTO_CANDIDATES
    forced_only = [b for b in BACKEND_TABLE if b not in AUTO_CANDIDATES]
    assert forced_only == [
        "yannakakis", "tetris-reloaded", "tetris-preloaded", "nested-loop",
    ]
    for backend in forced_only:
        for workers in (None, 2):
            forced = plan_query(
                query, db, algorithm=backend, workers=workers,
                use_cache=False,
            )
            assert forced.backend == backend
            assert forced.predicted_cost is None
            assert forced.chosen.quantity is None
            assert forced.chosen not in forced.candidates
            assert (forced.num_shards > 1) == (workers is not None)


def test_yannakakis_acyclicity_is_checked_in_one_place(monkeypatch):
    """``BackendSpec.requires_acyclic`` is the rule: the planner refuses
    a cyclic query for the flag alone, and the cost model knows nothing
    of it."""
    from repro.workloads.generators import graph_triangle_db, random_graph_edges

    query, db = graph_triangle_db(random_graph_edges(20, 40, seed=3))
    with pytest.raises(ValueError, match="not applicable"):
        plan_query(query, db, algorithm="yannakakis", use_cache=False)
    relaxed = dataclasses.replace(
        BACKEND_TABLE["yannakakis"], requires_acyclic=False
    )
    monkeypatch.setitem(BACKEND_TABLE, "yannakakis", relaxed)
    plan = plan_query(query, db, algorithm="yannakakis", use_cache=False)
    assert plan.backend == "yannakakis"
    cost_source = (ROOT / "src/repro/engine/cost.py").read_text()
    assert "yannakakis" not in cost_source.split('"""', 2)[2]


def test_rows_leave_the_join_kernels_in_blocks_only():
    """No generated leapfrog / hash kernel yields a row: the block is
    the only unit that crosses a kernel's frame, and the interpreted
    probe pipeline Yannakakis used to run is gone with its module."""
    from repro.engine.codegen import hash_kernel, leapfrog_kernel
    from repro.relational.query import (
        clique_query,
        cycle_query,
        path_query,
        star_query,
        triangle_query,
    )

    sources = []
    for query in (
        triangle_query(), path_query(3), star_query(4), cycle_query(4),
        clique_query(4),
    ):
        specs = [(a.name, a.attrs) for a in query.atoms]
        sources.append(hash_kernel(specs, query.variables).source)
        sources.append(hash_kernel(specs[::-1], query.variables).source)
        for gao in (query.variables, query.variables[::-1]):
            sources.append(leapfrog_kernel(query, gao).source)
    for source in sources:
        assert "yield (" not in source, source
        assert re.findall(r"yield (\w+)", source) in (
            ["out", "out"], ["block"]
        ), source
    submodules = {m.name for m in pkgutil.iter_modules(repro.joins.__path__)}
    assert "pipeline" not in submodules


def test_auto_compiles_block_kernels_that_intersect():
    """The kernels ``auto`` compiles for a star and a triangle: star4's
    rays are one ``itertools.product`` per hub value in the family its
    backend names, no leapfrog / hash kernel yields a row, and the
    triangle's hash kernel binds its last attribute from a set
    intersection instead of probing the third atom."""
    import random

    from repro.engine.codegen import _HASH_CACHE, _LEAPFROG_CACHE
    from repro.relational.query import star_query
    from repro.workloads.generators import (
        db_from_tuples,
        graph_triangle_db,
        random_graph_edges,
    )

    rng = random.Random(1)
    star = star_query(4)
    star_db = db_from_tuples(star, {
        atom.name: sorted({(rng.randrange(128), rng.randrange(128))
                           for _ in range(500)})
        for atom in star.atoms
    }, 7)
    triangle, triangle_db = graph_triangle_db(random_graph_edges(150, 800, 1))
    family = {"leapfrog": _LEAPFROG_CACHE, "hash": _HASH_CACHE}
    clear_kernel_caches()
    result = execute(star, star_db)
    (star_source,) = family[result.backend].cached_sources()
    assert "product(" in star_source, "star4 lost its product fringe"
    execute(triangle, triangle_db)
    execute(triangle, triangle_db, algorithm="hash")
    sources = _LEAPFROG_CACHE.cached_sources() + _HASH_CACHE.cached_sources()
    assert not any("yield (" in s for s in sources), "a kernel yields per row"
    triangle_source = _HASH_CACHE.cached_sources()[-1]
    assert "for c1 in [g1(x0[1], F) & h2(x0[0], F)]" in triangle_source


def test_reloaded_asks_about_boxes_only():
    """Tetris-Reloaded has one oracle question, ``container(box)``: the
    point-probe scaffolding it replaced is gone, not kept beside it, and
    so are the restart-per-output loop and the store's all-containers
    query only that loop asked."""
    deleted = (
        "containing_many", "_oracle_lookup_many", "find_all_containers_many",
        "find_shallowest_container", "emit_corner", "emit_oracle_lookup",
        "prefetch", "find_all_containers", "_run_restarting", "def skeleton",
        "_oracle_lookup", "MODES",
    )
    for path in (ROOT / "src").rglob("*.py"):
        text = path.read_text()
        for name in deleted:
            assert name not in text, f"{name} in {path}"


def test_a_dyadic_interval_is_one_int():
    """One encoding of an interval and one box type: the ``(value,
    length)`` pair form, its converters and its ``Box`` / ``Space``
    wrappers are gone, and a pair-form box is refused at the boundary."""
    for name in (
        "Interval", "LAMBDA", "make", "pack_box", "unpack_box",
        "decompose_range",
    ):
        assert not hasattr(repro.core.intervals, name), name
    for module in (repro, repro.core):
        for name in ("Box", "Space", "resolve"):
            assert not hasattr(module, name), (module.__name__, name)
    with pytest.raises(TypeError, match="packed"):
        repro.core.tetris.solve_bcp([((0, 1), (0, 0))], 2, 2)


def test_the_knowledge_base_is_a_store():
    """A store is probes plus writers.  The resume loop's traversal
    frontier lives in the loop (interpreted and generated alike), so no
    frontier object, hook or mutation counter is left on a store."""
    from repro.core.dyadic_tree import MultilevelDyadicTree
    from repro.core.stores import ListStore

    for path in (ROOT / "src").rglob("*.py"):
        text = path.read_text()
        for name in (
            "TraversalFrontier", "attach_frontier", "detach_frontier",
            "sync_and_probe",
        ):
            assert name not in text, f"{name} in {path}"
    for store in (MultilevelDyadicTree(2), ListStore(2)):
        assert store.add((2, 3)) and not hasattr(store, "discard")
        assert not hasattr(store, "version"), type(store).__name__


def test_a_failed_shard_runs_in_the_parent():
    """One recovery rule: a shard its worker fails runs in the parent
    and is never dealt again.  No retry count, respawn budget or
    degraded mode is left, and no shard fault counts attempts."""
    from repro.parallel import faults
    from repro.parallel.scheduler import _InFlight
    from repro.parallel.workers import ShardTask

    for path in (ROOT / "src").rglob("*.py"):
        text = path.read_text()
        for name in (
            "SHARD_RETRY_LIMIT", "shard_retries", "parallel.faults.retries",
            "shard.retry", "respawn_budget", "respawns_used", "spare_job",
            "degraded mode", "degraded = ",
        ):
            assert name not in text, f"{name} in {path}"
    for cls in (ShardTask, _InFlight):
        assert "attempt" not in {f.name for f in dataclasses.fields(cls)}
    assert "attempt" not in inspect.signature(faults.maybe_fire).parameters
    with pytest.raises(ValueError, match=config.FAULTS.name):
        faults.parse_faults("crash@3*2")


def test_planner_options_have_callers():
    """The shm pricing switch had no caller outside the tests: parallel
    plans are priced for the shared-memory plane, the one wire."""
    assert "shm" not in inspect.signature(CostModel).parameters


#: Where a join query becomes a ``TetrisEngine``: the backend table's
#: ``join_tetris`` builds it with ``tetris_engine``, and nothing else
#: under these packages does.
TETRIS_PACKAGES = ("engine", "joins", "obs")
TETRIS_BUILDER = Path("joins") / "tetris_join.py"


def test_a_join_reaches_tetris_through_the_backend_table():
    """The planner's certificate probe (a budgeted Tetris-Reloaded run
    under the data-blind GAO, which changed no benchmark plan) and the
    Tetris-only ``join_count`` / ``join_exists`` are gone: a join runs
    Tetris as a backend, and counts through ``count_rows`` /
    ``any_rows``."""
    from repro.cli import main
    from repro.engine import collect_stats
    from repro.obs.analyze import analyze

    for fn in (plan_query, collect_stats, analyze):
        params = inspect.signature(fn).parameters
        assert not [p for p in params if p.startswith("probe")], fn.__name__
    for module, names in (
        (repro.engine, ("CertificateProbe", "PROBE_BUDGET",
                        "ProbeBudgetExceeded", "probe_certificate")),
        (repro.joins, ("join_count", "join_exists")),
    ):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(repro.engine.stats, "_BudgetedOracle")
    fields = {f.name for f in dataclasses.fields(repro.engine.QueryStats)}
    assert "probe" not in fields
    with pytest.raises(SystemExit) as exc:
        main(["explain", "R(A,B), S(B,C)", "--probe-certificate"])
    assert exc.value.code == 2

    src = ROOT / "src" / "repro"
    for package in TETRIS_PACKAGES:
        for path in sorted((src / package).rglob("*.py")):
            if path.relative_to(src) == TETRIS_BUILDER:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    used = {a.name.rsplit(".", 1)[-1] for a in node.names}
                elif isinstance(node, ast.Attribute):
                    used = {node.attr}
                else:
                    continue
                assert not used & {"TetrisEngine", "tetris_engine"}, path


def test_planning_pays_for_a_shape_once(monkeypatch):
    """A query's structure (GYO, treewidth, the fhtw LPs, the GAO) is a
    function of its signature, and so is every optimal basis of its AGM
    LP: after one ``clear_plan_cache()``, new data over a known shape
    re-plans without re-analysing it, and the simplex runs only to find
    a basis the shape has not kept yet.  A second clear forgets both."""
    import random

    import repro.engine.planner as planner
    import repro.engine.stats as stats
    from repro.engine import clear_plan_cache
    from repro.relational.query import (
        Database,
        clique_query,
        cycle_query,
        path_query,
        star_query,
        triangle_query,
    )
    from repro.relational.relation import Relation
    from repro.relational.schema import Domain

    calls = []
    structure_of = planner.structure_of

    def counting(query):
        calls.append(query.signature)
        return structure_of(query)

    solves = []
    optimal_basis = stats.optimal_basis

    def counting_solves(vertices, edges, weights):
        solves.append(tuple(weights))
        return optimal_basis(vertices, edges, weights)

    monkeypatch.setattr(planner, "structure_of", counting)
    monkeypatch.setattr(stats, "optimal_basis", counting_solves)
    shapes = (
        triangle_query(), path_query(2), path_query(3), star_query(3),
        star_query(4), cycle_query(4), cycle_query(5), clique_query(4),
    )
    rng = random.Random(0)

    def plan_draw(query):
        db = Database([
            Relation(atom, {(rng.randrange(32), rng.randrange(32))
                            for _ in range(20)}, Domain(5))
            for atom in query.atoms
        ])
        plan_query(query, db)

    clear_plan_cache()
    for _draw in range(3):
        for query in shapes:
            plan_draw(query)
    assert sorted(calls) == sorted(q.signature for q in shapes)
    kept = [stats.query_shape(q).bases for q in shapes]
    assert len(solves) == sum(map(len, kept)) <= 3 * len(shapes)
    for bases in kept:
        assert len({frozenset(b.basic) for b in bases}) == len(bases)

    clear_plan_cache()
    assert len(stats._SHAPE_MEMO) == 0
    before = len(solves)
    plan_draw(shapes[0])
    assert len(solves) == before + 1
    assert calls[-1] == shapes[0].signature


def test_hash_in_query_order_is_sorted_and_compiled_once():
    """A hash cascade in the query's own atom order binds
    ``query.variables`` in order, so its rows need no sort: a serial
    ``execute()`` opens no ``sort`` span.  And one function picks the
    hash order, so a direct ``join_hash`` compiles the kernel a later
    ``execute(algorithm="hash")`` runs — one compile, one hit.  (Drawn
    at random in ``tests/joins/test_output_order.py``.)"""
    import random

    from repro.engine import clear_plan_cache
    from repro.engine.codegen import clear_kernel_caches, kernel_cache_info
    from repro.joins import join_hash
    from repro.obs.tracing import Tracer, use
    from repro.relational.query import (
        Database,
        JoinQuery,
        clique_query,
        cycle_query,
        evaluate_reference,
        path_query,
        star_query,
        triangle_query,
    )
    from repro.relational.relation import Relation
    from repro.relational.schema import Domain, RelationSchema

    scattered = JoinQuery([
        RelationSchema("R", ("B", "A")), RelationSchema("U", ("E",)),
        RelationSchema("S", ("C", "A", "D")), RelationSchema("T", ("D", "B")),
    ])
    rng = random.Random(1)
    for query in (
        triangle_query(), path_query(3), star_query(4), cycle_query(4),
        clique_query(4), scattered,
    ):
        db = Database([
            Relation(atom, {tuple(rng.randrange(8) for _ in atom.attrs)
                            for _ in range(40)}, Domain(3))
            for atom in query.atoms
        ])
        expected = evaluate_reference(query, db)
        clear_plan_cache()
        clear_kernel_caches()
        assert join_hash(query, db) == expected
        assert execute(query, db, algorithm="hash").tuples == expected
        compiled = kernel_cache_info()["hash"]
        assert (compiled["misses"], compiled["hits"]) == (1, 1), query
        tracer = Tracer()
        with use(tracer):
            result = execute(query, db, algorithm="hash", gao=query.variables)
        assert result.tuples == expected
        assert "sort" not in {s.name for s in tracer.spans}, query


def test_reloaded_probes_are_generated():
    """Tetris-Reloaded's oracle probe is one generated function per
    oracle shape, with every B-tree walk inlined: ``BTreeIndex`` holds
    no hand-written walk, ``gaps`` no gap-growth loop and the oracle no
    per-index probe loop.  The
    probes live in the ``probe`` kernel family: a second Reloaded
    ``execute()`` of a shape compiles nothing, a new depth compiles
    one probe, and ``clear_kernel_caches()`` empties the family."""
    import os
    import subprocess
    from functools import cached_property

    import repro.indexes.gaps
    import repro.indexes.oracle
    from repro.engine.codegen import clear_kernel_caches, kernel_cache_info
    from repro.indexes import BTreeIndex
    from repro.workloads import split_path_instance

    assert isinstance(vars(BTreeIndex)["gap_box_around"], cached_property)
    btree = ast.parse(inspect.getsource(BTreeIndex))
    assert "bisect_left" not in {
        n.id for n in ast.walk(btree) if isinstance(n, ast.Name)
    }
    for name in ("_probes", "_tuple_getter", "_LAMBDA"):
        assert not hasattr(repro.indexes.oracle, name), name
        assert name not in inspect.getsource(repro.indexes.oracle), name
    assert not hasattr(repro.indexes.gaps, "pmaximal_piece")

    def probe_misses():
        return kernel_cache_info()["probe"]["misses"]

    clear_kernel_caches()
    for depth in (10, 12):
        query, db, gao = split_path_instance(50, depth=depth, seed=1)
        before = probe_misses()
        first = execute(query, db, algorithm="tetris-reloaded", gao=gao)
        assert probe_misses() == before + 1
        again = execute(query, db, algorithm="tetris-reloaded", gao=gao)
        assert probe_misses() == before + 1
        assert again.tuples == first.tuples
    index = BTreeIndex(db["R0"], ("A1", "A0"))
    assert index.gap_box_around((1, 1)) is None
    assert index.gap_box_around.__code__.co_filename == "<repro-kernel>"
    assert kernel_cache_info()["probe"]["entries"] == 3
    clear_kernel_caches()
    assert kernel_cache_info()["probe"]["entries"] == 0

    # The indexes import the generator lazily: no import cycle, in
    # whichever order a fresh interpreter meets them.
    src = str(ROOT / "src")
    for code in ("import repro.indexes", "import repro.indexes.oracle",
                 "import repro.engine.codegen"):
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60,
        )


def test_tetris_resume_has_one_implementation():
    """Resume mode is the generated kernel for every engine shape — any
    store, generalized specs, ``return_boxes``, the proof log, any
    ``ndim``: ``TetrisEngine`` keeps no interpreted loop and
    ``tetris_kernel`` no way to decline.  The unroll cap, the tracing
    resolver and the resolver class are gone, and a repeated Tetris-LB
    run compiles nothing."""
    import repro.core
    import repro.core.resolution
    import repro.core.trace
    import repro.engine.codegen as codegen
    from repro.core.balance import tetris_preloaded_lb
    from repro.core.stores import ListStore
    from repro.core.tetris import BoxSetOracle, FixedDepth, TetrisEngine
    from repro.core.trace import ResolutionProof

    for name in ("_run_resuming", "_oracle_container"):
        assert not hasattr(TetrisEngine, name), name
    assert not hasattr(TetrisEngine(2, 2), "_resolver")
    assert not hasattr(codegen, "_TETRIS_NDIM_CAP")
    assert not hasattr(repro.core.trace, "TracingResolver")
    assert not hasattr(repro.core.resolution, "Resolver")
    assert "Resolver" not in repro.core.__all__
    for path in (ROOT / "src").rglob("*.py"):
        text = path.read_text()
        for name in ("_run_resuming", "_TETRIS_NDIM_CAP", "TracingResolver"):
            assert name not in text, f"{name} in {path}"

    returns = [
        node for node in ast.walk(ast.parse(
            inspect.getsource(codegen.tetris_kernel)
        ))
        if isinstance(node, ast.Return)
    ]
    assert returns and all(
        node.value is not None
        and not (isinstance(node.value, ast.Constant)
                 and node.value.value is None)
        for node in returns
    )
    shapes = [
        TetrisEngine(3, 2, knowledge_base=ListStore(3)),
        TetrisEngine(3, 2, dims=[FixedDepth(2)] * 3),
        TetrisEngine(12, 1),
    ]
    traced = TetrisEngine(3, 2)
    traced.proof = ResolutionProof()
    shapes.append(traced)
    boxed = TetrisEngine(3, 2)
    boxed._return_boxes = True
    shapes.append(boxed)
    for engine in shapes:
        oracle = BoxSetOracle([], engine.ndim)
        for on_demand in (False, True):
            assert callable(
                codegen.tetris_kernel(engine, oracle, on_demand, capped=False)
            )

    boxes = [(4, 1, 1), (1, 5, 2), (3, 1, 6), (2, 7, 1), (1, 1, 12)]
    codegen.clear_kernel_caches()
    first = tetris_preloaded_lb(boxes, 3, 2)
    misses = codegen.kernel_cache_info()["tetris"]["misses"]
    assert misses == 1
    assert tetris_preloaded_lb(boxes, 3, 2) == first
    info = codegen.kernel_cache_info()["tetris"]
    assert (info["misses"], info["hits"]) == (misses, 1)


def test_analyze_is_the_one_waterfall():
    """Time is attributed from the span tree alone: the sampling
    profiler and ``explain --profile`` / ``--profile-out`` are gone."""
    with pytest.raises(ImportError):
        importlib.import_module("repro.obs.profiler")
    subparsers = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    explain = {
        o for a in subparsers.choices["explain"]._actions
        for o in a.option_strings
    }
    assert "--analyze" in explain
    assert not [o for o in explain if o.startswith("--profile")]
