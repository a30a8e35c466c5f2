"""The cyclic collector is paused while rows are built, and only then.

``execute()`` and ``ResultCursor.fetchall()`` run under
:class:`~repro.relational.io.gc_paused`; a shard worker turns the
collector back on.  The pause is free only if nothing they do leaves
reference cycles behind (a cycle built under the pause outlives it), so
the fence below runs every backend cold and warm and asks the collector
to find nothing.  The rest pins the state handling: the collector comes
back exactly as the caller had it.
"""

import gc

import pytest

from repro.cli import main
from repro.engine import BACKENDS, clear_plan_cache, execute, execute_cursor
from repro.engine import executor
from repro.engine.codegen import clear_kernel_caches
from repro.parallel import faults, workers
from repro.relational.io import gc_paused
from repro.workloads.generators import (
    graph_triangle_db,
    random_graph_edges,
    random_path_db,
)

SHAPES = {
    "triangle": graph_triangle_db(random_graph_edges(20, 50, seed=3)),
    "path3": random_path_db(3, 30, seed=7, depth=6),
}


@pytest.fixture
def collector_on():
    """The collector enabled for the test, and as it was afterwards."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def test_pause_nests_and_restores():
    was = gc.isenabled()
    try:
        gc.enable()
        with gc_paused():
            assert not gc.isenabled()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner exit found it off
        assert gc.isenabled()
        gc.disable()
        with gc_paused():
            pass
        assert not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture
def collector_frozen():
    """Only this test's objects are scanned, and only when it asks.

    The collector is off, so no automatic pass can free a cycle before
    the test counts it, and everything older is frozen, so a full
    ``gc.collect()`` scans this test's objects, not the whole session's.
    """
    was = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_runs_leave_no_reference_cycles(backend, shape, collector_frozen):
    """Every backend × workers {None, 2} × limit {None, 5}, cold then
    warm: once the result is dropped, the collector finds nothing."""
    query, db = SHAPES[shape]
    for workers in (None, 2):
        for limit in (None, 5):
            for phase in ("cold", "warm"):
                if phase == "cold":
                    # An evicted kernel or plan is freed by refcount.
                    clear_kernel_caches()
                    clear_plan_cache()
                    assert gc.collect() == 0
                try:
                    result = execute(
                        query, db, algorithm=backend, workers=workers,
                        limit=limit,
                    )
                except ValueError:  # Yannakakis on a cyclic query
                    assert backend == "yannakakis" and shape == "triangle"
                    continue
                assert result.tuples
                del result
                found = gc.collect()
                assert found == 0, (phase, workers, limit, found)


def test_execute_reenables_an_enabled_collector(collector_on):
    query, db = SHAPES["triangle"]
    execute(query, db)
    assert gc.isenabled()


def test_execute_leaves_a_disabled_collector_disabled(collector_on):
    query, db = SHAPES["triangle"]
    gc.disable()
    execute(query, db)
    assert not gc.isenabled()


def test_execute_restores_the_collector_when_it_raises(collector_on):
    query, db = SHAPES["triangle"]
    with pytest.raises(ValueError, match="not applicable"):
        execute(query, db, algorithm="yannakakis")
    assert gc.isenabled()


def _watch(monkeypatch) -> dict:
    """Record ``gc.isenabled()`` as a query is planned and at every block
    its backend hands out."""
    seen = {"plan": [], "pulls": []}
    plan_query, run_backend = executor.plan_query, executor.run_backend

    def planned(*args, **kwargs):
        seen["plan"].append(gc.isenabled())
        return plan_query(*args, **kwargs)

    def watched(*args):
        blocks, stats, sorted_runs = run_backend(*args)

        def pulls():
            for block in blocks:
                seen["pulls"].append(gc.isenabled())
                yield block

        return pulls(), stats, sorted_runs

    monkeypatch.setattr(executor, "plan_query", planned)
    monkeypatch.setattr(executor, "run_backend", watched)
    return seen


@pytest.mark.parametrize("drain, plan_paused, pulls_paused", [
    (lambda q, db: execute(q, db, algorithm="leapfrog"), True, True),
    (lambda q, db: execute_cursor(q, db, algorithm="leapfrog").fetchall(),
     False, True),
    # Caller code runs between a stream's pulls: the collector is on.
    (lambda q, db: list(execute_cursor(q, db, algorithm="leapfrog")),
     False, False),
    (lambda q, db: list(
        execute_cursor(q, db, algorithm="leapfrog").blocks()), False, False),
], ids=["execute", "fetchall", "iterate", "blocks"])
def test_rows_are_built_paused_only_when_drained(
    drain, plan_paused, pulls_paused, collector_on, monkeypatch
):
    seen = _watch(monkeypatch)
    query, db = SHAPES["path3"]
    assert drain(query, db)
    assert seen["plan"] == [not plan_paused]
    assert seen["pulls"] and set(seen["pulls"]) == {not pulls_paused}
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_main_leaves_the_collector_as_it_found_it(
    enabled, collector_on, capsys, monkeypatch, tmp_path
):
    (tmp_path / "r.csv").write_text("u,v\nu,w\nx,y\n")
    (tmp_path / "s.csv").write_text("v,z\ny,q\n")
    (tmp_path / "t.csv").write_text("u,z\n")
    csvs = [f"--csv={n.upper()}={tmp_path / n}.csv" for n in "rst"]
    (gc.enable if enabled else gc.disable)()
    seen = _watch(monkeypatch)
    assert main(["join", "R(A,B), S(B,C), T(A,C)", *csvs]) == 0
    # `repro join` builds its rows inside execute()'s pause.
    assert seen["plan"] == [False] and set(seen["pulls"]) == {False}
    assert gc.isenabled() is enabled
    status = main([
        "join", "R(A,B), S(B,C), T(A,C)", *csvs, "--algorithm", "yannakakis",
    ])
    assert status == 2
    assert gc.isenabled() is enabled
    capsys.readouterr()


class _Pipe:
    """A worker's pipe: the tasks queued here, then the stop signal."""

    def __init__(self, *tasks):
        self.tasks = list(tasks) + [None]
        self.sent = []
        self.closed = False

    def recv(self):
        return self.tasks.pop(0)

    def send(self, result):
        self.sent.append(result)

    def close(self):
        self.closed = True


def test_worker_main_enables_an_inherited_disabled_collector(
    collector_on, monkeypatch
):
    # A worker forked inside a paused execute() starts with the
    # collector off; the worker turns it on for its own lifetime.
    monkeypatch.setattr(faults, "_IN_WORKER", False)
    during = []

    def shard(task, cache):
        during.append(gc.isenabled())
        return task

    monkeypatch.setattr(workers, "execute_shard", shard)
    conn = _Pipe("shard")
    gc.disable()
    workers.worker_main(conn)
    assert during == [True]
    assert conn.sent == ["shard"]
    assert gc.isenabled()
    assert conn.closed
