"""The shared-memory data plane: layout, arena lifecycle, wire parity.

Three layers of contract are pinned here:

* **Layout** — ``Relation.to_shm``/``from_shm`` round-trip bit-identical
  (rows, column bytes, pickles), including empty relations and row
  slices, and reject foreign buffers.
* **Arena** — exports memoize per content key, owners block eviction,
  the byte budget sweeps LRU-first, ``close`` unlinks every name, and
  neither a worker crash nor a failed export (a ``/dev/shm`` with no
  room, a write that raises) leaves anything behind in ``/dev/shm``.
* **Wire** — shm and pickle-blob dispatch produce *exactly* the same
  tuples across backends × workloads × worker counts, warm repeats ship
  no bytes while attaching nothing new, and the ship accounting keeps
  first-time ships, re-ships, actual wire bytes and the nominal figure
  apart.
"""

import errno
import os
import pickle
import signal

import pytest

from repro.engine import clear_plan_cache, cost, execute, plan_query
from repro.obs.metrics import REGISTRY
from repro.parallel import clear_job_cache, shutdown_pools
from repro.parallel.merge import prepare_jobs
from repro.parallel.scheduler import get_pool
from repro.parallel import shm
from repro.parallel.shm import (
    ARENA,
    ShmArena,
    ShmRef,
    ShmSlice,
    SlicePlan,
    attach_segment,
)
from repro.parallel.workers import RelBlob, WorkerCache
from repro.relational.query import Database, JoinQuery, path_query
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema
from repro.workloads.generators import (
    graph_triangle_db,
    random_graph_edges,
    random_path_db,
)


def _rel(name="R", n=50, seed=0, depth=7, arity=2):
    import random

    rng = random.Random(seed)
    attrs = tuple("abcdef"[:arity])
    rows = {
        tuple(rng.randrange(1 << depth) for _ in attrs) for _ in range(n)
    }
    return Relation(RelationSchema(name, attrs), rows, Domain(depth))


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    # Share everything: the default 8 KiB floor would route these small
    # test relations onto the blob path and test nothing.
    monkeypatch.setattr(shm, "MIN_BYTES", 0)
    clear_plan_cache()
    clear_job_cache()
    yield


@pytest.fixture(scope="module", autouse=True)
def _pools():
    yield
    shutdown_pools()


class TestShmLayout:
    def test_round_trip_bit_identical(self):
        rel = _rel(n=80, seed=3, arity=3)
        total, header = rel.shm_layout()
        buf = bytearray(total)
        written = rel.to_shm(buf, header=header)
        assert written == total
        back = Relation.from_shm(buf)
        assert back.schema == rel.schema
        assert back.domain == rel.domain
        assert back.rows() == rel.rows()
        assert back.column_bytes() == rel.column_bytes()

    def test_slice_matches_canonical_rows(self):
        rel = _rel(n=60, seed=5)
        total, header = rel.shm_layout()
        buf = bytearray(total)
        rel.to_shm(buf, header=header)
        lo, hi = 10, 37
        sliced = Relation.from_shm(buf, lo, hi)
        assert sliced.rows() == rel.rows()[lo:hi]
        assert len(sliced) == hi - lo

    def test_empty_slice(self):
        rel = _rel(n=20, seed=1)
        total, header = rel.shm_layout()
        buf = bytearray(total)
        rel.to_shm(buf, header=header)
        empty = Relation.from_shm(buf, 7, 7)
        assert empty.rows() == []
        assert len(empty) == 0

    def test_zero_row_relation_round_trips(self):
        rel = Relation(RelationSchema("E", ("a", "b")), set(), Domain(5))
        total, header = rel.shm_layout()
        buf = bytearray(total)
        rel.to_shm(buf, header=header)
        back = Relation.from_shm(buf)
        assert back.rows() == []
        assert back.schema == rel.schema
        # The pickle wire agrees with the shm wire, bit for bit.
        rewire = pickle.loads(pickle.dumps(rel))
        assert rewire.rows() == back.rows()
        assert rewire.column_bytes() == back.column_bytes()

    def test_zero_attribute_schema_is_rejected(self):
        # Nullary relations don't exist in this engine: the schema
        # constructor refuses, so neither wire can ever see one.
        with pytest.raises(ValueError):
            RelationSchema("N", ())

    def test_shm_backed_relation_pickles_identically(self):
        rel = _rel(n=40, seed=9)
        total, header = rel.shm_layout()
        buf = bytearray(total)
        rel.to_shm(buf, header=header)
        back = Relation.from_shm(buf)
        assert pickle.loads(pickle.dumps(back)).rows() == rel.rows()

    def test_foreign_buffer_is_rejected(self):
        with pytest.raises(ValueError):
            Relation.from_shm(bytearray(b"\x00" * 64))

    def test_slice_plan_materializes_the_same_rows(self):
        rel = _rel(n=50, seed=11)
        plan = SlicePlan(rel, 5, 30)
        assert len(plan) == 25
        assert plan.nominal_bytes() == 8 * 25 * 2
        piece = plan.materialize()
        assert piece.rows() == rel.rows()[5:30]


class TestArena:
    def test_export_is_memoized_per_content(self):
        arena = ShmArena(capacity_bytes=1 << 20)
        rel = _rel(n=30, seed=2)
        try:
            a = arena.export(rel)
            b = arena.export(rel)
            assert a == b
            assert arena.created == 1
            # Same content under a different object: still one segment.
            clone = Relation(
                rel.schema, set(map(tuple, rel.rows())), rel.domain
            )
            assert arena.export(clone) == a
            assert arena.created == 1
        finally:
            arena.close()

    def test_export_without_room_returns_none(self, monkeypatch):
        # A tmpfs /dev/shm smaller than the segment: the reserve fails
        # with ENOSPC where the write would have been SIGBUS.
        monkeypatch.setattr(shm.os, "posix_fallocate", _no_room, raising=False)
        arena = ShmArena()
        before = _shm_entries()
        assert arena.export(_rel()) is None
        assert arena.fallbacks == 1
        assert len(arena) == 0 and arena.created == 0
        assert _shm_entries() == before

    def test_failed_write_unlinks_its_segment(self, monkeypatch):
        def write_then_fail(self, buf, header=None):
            written(self, buf, header=header)
            raise ValueError("layout mismatch")

        written = Relation.to_shm
        monkeypatch.setattr(Relation, "to_shm", write_then_fail)
        arena = ShmArena()
        before = _shm_entries()
        assert arena.export(_rel()) is None
        assert arena.fallbacks == 1
        assert _shm_entries() == before

    def test_attached_content_matches(self):
        arena = ShmArena()
        rel = _rel(n=45, seed=7, arity=3)
        try:
            ref = arena.export(rel)
            seg = attach_segment(ref.segment)
            try:
                back = Relation.from_shm(seg.buf)
                assert back.rows() == rel.rows()
            finally:
                del back
                seg.close()
        finally:
            arena.close()

    def test_capacity_sweeps_lru_unowned(self):
        arena = ShmArena(capacity_bytes=1)
        r1, r2 = _rel("A", n=30, seed=1), _rel("B", n=30, seed=2)
        try:
            ref1 = arena.export(r1)
            assert ref1 is not None
            ref2 = arena.export(r2)
            assert ref2 is not None
            # Over budget: the older unowned segment was unlinked, the
            # fresh export survives (its ref is on the wire).
            assert arena.unlinked >= 1
            with pytest.raises(FileNotFoundError):
                attach_segment(ref1.segment)
            attach_segment(ref2.segment).close()
        finally:
            arena.close()

    def test_owners_block_eviction_until_released(self):
        arena = ShmArena(capacity_bytes=1)
        r1, r2 = _rel("A", n=30, seed=3), _rel("B", n=30, seed=4)
        try:
            arena.export(r1, owner=(1, 0))
            arena.export(r2, owner=(1, 1))
            assert len(arena) == 2  # both owned: over budget but pinned
            arena.release_owners(1)
            assert len(arena) == 0  # budget of 1 byte: all swept
            assert arena.unlinked == 2
        finally:
            arena.close()

    def test_close_unlinks_every_name(self):
        arena = ShmArena()
        refs = [
            arena.export(_rel(name, n=25, seed=i))
            for i, name in enumerate(("A", "B", "C"))
        ]
        names = arena.segment_names()
        assert len(names) == 3
        arena.close()
        assert len(arena) == 0
        for ref in refs:
            with pytest.raises(FileNotFoundError):
                attach_segment(ref.segment)

    def test_generation_disambiguates_recreated_segments(self):
        arena = ShmArena()
        rel = _rel(n=20, seed=6)
        try:
            g1 = arena.export(rel).generation
            assert arena.evict(rel)
            g2 = arena.export(rel).generation
            assert g2 > g1
        finally:
            arena.close()


class TestWorkerCache:
    """The worker-side segment table, exercised in-process."""

    def test_ref_and_slice_share_one_attach(self):
        arena = ShmArena()
        rel = _rel(n=60, seed=8)
        cache = WorkerCache()
        evicted = []
        try:
            ref = arena.export(rel)
            whole, attached = cache.store(("k1",), ref, evicted)
            assert attached == ref.nbytes  # first touch maps the segment
            assert whole.rows() == rel.rows()
            piece, attached2 = cache.store(
                ("k2",), ShmSlice(ref, 5, 25), evicted
            )
            assert attached2 == 0  # table hit: no new mapping
            assert piece.rows() == rel.rows()[5:25]
            assert cache.get(("k1",)) is whole
            assert evicted == []
        finally:
            arena.close()

    def test_blob_payloads_bypass_the_segment_table(self):
        rel = _rel(n=15, seed=12)
        cache = WorkerCache()
        blob = RelBlob(pickle.dumps(rel))
        got, attached = cache.store(("k",), blob, [])
        assert attached == 0
        assert got.rows() == rel.rows()

    def test_lru_eviction_reports_keys_home(self):
        cache = WorkerCache(entries=2)
        evicted = []
        for i in range(3):
            cache.store((i,), _rel(n=5, seed=i), evicted)
        assert evicted == [(0,)]
        assert cache.get((0,)) is None
        assert cache.get((2,)) is not None


def _no_room(fd, offset, length):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _shm_entries():
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def _triangle(seed=17, nodes=50, edges=220):
    return graph_triangle_db(random_graph_edges(nodes, edges, seed=seed))


class TestWireParity:
    @pytest.mark.parametrize("backend", ("hash", "tetris-preloaded"))
    @pytest.mark.parametrize("workers", (1, 4))
    def test_shm_vs_blob_same_tuples(self, backend, workers, monkeypatch):
        query, db = _triangle()
        serial = execute(query, db, algorithm=backend)
        with_shm = execute(
            query, db, algorithm=backend, workers=workers
        )
        assert with_shm.tuples == serial.tuples
        # Every relation below the size floor: the blob wire.
        monkeypatch.setattr(shm, "MIN_BYTES", 1 << 62)
        clear_job_cache()
        without = execute(
            query, db, algorithm=backend, workers=workers
        )
        assert without.tuples == serial.tuples
        assert without.parallel.shm_ships == 0

    @pytest.mark.parametrize("workers", (1, 4))
    def test_empty_relation_instance_parity(self, workers):
        # One relation empty: every shard prunes, output is [] on both
        # wires — the zero-row payload edge the layout tests pin.
        query = path_query(2)
        r = _rel("R0", n=40, seed=3)
        s = Relation(
            RelationSchema("R1", ("a", "b")), set(), Domain(7)
        )
        db = Database([
            Relation(RelationSchema("R0", ("a", "b")),
                     set(map(tuple, r.rows())), Domain(7)),
            s,
        ])
        assert execute(query, db, algorithm="hash").tuples == []
        par = execute(query, db, algorithm="hash", workers=workers)
        assert par.tuples == []

    def test_no_room_in_dev_shm_ships_blobs(self, monkeypatch):
        query, db = _triangle(seed=19)
        serial = execute(query, db, algorithm="hash")
        shutdown_pools()  # a cold arena: every relation is a new export
        monkeypatch.setattr(shm.os, "posix_fallocate", _no_room, raising=False)
        before = _shm_entries()
        par = execute(query, db, algorithm="hash", workers=2)
        assert par.tuples == serial.tuples
        assert par.parallel.shm_ships == 0
        assert par.parallel.shm_fallbacks > 0
        assert _shm_entries() == before

    def test_path_query_parity(self):
        query, db = random_path_db(3, 150, seed=6, depth=8)
        serial = execute(query, db, algorithm="hash")
        par = execute(query, db, algorithm="hash", workers=4)
        assert par.tuples == serial.tuples
        assert par.parallel.shm_ships > 0


class TestShipAccounting:
    def test_cold_run_ships_refs_not_rows(self):
        shutdown_pools()  # cold worker caches AND a cold arena
        query, db = _triangle(seed=23)
        result = execute(query, db, algorithm="hash", workers=2)
        rep = result.parallel
        assert rep.shm_ships > 0
        assert rep.rows_shipped == 0  # everything went by segment ref
        assert rep.shm_attaches > 0
        assert rep.shm_attached_bytes > 0
        # Refs are a few hundred bytes; the rows they stand for are not.
        assert 0 < rep.bytes_shipped < rep.bytes_nominal

    def test_warm_repeats_ship_nothing_and_attach_nothing(self):
        shutdown_pools()
        query, db = _triangle(seed=29)
        cold = execute(query, db, algorithm="hash", workers=2)
        assert cold.parallel.shm_attached_bytes > 0
        warm = None
        for _ in range(6):
            warm = execute(query, db, algorithm="hash", workers=2)
            if warm.parallel.bytes_shipped == 0:
                break
        rep = warm.parallel
        assert rep.bytes_shipped == 0
        assert rep.shm_attached_bytes == 0
        assert rep.ref_hits == rep.refs_total > 0

    def test_blob_wire_reports_actual_and_nominal(self, monkeypatch):
        monkeypatch.setattr(shm, "MIN_BYTES", 1 << 62)
        shutdown_pools()
        query, db = _triangle(seed=31)
        result = execute(query, db, algorithm="hash", workers=2)
        rep = result.parallel
        assert rep.rows_shipped > 0
        assert rep.bytes_shipped > 0
        assert rep.bytes_nominal > 0
        assert rep.shm_ships == 0
        # Only shards actually dispatched ship: one the parent computed
        # itself never crossed the wire, so it first-ships whenever a
        # later run deals it to a worker.
        _, jobs, _ = prepare_jobs(query, db, result.plan)
        by_cell = {job.shard.describe(): job for job in jobs}

        def dispatched(report):
            return {
                key: len(piece)
                for cell, worker, _rows, _s in report.shard_details
                if worker >= 0
                for _name, key, piece in by_cell[cell].relations
            }

        first = dispatched(rep)
        assert rep.rows_shipped == sum(first.values())
        later = execute(query, db, algorithm="hash", workers=2).parallel
        assert later.rows_shipped == sum(
            rows for key, rows in dispatched(later).items()
            if key not in first
        )

    def test_metrics_registry_carries_shm_counters(self):
        shutdown_pools()
        query, db = _triangle(seed=37)
        before = REGISTRY.snapshot()
        execute(query, db, algorithm="hash", workers=2)
        snap = REGISTRY.snapshot().since(before)
        assert snap["parallel.shm.ships"] > 0
        assert snap["parallel.shm.attached_bytes"] > 0
        assert snap["parallel.ship.bytes_nominal"] > 0

    def test_explain_renders_the_shm_line(self):
        from repro.engine import explain_text

        query, db = _triangle(seed=41)
        result = execute(query, db, algorithm="hash", workers=2)
        text = explain_text(result.plan, result)
        assert "segment refs" in text
        assert "B attached" in text
        assert "nominal" in text


class TestCostModel:
    @pytest.fixture(autouse=True)
    def _four_usable_cores(self, monkeypatch):
        # These plans ask for workers=4; price them for a host with the
        # cores to run four, whatever this one's affinity mask allows.
        monkeypatch.setattr(cost, "usable_cores", lambda: 4)

    def test_shm_prices_parallel_cheaper(self):
        # At 200k rows a relation, the input mapped once rather than
        # shipped per worker lets a parallel candidate undercut every
        # serial one.
        plan = plan_query(
            path_query(2), db=None, workers=4, assumed_rows=200_000,
            use_cache=False,
        )
        serial = min(c.cost for c in plan.candidates if not c.parallel)
        chosen = plan.chosen
        assert chosen.parallel
        assert chosen.cost < serial
        assert "shm" in chosen.formula


class TestFaultInjection:
    def test_worker_crash_leaks_no_segments(self):
        shutdown_pools()
        query, db = _triangle(seed=47, nodes=60, edges=300)
        first = execute(query, db, algorithm="hash", workers=2)
        assert first.parallel.shm_ships > 0
        assert len(ARENA) > 0
        names = ARENA.segment_names()
        pool = get_pool(2)
        os.kill(pool._procs[0].pid, signal.SIGKILL)
        pool._procs[0].join(timeout=5.0)
        # Supervision absorbs the crash: the dead worker is respawned in
        # place and the same pool answers bit-identically.
        survived = execute(query, db, algorithm="hash", workers=2)
        assert survived.tuples == first.tuples
        assert survived.parallel.worker_respawns >= 1
        assert get_pool(2) is pool and not pool.closed
        # Full shutdown unlinks every name — nothing left in /dev/shm.
        shutdown_pools()
        assert len(ARENA) == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                attach_segment(name)

    def test_shutdown_after_clean_runs_unlinks_everything(self):
        query, db = _triangle(seed=53)
        execute(query, db, algorithm="hash", workers=2)
        names = ARENA.segment_names()
        assert names
        shutdown_pools()
        assert len(ARENA) == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                attach_segment(name)
