"""Compiled-kernel tests: parity matrix, cache isolation, LRU bounds.

The compiled kernels of :mod:`repro.engine.codegen` must be invisible
except for speed: every (backend × Table-1 family × worker count) cell
is checked against a reference that shares no code with it — the
nested-loop join for leapfrog and hash, whose kernels are their only
implementation, and the interpreted resume loop for Tetris (the kernel
builder hands it back inside ``tests.helpers.interpreted_tetris``)
— cache keys must keep attribute-renamed schemas apart, and the
per-family LRU must stay bounded with honest hit/miss/eviction counters.
"""

import functools
from dataclasses import asdict

import pytest

from repro.engine import (
    clear_kernel_caches,
    execute,
    kernel_cache_info,
    kernel_cache_summary,
    render_execution,
)
from repro.engine.codegen import (
    _HASH_CACHE,
    _LEAPFROG_CACHE,
    _TETRIS_CACHE,
    KernelCache,
    _leapfrog_source,
)
from repro.obs.metrics import REGISTRY
from repro.joins.hashjoin import join_hash
from repro.joins.leapfrog import join_leapfrog
from repro.joins.nested_loop import join_nested_loop
from repro.joins.tetris_join import join_tetris
from repro.relational.query import JoinQuery, star_query
from repro.relational.schema import RelationSchema
from repro.workloads.generators import (
    db_from_tuples,
    graph_triangle_db,
    random_graph_edges,
    random_path_db,
)
from tests.helpers import interpreted_tetris, reference_run_restarting


@functools.lru_cache(maxsize=None)
def _family(name):
    if name == "triangle":
        return graph_triangle_db(random_graph_edges(40, 110, seed=3))
    if name == "tw1":
        return random_path_db(3, 90, seed=17, depth=7)
    if name == "star":
        import random

        rng = random.Random(11)
        query = star_query(3)
        tuples = {
            f"R{i}": sorted({
                (rng.randrange(1 << 5), rng.randrange(1 << 7))
                for _ in range(80)
            })
            for i in (1, 2, 3)
        }
        return query, db_from_tuples(query, tuples, 7)
    raise ValueError(name)


FAMILIES = ("triangle", "tw1", "star")


def _interpreted_tetris(query, db, **kwargs):
    with interpreted_tetris():
        return join_tetris(query, db, **kwargs)


def _interpreted(algorithm, query, db):
    """The semantic reference: no generated kernel anywhere in it."""
    if algorithm in ("leapfrog", "hash"):
        return join_nested_loop(query, db)
    variant = algorithm.split("-", 1)[1]
    return _interpreted_tetris(query, db, variant=variant).tuples


# -- parity matrix --------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "algorithm", ["leapfrog", "hash", "tetris-preloaded", "tetris-reloaded"]
)
def test_compiled_matches_interpreted(algorithm, family, workers):
    query, db = _family(family)
    expected = sorted(_interpreted(algorithm, query, db))
    result = execute(
        query, db, algorithm=algorithm,
        workers=workers if workers > 1 else None,
    )
    assert sorted(result.tuples) == expected


@pytest.mark.parametrize("variant", ["preloaded", "reloaded"])
@pytest.mark.parametrize("family", FAMILIES)
def test_tetris_kernel_stats_are_bit_identical(variant, family):
    """Not just the output: every ResolutionStats counter must match."""
    query, db = _family(family)
    interp = _interpreted_tetris(query, db, variant=variant)
    comp = join_tetris(query, db, variant=variant)
    assert comp.tuples == interp.tuples
    assert asdict(comp.stats) == asdict(interp.stats)


@pytest.mark.parametrize("loop", [reference_run_restarting], ids=["faithful"])
def test_unsupported_tetris_shapes_fall_back_correctly(loop):
    """Algorithms 1 and 2 as printed run no kernel and answer as the
    kernel's interpreted reference does."""
    query, db = _family("triangle")
    expected = _interpreted_tetris(query, db).tuples
    with interpreted_tetris(loop):
        got = join_tetris(query, db)
    assert got.tuples == expected


def test_capped_tetris_run_matches_interpreted_prefix():
    query, db = _family("tw1")
    interp = _interpreted_tetris(query, db, max_outputs=5)
    comp = join_tetris(query, db, max_outputs=5)
    assert comp.tuples == interp.tuples
    assert len(comp.tuples) <= 5


# -- cache-key isolation --------------------------------------------------------


def test_attribute_renaming_gets_distinct_kernels():
    """Schemas differing only in attribute names must not share a kernel.

    R(a,b) ⋈ S(b,c) is a path; R(a,b) ⋈ S(a,c) is a star.  Same relation
    names, same arities, same data — a shared kernel would answer one of
    them wrong.
    """
    path = JoinQuery(
        [RelationSchema("R", ("a", "b")), RelationSchema("S", ("b", "c"))]
    )
    star = JoinQuery(
        [RelationSchema("R", ("a", "b")), RelationSchema("S", ("a", "c"))]
    )
    tuples = {"R": [(1, 2)], "S": [(2, 3)]}
    db_path = db_from_tuples(path, tuples, 3)
    db_star = db_from_tuples(star, tuples, 3)

    clear_kernel_caches()
    assert join_hash(path, db_path) == [(1, 2, 3)]
    assert join_hash(star, db_star) == []
    assert join_leapfrog(path, db_path) == [(1, 2, 3)]
    assert join_leapfrog(star, db_star) == []

    info = kernel_cache_info()
    assert info["hash"]["entries"] == 2
    assert info["hash"]["hits"] == 0
    assert info["leapfrog"]["entries"] == 2
    assert info["leapfrog"]["hits"] == 0


def test_repeat_plans_hit_the_kernel_cache():
    query, db = _family("triangle")
    clear_kernel_caches()
    first = join_leapfrog(query, db)
    before = kernel_cache_info()["leapfrog"]
    again = join_leapfrog(query, db)
    after = kernel_cache_info()["leapfrog"]
    assert again == first
    assert after["entries"] == before["entries"]
    assert after["hits"] == before["hits"] + 1


# -- KernelCache mechanics ------------------------------------------------------


def _fake_kernel(tag):
    def fn():
        return tag

    fn.source = tag
    return fn


def test_kernel_cache_lru_evicts_least_recent():
    cache = KernelCache("test", capacity=2)
    a = cache.lookup(("a",), lambda: _fake_kernel("A"))
    cache.lookup(("b",), lambda: _fake_kernel("B"))
    # Hit refreshes recency and must not rebuild.
    assert cache.lookup(("a",), lambda: pytest.fail("rebuilt on hit")) is a
    cache.lookup(("c",), lambda: _fake_kernel("C"))  # evicts the LRU: "b"
    assert cache.info() == {
        "entries": 2, "capacity": 2, "hits": 1, "misses": 3, "evictions": 1,
    }
    rebuilt = cache.lookup(("b",), lambda: _fake_kernel("B2"))
    assert rebuilt.source == "B2"
    assert cache.info()["evictions"] == 2  # rebuilding "b" evicted "a"


def test_leapfrog_builder_rejects_an_unconstrained_attribute():
    """The builders are total over ``JoinQuery``; a GAO attribute that
    occurs in no atom (not expressible as one) is an error, never a
    declined kernel."""
    with pytest.raises(ValueError, match="occurs in no atom"):
        _leapfrog_source([("R", ("a", "b"))], ("a", "b", "c"), ("a", "b"))


def test_kernel_cache_clear_resets_entries_and_counters():
    cache = KernelCache("test", capacity=2)
    cache.lookup(("a",), lambda: _fake_kernel("A"))
    cache.lookup(("a",), lambda: _fake_kernel("A"))
    cache.clear()
    assert cache.info() == {
        "entries": 0, "capacity": 2, "hits": 0, "misses": 0, "evictions": 0,
    }


def test_generated_sources_are_inspectable():
    query, db = _family("triangle")
    clear_kernel_caches()
    join_leapfrog(query, db)
    join_hash(query, db)
    join_tetris(query, db)
    for cache in (_LEAPFROG_CACHE, _HASH_CACHE, _TETRIS_CACHE):
        sources = cache.cached_sources()
        assert len(sources) == 1
        assert "def kernel" in sources[0]


def test_explain_surfaces_kernel_cache_stats():
    query, db = _family("tw1")
    before = REGISTRY.snapshot()
    result = execute(query, db, algorithm="leapfrog")
    delta = REGISTRY.snapshot().since(before)
    # Kernel cache traffic surfaces twice: as EXPLAIN's summary line
    # and under the registry's kernels.* names.
    assert f"├─ kernels     : {kernel_cache_summary()}" in (
        render_execution(result)
    )
    assert delta["kernels.cache.entries"] >= 1


# -- the box-probe protocol of resume-mode Reloaded -----------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_reloaded_probe_budget(family):
    """One knowledge-base probe per traversal box and one oracle probe
    per miss: a small constant per resolution and per output, where the
    point-probe descent paid ≈ 22 per resolution."""
    query, db = _family(family)
    result = join_tetris(query, db, variant="reloaded")
    stats = result.stats
    budget = 4 * stats.resolutions + 4 * len(result.tuples) + 4
    assert stats.containment_queries <= budget
    assert stats.oracle_queries <= stats.containment_queries
    assert stats.resumes <= stats.oracle_queries


def test_split_path_certificate_does_not_grow_with_n():
    """Theorem 4.7 on the O(1)-certificate family: the work is the
    certificate's, whatever N is."""
    from repro.workloads.generators import split_path_instance

    runs = []
    for m in (800, 12_800):  # N = 1,600 and 25,600
        query, db, gao = split_path_instance(m, depth=16, seed=3)
        result = join_tetris(query, db, variant="reloaded", gao=gao)
        assert result.tuples == []
        stats = result.stats
        runs.append(
            (stats.resolutions, stats.oracle_queries, stats.boxes_loaded)
        )
    assert runs[0] == runs[1]
    assert runs[0][2] <= 8


def test_preloaded_kernel_source_is_untouched():
    """The box-probe protocol is the ``fetch`` branch alone: the
    Preloaded source is byte for byte what it was before it landed."""
    import hashlib

    from repro.engine.codegen import _tetris_source

    pinned = {
        (3, 9, (0, 1, 2), False, False, True):
            "fbd94a4acdb9e88a33356d3dc63c267816154eaeb94e722c2c3ebad603c297da",
        (3, 9, (1, 0, 2), False, False, True):
            "186a75efa00fd644943de9864a51f0abb211d3cc726ae633c51ac392b19ccc96",
        (2, 4, (1, 0), False, True, False):
            "b0bd48c4c6b3ec3c1b104e2546e3d7454551c1c6c000076e1cd8b67cdd4bba7c",
        (1, 5, (0,), False, False, True):
            "81ec0408b4d405e884de3882595039439341f684f32fcf1e94e2e8a7b1250aff",
        (4, 0, (3, 1, 0, 2), False, True, True):
            "118a331c23f5ad9848189da76dff28a183ca657c378b5ee80ffac23760f23269",
    }
    for key, digest in pinned.items():
        source = _tetris_source(*key)
        assert hashlib.sha256(source.encode()).hexdigest() == digest, key
