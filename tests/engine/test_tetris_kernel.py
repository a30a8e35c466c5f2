"""The generated Tetris kernel against its interpreted reference.

The kernel of :func:`repro.engine.codegen.tetris_kernel` inlines the
knowledge-base probe, the frontier bookkeeping and the unwind
containment test of ``TetrisEngine._run_resuming``.  The fence is
exactness: same outputs in the same order *and* every
``ResolutionStats`` field equal — cheaper steps, not different steps —
over random box cover instances, both disciplines, capped and uncapped.
The reference is reached the way production reaches it — the kernel
builder declines (``tests.helpers.interpreted_tetris``); there is no
keyword that selects it.  Shapes the generator declines on its own must
fall back and still answer.
"""

import sys
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.tetris as tetris_module
from repro.core.boxes import box_contains
from repro.core.resolution import ResolutionStats
from repro.core.stores import ListStore
from repro.core.tetris import BoxSetOracle, FixedDepth, TetrisEngine
from repro.core.trace import TracingResolver
from repro.engine import clear_kernel_caches, kernel_cache_info
from repro.engine.codegen import tetris_kernel
from tests.helpers import (
    brute_force_uncovered,
    interpreted_tetris,
    random_boxes,
)


@st.composite
def bcp_instances(draw):
    """A random BCP: small enough to brute-force, edge shapes included."""
    ndim = draw(st.integers(1, 5))
    # depth 0 makes the universe the unit box; ndim 1 has no frontier.
    depth = draw(st.integers(0, min(4, 12 // ndim)))
    component = st.integers(0, depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )
    box = st.tuples(*[component] * ndim)
    boxes = draw(st.lists(box, max_size=24))
    if draw(st.integers(0, 9)) == 0:
        boxes.append((1,) * ndim)  # the universe ⟨λ..λ⟩: fully covering
    sao = tuple(draw(st.permutations(range(ndim))))
    return ndim, depth, sao, boxes


def _run(instance, preload, max_outputs, cache_resolvents):
    ndim, depth, sao, boxes = instance
    engine = TetrisEngine(
        ndim, depth, sao=sao, cache_resolvents=cache_resolvents,
        stats=ResolutionStats(),
    )
    points = engine.run(
        BoxSetOracle(boxes, ndim), preload=preload, max_outputs=max_outputs,
    )
    # Tree iteration follows insertion order: equal lists mean the same
    # boxes were stored in the same order, witness choices included.
    return points, asdict(engine.stats), list(engine.knowledge_base)


def _run_interpreted(*args):
    with interpreted_tetris():
        return _run(*args)


@settings(max_examples=250, deadline=None)
@given(
    instance=bcp_instances(),
    preload=st.booleans(),
    max_outputs=st.sampled_from([None, 1, 3]),
    cache_resolvents=st.booleans(),
)
def test_kernel_takes_the_interpreted_steps(
    instance, preload, max_outputs, cache_resolvents
):
    got, got_stats, got_kb = _run(
        instance, preload, max_outputs, cache_resolvents
    )
    want, want_stats, want_kb = _run_interpreted(
        instance, preload, max_outputs, cache_resolvents
    )
    assert got == want  # same points in the same order
    assert got_stats == want_stats
    assert got_kb == want_kb
    if max_outputs is None:
        ndim, depth, _sao, boxes = instance
        assert sorted(got) == brute_force_uncovered(boxes, ndim, depth)


@pytest.mark.parametrize("preload", [True, False])
@pytest.mark.parametrize("seed", [6, 22, 23, 29])
def test_walk_order_above_the_last_two_levels(seed, preload):
    """Dense 5-dimensional instances on which the order matters.

    With three or more levels left to probe, the interpreted walk visits
    frontier nodes from the back and shallow prefixes first; on these
    seeds a front-to-back walk picks other witnesses and stores other
    resolvents.  (Random search rarely builds such a frontier.)
    """
    instance = (5, 2, (0, 1, 2, 3, 4), random_boxes(seed, 60, 5, 2))
    assert _run(instance, preload, None, True) == _run_interpreted(
        instance, preload, None, True
    )


def test_uniform_tree_runs_are_compiled():
    """The differential test above must be exercising a kernel."""
    for preload in (True, False):
        engine = TetrisEngine(3, 3, sao=(2, 0, 1))
        oracle = BoxSetOracle(random_boxes(1, 8, 3, 3), 3)
        kernel = tetris_kernel(engine, oracle, not preload, capped=False)
        assert kernel is not None
        assert "frontier_probe" not in kernel.source
        assert "box_contains(res_w" not in kernel.source


@pytest.mark.parametrize("preload", [True, False])
def test_unwind_containment_is_one_compare(preload, monkeypatch):
    """The invariant the kernel's unwind rests on, checked on a real run.

    Every witness handed to the unwind contains the half it answers, so
    it contains the frame box iff its split-axis component is not the
    half's.  The interpreted loop's own ``box_contains`` calls are
    intercepted; the pending frame is read from the caller's locals.
    """
    steps = []

    def recording(outer, inner):
        caller = sys._getframe(1).f_locals
        frame = caller.get("frame")
        unwinding = (
            caller.get("current", inner) is None
            and frame is not None
            and frame[0] is inner
        )
        if unwinding:
            _b, _b2, axis, _w1, stage, _cursor, _ver = frame
            steps.append((outer, inner, axis, (inner[axis] << 1) | stage))
        return box_contains(outer, inner)

    monkeypatch.setattr(tetris_module, "box_contains", recording)
    for seed in range(5):
        engine = TetrisEngine(3, 4, sao=(1, 2, 0))
        oracle = BoxSetOracle(random_boxes(seed, 14, 3, 4), 3)
        with interpreted_tetris():
            engine.run(oracle, preload=preload)
    assert len(steps) > 100
    for witness, b, axis, child_component in steps:
        child = b[:axis] + (child_component,) + b[axis + 1:]
        assert box_contains(witness, child)
        assert box_contains(witness, b) == (witness[axis] != child_component)


# -- the preload: one ordered stream, any oracle, any store --------------------------


@settings(max_examples=100, deadline=None)
@given(instance=bcp_instances())
def test_ordered_boxes_are_the_boxes_in_sao_order(instance):
    """The bulk side of the oracle protocol is ``boxes()``, permuted."""
    ndim, depth, sao, boxes = instance
    oracle = BoxSetOracle(boxes, ndim)
    engine = TetrisEngine(ndim, depth, sao=sao)
    want = [engine.to_internal(b) for b in oracle.boxes()]
    assert list(oracle.ordered_boxes(sao)) == want
    assert list(oracle.ordered_boxes(range(ndim))) == list(oracle.boxes())
    engine.run(oracle, preload=True, max_outputs=0)
    assert set(want) <= set(engine.knowledge_base)
    assert engine.stats.boxes_loaded >= len(want)


@pytest.mark.parametrize("sao", [(0, 1, 2), (2, 0, 1)])
def test_every_store_preloads_through_add_many(sao):
    """One preload branch: the list store takes the same stream."""
    boxes = random_boxes(11, 20, 3, 3)
    boxes += boxes[:5]  # duplicates are the store's to skip
    runs = []
    for store in (None, ListStore(3)):
        engine = TetrisEngine(3, 3, sao=sao, knowledge_base=store)
        points = engine.run(BoxSetOracle(boxes, 3), preload=True)
        runs.append((sorted(points), engine.stats.boxes_loaded))
    assert runs[0] == runs[1]
    assert runs[0][0] == brute_force_uncovered(boxes, 3, 3)
    assert ListStore(3).add_many(
        BoxSetOracle(boxes, 3).ordered_boxes(sao)
    ) == len(set(boxes))


def test_query_oracle_kernel_repeats_on_cached_indexes():
    """A second run over the same database — indexes and gap columns now
    cached on the relations — takes the steps the first run took, compiled
    and interpreted, preloaded and on demand."""
    from repro.joins.tetris_join import join_tetris
    from repro.workloads.generators import graph_triangle_db, random_graph_edges

    query, db = graph_triangle_db(random_graph_edges(12, 30, seed=5))
    for variant in ("preloaded", "reloaded"):
        runs = []
        for _repeat in range(2):
            runs.append(join_tetris(query, db, variant=variant))
            with interpreted_tetris():
                runs.append(join_tetris(query, db, variant=variant))
        for run in runs[1:]:
            assert run.tuples == runs[0].tuples
            assert asdict(run.stats) == asdict(runs[0].stats)


# -- fallbacks -------------------------------------------------------------------


def _declined(ndim=3, depth=3, **engine_kwargs):
    boxes = random_boxes(7, 4 * ndim, ndim, depth)
    engine = TetrisEngine(ndim, depth, **engine_kwargs)
    return engine, BoxSetOracle(boxes, ndim), boxes


def test_declined_shapes_fall_back_and_still_answer():
    expected = brute_force_uncovered(random_boxes(7, 12, 3, 3), 3, 3)
    configs = {
        "list-store": dict(knowledge_base=ListStore(3)),
        "generalized-dims": dict(dims=[FixedDepth(3)] * 3),
    }
    clear_kernel_caches()
    for name, kwargs in configs.items():
        engine, oracle, _ = _declined(**kwargs)
        assert tetris_kernel(engine, oracle, False, capped=False) is None, name
        assert sorted(engine.run(oracle, preload=True)) == expected, name

    engine, oracle, _ = _declined()
    engine._resolver = TracingResolver(engine.stats)
    assert tetris_kernel(engine, oracle, False, capped=False) is None
    assert sorted(engine.run(oracle, preload=True)) == expected
    assert len(engine._resolver.proof.steps) == engine.stats.resolutions

    engine, oracle, _ = _declined()
    unit = 1 << 3
    as_boxes = engine.run(oracle, preload=True, return_boxes=True)
    assert tetris_kernel(engine, oracle, False, capped=False) is None
    assert sorted(tuple(p ^ unit for p in box) for box in as_boxes) == expected

    engine, oracle, boxes = _declined(ndim=9, depth=1)
    assert tetris_kernel(engine, oracle, False, capped=False) is None
    assert sorted(engine.run(oracle, preload=True)) == (
        brute_force_uncovered(boxes, 9, 1)
    )
    # Declined shapes never reach the cache.
    assert kernel_cache_info()["tetris"]["entries"] == 0


def test_one_kernel_per_configuration_not_per_store():
    """The cache key is the traversal's shape, nothing about the store."""
    clear_kernel_caches()
    boxes = random_boxes(3, 10, 3, 3)
    keys = set()
    for sao in [(0, 1, 2), (2, 1, 0)]:
        for preload in (True, False):
            for max_outputs in (None, 2):
                for cache_resolvents in (True, False):
                    for _repeat in range(2):  # fresh engine, fresh tree
                        engine = TetrisEngine(
                            3, 3, sao=sao, cache_resolvents=cache_resolvents
                        )
                        engine.run(
                            BoxSetOracle(boxes, 3), preload=preload,
                            max_outputs=max_outputs,
                        )
                    keys.add((sao, preload, max_outputs, cache_resolvents))
    # A ListStore run of a cached shape adds nothing.
    TetrisEngine(3, 3, knowledge_base=ListStore(3)).run(
        BoxSetOracle(boxes, 3), preload=True
    )
    info = kernel_cache_info()["tetris"]
    assert info["entries"] == len(keys) == 16
    assert info["misses"] == 16
    assert info["hits"] == 16
