"""The generated Tetris kernel against its interpreted reference.

The kernel of :func:`repro.engine.codegen.tetris_kernel` is the only
resume-mode traversal: it inlines the knowledge-base probe, the frontier
bookkeeping and the unwind containment test of the interpreted loop
that is kept here as its reference (``tests.helpers.
reference_run_resuming``).  The fence is exactness: same outputs in the
same order *and* every ``ResolutionStats`` field equal, the same
knowledge-base insertion order and the same proof log — cheaper steps,
not different steps — over random box cover instances of every shape
the engine takes (tree or list store, uniform, mixed-depth or
Balance-lifted space, up to 12 dimensions, packed or value output,
proof log on or off), both disciplines, capped and uncapped.  The
reference is reached through the kernel builder's slot
(``tests.helpers.interpreted_tetris``); there is no keyword that
selects it.
"""

import sys
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

import tests.helpers as helpers_module
from repro.core.balance import BalanceMap
from repro.core.boxes import box_contains
from repro.core.resolution import ResolutionStats
from repro.core.stores import ListStore
from repro.core.tetris import BoxSetOracle, FixedDepth, TetrisEngine
from repro.core.trace import ResolutionProof
from repro.engine import clear_kernel_caches, kernel_cache_info
from repro.engine.codegen import tetris_kernel
from tests.helpers import (
    brute_force_uncovered,
    interpreted_tetris,
    random_boxes,
)


def _components(depth):
    return st.integers(0, depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )


# An instance is (ndim, depth, sao, boxes, dims, store): store None is
# the dyadic tree.


@st.composite
def bcp_instances(draw, max_bits=12, store=None):
    """A random BCP: small enough to brute-force, edge shapes included."""
    ndim = draw(st.integers(1, 5))
    # depth 0 makes the universe the unit box; ndim 1 has no frontier.
    depth = draw(st.integers(0, min(4, max_bits // ndim)))
    box = st.tuples(*[_components(depth)] * ndim)
    boxes = draw(st.lists(box, max_size=24))
    if draw(st.integers(0, 9)) == 0:
        boxes.append((1,) * ndim)  # the universe ⟨λ..λ⟩: fully covering
    sao = tuple(draw(st.permutations(range(ndim))))
    return ndim, depth, sao, boxes, None, store


@st.composite
def wide_instances(draw):
    """9 to 12 dimensions, one bit each."""
    ndim = draw(st.integers(9, 12))
    boxes = draw(st.lists(st.tuples(*[_components(1)] * ndim), max_size=40))
    sao = tuple(draw(st.permutations(range(ndim))))
    return ndim, 1, sao, boxes, None, None


class CalledDepth(FixedDepth):
    """A spec the kernel does not know: its unit test is called."""

    __slots__ = ()


@st.composite
def mixed_depth_instances(draw):
    """A generalized space of per-axis depths, each tested inline
    (``FixedDepth``) or through ``is_unit`` (a spec of another type)."""
    depths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    ndim = len(depths)
    sao = tuple(draw(st.permutations(range(ndim))))
    # Space axis sao[i] is internal axis i, bottoming out at depths[i].
    comps = [None] * ndim
    for i, axis in enumerate(sao):
        comps[axis] = _components(depths[i])
    boxes = draw(st.lists(st.tuples(*comps), max_size=12))
    kinds = st.sampled_from([FixedDepth, CalledDepth])
    dims = [draw(kinds)(d) for d in depths]
    store = draw(st.sampled_from([None, ListStore]))
    return ndim, max(depths), sao, boxes, dims, store


@st.composite
def lifted_instances(draw):
    """Tetris-LB's space: a BCP lifted by the Balance map (code and
    remainder dimensions), its axes permuted by a random SAO."""
    ndim = draw(st.integers(3, 4))
    depth = draw(st.integers(1, 8 // ndim))
    box = st.tuples(*[_components(depth)] * ndim)
    boxes = draw(st.lists(box, min_size=1, max_size=12))
    threshold = draw(st.sampled_from([None, 0.0, 1.0]))
    mapping = BalanceMap(boxes, ndim, depth, threshold=threshold)
    lifted = mapping.lifted_ndim
    sao = tuple(draw(st.permutations(range(lifted))))
    spaced = []
    for internal in mapping.lift_boxes(boxes):
        comps = [None] * lifted
        for i, axis in enumerate(sao):
            comps[axis] = internal[i]
        spaced.append(tuple(comps))
    store = draw(st.sampled_from([None, ListStore]))
    return lifted, depth, sao, spaced, mapping.dimension_specs(), store


def _run(instance, preload, max_outputs, cache_resolvents,
         return_boxes=False, proof=False):
    ndim, depth, sao, boxes, dims, store = instance
    engine = TetrisEngine(
        ndim, depth, sao=sao, cache_resolvents=cache_resolvents,
        stats=ResolutionStats(), dims=dims,
        knowledge_base=None if store is None else store(ndim),
    )
    if proof:
        engine.proof = ResolutionProof()
    points = engine.run(
        BoxSetOracle(boxes, ndim), preload=preload, max_outputs=max_outputs,
        return_boxes=return_boxes,
    )
    # Store iteration follows insertion order: equal lists mean the same
    # boxes were stored in the same order, witness choices included.
    return points, asdict(engine.stats), list(engine.knowledge_base), (
        engine.proof
    )


def _run_interpreted(*args, **kwargs):
    with interpreted_tetris():
        return _run(*args, **kwargs)


@settings(max_examples=300, deadline=None)
@given(
    instance=st.one_of(
        bcp_instances(), bcp_instances(),
        # The list store scans every stored output: keep them few.
        bcp_instances(max_bits=6, store=ListStore),
        wide_instances(), mixed_depth_instances(), lifted_instances(),
    ),
    preload=st.booleans(),
    max_outputs=st.sampled_from([None, 1, 3]),
    cache_resolvents=st.booleans(),
    return_boxes=st.booleans(),
    proof=st.booleans(),
)
def test_kernel_takes_the_interpreted_steps(
    instance, preload, max_outputs, cache_resolvents, return_boxes, proof,
):
    args = (instance, preload, max_outputs, cache_resolvents, return_boxes,
            proof)
    got, got_stats, got_kb, got_proof = _run(*args)
    want, want_stats, want_kb, want_proof = _run_interpreted(*args)
    assert got == want  # same points in the same order
    assert got_stats == want_stats
    assert got_kb == want_kb
    assert got_proof == want_proof
    if proof:
        got_proof.verify()
        assert len(got_proof) == got_stats["resolutions"]
    ndim, depth, _sao, boxes, dims, _store = instance
    if max_outputs is None and dims is None and ndim <= 5:
        if return_boxes:
            got = [tuple(p ^ (1 << depth) for p in box) for box in got]
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
    instance = (5, 2, (0, 1, 2, 3, 4), random_boxes(seed, 60, 5, 2), None, None)
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
    half's.  The reference loop's own ``box_contains`` calls are
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

    monkeypatch.setattr(helpers_module, "box_contains", recording)
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
    ndim, depth, sao, boxes, _dims, _store = instance
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


# -- every shape compiles -------------------------------------------------------


def test_every_shape_compiles_and_answers():
    """Every store, space, output form and width compiles and answers,
    one kernel per shape."""
    boxes = random_boxes(3, 12, 3, 3)
    expected = brute_force_uncovered(boxes, 3, 3)
    clear_kernel_caches()
    shapes = {
        "list-store": dict(knowledge_base=ListStore(3)),
        "generalized-dims": dict(dims=[FixedDepth(3)] * 3),
        "proof-log": {},
        "return-boxes": {},
    }
    for name, kwargs in shapes.items():
        engine = TetrisEngine(3, 3, **kwargs)
        if name == "proof-log":
            engine.proof = ResolutionProof()
        points = engine.run(
            BoxSetOracle(boxes, 3), preload=True,
            return_boxes=name == "return-boxes",
        )
        if name == "return-boxes":
            points = [tuple(p ^ (1 << 3) for p in box) for box in points]
        assert sorted(points) == expected, name
        if name == "proof-log":
            assert len(engine.proof) == engine.stats.resolutions > 0
            engine.proof.verify()

    wide = random_boxes(7, 36, 9, 1)
    engine = TetrisEngine(9, 1)
    assert callable(tetris_kernel(engine, None, False, capped=False))
    assert sorted(engine.run(BoxSetOracle(wide, 9), preload=True)) == (
        brute_force_uncovered(wide, 9, 1)
    )
    assert kernel_cache_info()["tetris"]["entries"] == len(shapes) + 1


@pytest.mark.parametrize("preload", [True, False])
def test_a_hundred_dimensions_compile_and_take_the_interpreted_steps(
    preload,
):
    """A 100-variable CNF of unit clauses is a 100-dimensional box
    cover with one uncovered point: its kernel compiles (no ``get``
    chain nests one level per dimension) and takes the reference's
    steps."""
    from repro.sat.clauses import CNF, cnf_to_boxes
    from repro.sat.dpll import count_models_tetris

    cnf = CNF(100, [[v if v % 3 else -v] for v in range(1, 101)])
    assert count_models_tetris(cnf) == 1
    sao = tuple(range(99, -1, -1))
    instance = (100, 1, sao, cnf_to_boxes(cnf), None, None)
    for max_outputs in (None, 1):
        got = _run(instance, preload, max_outputs, True, proof=True)
        assert got == _run_interpreted(
            instance, preload, max_outputs, True, proof=True
        )
        assert got[0] == [tuple(int(v % 3 != 0) for v in range(1, 101))]


def test_kernel_nesting_is_bounded_in_the_dimensionality():
    """Past the nested-chain width the generated source's indentation
    no longer grows with ``ndim`` (CPython's tokenizer stops at 100)."""
    from repro.engine.codegen import _tetris_source

    def deepest(n, fetch):
        source = _tetris_source(n, 2, tuple(range(n)), fetch, True, True)
        return max(len(ln) - len(ln.lstrip(" ")) for ln in source.split("\n"))

    for fetch in (False, True):
        assert deepest(9, fetch) == deepest(40, fetch) == deepest(150, fetch)


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
    # A ListStore run compiles the called-probe form of its shape once.
    for _repeat in range(2):
        TetrisEngine(3, 3, knowledge_base=ListStore(3)).run(
            BoxSetOracle(boxes, 3), preload=True
        )
    info = kernel_cache_info()["tetris"]
    assert info["entries"] == len(keys) + 1 == 17
    assert info["misses"] == 17
    assert info["hits"] == 17
