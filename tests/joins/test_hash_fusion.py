"""The fused hash cascade against the unfused one it replaced.

A check stage (an atom adding no attribute) whose latest-bound attribute
was bound by an earlier one-attribute table lookup is fused into that
lookup: the lookup binds from the sorted intersection of its table and
the check's, instead of probing the check once per candidate.  The
unfused emitter is frozen in ``tests/helpers.py`` as the reference.
Over sorted relations (what ``Relation.rows()`` hands the kernel) both
must yield the same rows in the same order, whatever the block size;
over Yannakakis' unordered reduced sets only the row set is promised.
"""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import execute
from repro.engine.codegen import hash_kernel
from repro.joins.yannakakis import iter_yannakakis
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
from tests.helpers import reference_hash_kernel, reference_hash_source


def _q(*atoms):
    return JoinQuery([RelationSchema(n, a) for n, a in atoms])


def _specs(query):
    return [(a.name, a.attrs) for a in query.atoms]


#: name -> (query, fuses): ``fuses`` is whether its own atom order
#: fuses a check.
SHAPES = {
    "triangle": (triangle_query(), True),
    "cycle4": (cycle_query(4), True),
    "cycle5": (cycle_query(5), True),
    "clique4": (clique_query(4), True),
    # A unary check joins the intersection as a plain set.
    "unary_check": (_q(("R", ("A", "B")), ("S", ("B", "C")), ("U", ("C",))), True),
    # Two checks fuse into one stage: T and U both end on C.
    "two_checks": (
        _q(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")),
           ("U", ("C",))),
        True,
    ),
    # A ternary check keyed on a pair.
    "ternary_check": (
        _q(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D")),
           ("W", ("D", "A", "B"))),
        True,
    ),
    # The check's last attribute comes from the first atom: unfused.
    "first_atom_check": (
        _q(("R", ("A", "B", "C")), ("S", ("C", "B")), ("T", ("C", "D"))),
        False,
    ),
    # The check's last attribute comes from a stage adding two: unfused.
    "two_new_check": (
        _q(("R", ("A", "B")), ("S", ("B", "C", "D")), ("T", ("A", "D"))),
        False,
    ),
}


#: Ascending values whose sets do not iterate ascending (``list({5, 32,
#: 1024})`` is ``[32, 1024, 5]``), so a fused stage that forgot to sort
#: its intersection shows as a reordered stream.
VALUES = (5, 9, 13, 32, 40, 64, 77, 1024, 4099)


def _flat(kernel, rels, block_rows):
    return [row for block in kernel(rels, block_rows) for row in block]


def _check_same_stream(specs, variables, rels):
    fused = hash_kernel(specs, variables)
    reference = reference_hash_kernel(specs, variables)
    expected = _flat(reference, rels, 3)
    for block_rows in (1, 3, 64):
        assert _flat(fused, rels, block_rows) == expected, specs
    return expected


@st.composite
def _instance(draw):
    name = draw(st.sampled_from(sorted(SHAPES)))
    query, _fuses = SHAPES[name]
    specs = _specs(query)
    perm = draw(st.permutations(range(len(specs))))
    order = [specs[i] for i in perm]
    values = st.sampled_from(VALUES[:draw(st.integers(1, len(VALUES)))])
    rels = [
        sorted(draw(st.sets(
            st.tuples(*[values] * len(attrs)),
            max_size=14,
        )))
        for _name, attrs in order
    ]
    return query, order, rels


@settings(max_examples=300, deadline=None)
@given(_instance())
def test_fused_cascade_matches_the_reference_row_for_row(instance):
    query, order, rels = instance
    _check_same_stream(order, query.variables, rels)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_atom_order_and_empty_relations(shape):
    query, _fuses = SHAPES[shape]
    specs = _specs(query)
    full = [
        sorted(itertools.product((5, 32, 1024), repeat=len(attrs)))
        for _name, attrs in specs
    ]
    for perm in itertools.permutations(range(len(specs))):
        order = [specs[i] for i in perm]
        rels = [full[i] for i in perm]
        assert _check_same_stream(order, query.variables, rels)
        for empty in range(len(order)):
            hollow = [[] if j == empty else r for j, r in enumerate(rels)]
            assert _check_same_stream(order, query.variables, hollow) == []
        if len(order) > 4:
            break    # cycle5 and clique4: the own order (reversed below)
    _check_same_stream(specs[::-1], query.variables, full[::-1])


def _hub_triangle(leaves):
    """A star on ``leaves`` leaves plus a path through them, symmetrised:
    the hub's degree makes every unfused probe count."""
    edges = {(0, i) for i in range(1, leaves + 1)}
    edges |= {(i, i + 1) for i in range(1, leaves)}
    rows = sorted(edges | {(b, a) for a, b in edges})
    query = triangle_query()
    depth = leaves.bit_length()
    return query, Database([Relation(a, rows, Domain(depth)) for a in query.atoms])


def test_hub_triangle():
    query, db = _hub_triangle(60)
    specs = _specs(query)
    rels = [db[name].rows() for name, _attrs in specs]
    rows = _check_same_stream(specs, query.variables, rels)
    assert rows == evaluate_reference(query, db)
    assert len(rows) == 6 * 59
    _check_same_stream(specs[::-1], query.variables, rels[::-1])
    assert execute(query, db, algorithm="hash").tuples == rows


def test_yannakakis_keeps_its_row_set():
    """Phase 3 runs the cascade over unordered reduced sets: the fused
    check changes the stream's order there, never its rows."""
    query, _fuses = SHAPES["unary_check"]
    values = range(4)
    data = {
        "R": [(a, b) for a in values for b in values if (a + b) % 3],
        "S": [(b, c) for b in values for c in values if b != c],
        "U": [(0,), (2,), (3,)],
    }
    db = Database([
        Relation(a, data[a.name], Domain(2)) for a in query.atoms
    ])
    rows = list(iter_yannakakis(query, db))
    assert sorted(rows) == evaluate_reference(query, db)
    assert len(set(rows)) == len(rows)
    assert execute(query, db, algorithm="yannakakis").tuples == sorted(rows)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fused_sources_intersect_and_the_rest_are_unchanged(shape):
    query, fuses = SHAPES[shape]
    specs = _specs(query)
    source = hash_kernel(specs, query.variables).source
    if fuses:
        assert " & " in source and "sorted(" in source, source
        assert "F = frozenset()" in source
    else:
        assert source == reference_hash_source(specs, query.variables)


@pytest.mark.parametrize("query", [
    triangle_query(), cycle_query(4), cycle_query(5), clique_query(4),
])
def test_cyclic_kernels_intersect_instead_of_probing(query):
    for specs in (_specs(query), _specs(query)[::-1]):
        source = hash_kernel(specs, query.variables).source
        assert " & " in source, source
        assert not re.search(r" in s\d", source), source


@pytest.mark.parametrize("query", [
    path_query(2), path_query(3), path_query(4), star_query(3), star_query(4),
])
def test_acyclic_sources_are_byte_identical(query):
    for specs in (_specs(query), _specs(query)[::-1]):
        assert hash_kernel(specs, query.variables).source == (
            reference_hash_source(specs, query.variables)
        )
