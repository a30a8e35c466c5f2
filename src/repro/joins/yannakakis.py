"""Yannakakis' algorithm for α-acyclic joins [73] — the classic baseline.

Three phases over a join tree (built by GYO ear removal):

1. bottom-up semijoin pass (each child filters its parent),
2. top-down semijoin pass (each parent filters its children),
3. bottom-up join along the tree.

After full reduction every partial tuple extends to an output tuple, so
for a *full* join query the intermediate results never exceed the output
— the Õ(N + Z) guarantee that Table 1's first row credits to [73] and
that Tetris-Preloaded matches (Theorem D.8).

:func:`yannakakis_blocks` streams phase 3 lazily: the semijoin passes
stay O(N) and eager, but the final join cascade — the same generated
kernel the hash backend runs (:func:`repro.engine.codegen.hash_kernel`),
over the reduced relations in join-tree order — materializes nothing
but the block it is filling.  After full reduction every streamed prefix
is output-bound work, making this the natural Õ(N + k) backend for
``execute(..., limit=k)`` on acyclic queries.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.relational.io import BLOCK_ROWS
from repro.relational.query import Database, JoinQuery
from repro.relational.schema import RelationSchema


class JoinTree:
    """A join tree over the query's atoms: parent pointers by atom name."""

    def __init__(
        self,
        order: List[str],
        parent: Dict[str, Optional[str]],
        attrs: Dict[str, Tuple[str, ...]],
    ):
        #: Ear-removal order: leaves first, root last.
        self.order = order
        self.parent = parent
        self.attrs = attrs

    @property
    def root(self) -> str:
        return self.order[-1]


def build_join_tree(query: JoinQuery) -> JoinTree:
    """GYO ear removal over atoms; raises for cyclic queries.

    An atom E is an *ear* when the attributes it shares with the rest of
    the query are all contained in some other atom F; F becomes E's parent.
    """
    remaining: Dict[str, Set[str]] = {
        a.name: set(a.attrs) for a in query.atoms
    }
    attrs = {a.name: a.attrs for a in query.atoms}
    parent: Dict[str, Optional[str]] = {}
    order: List[str] = []
    while len(remaining) > 1:
        ear = None
        for name, vs in remaining.items():
            others = set().union(
                *(v for n, v in remaining.items() if n != name)
            )
            shared = vs & others
            for other, ovs in remaining.items():
                if other != name and shared <= ovs:
                    ear = (name, other)
                    break
            if ear:
                break
        if ear is None:
            raise ValueError(
                "query is not α-acyclic; Yannakakis does not apply"
            )
        name, par = ear
        parent[name] = par
        order.append(name)
        del remaining[name]
    root = next(iter(remaining))
    parent[root] = None
    order.append(root)
    return JoinTree(order, parent, attrs)


def _semijoin(
    left: Set[tuple], left_attrs: Sequence[str],
    right: Set[tuple], right_attrs: Sequence[str],
) -> Set[tuple]:
    """left ⋉ right: keep left tuples matching some right tuple."""
    common = [a for a in left_attrs if a in right_attrs]
    if not common:
        return left if right else set()
    lpos = [list(left_attrs).index(a) for a in common]
    rpos = [list(right_attrs).index(a) for a in common]
    keys = {tuple(t[i] for i in rpos) for t in right}
    return {t for t in left if tuple(t[i] for i in lpos) in keys}


def yannakakis_blocks(
    query: JoinQuery, db: Database, block_rows: int = BLOCK_ROWS
) -> Iterator[List[Tuple[int, ...]]]:
    """An α-acyclic join's output as blocks of rows, lazily (unsorted).

    Phases 1–2 (the semijoin reduction) run eagerly in O(N) at the first
    pull; phase 3 is the hash cascade over the fully-reduced relations,
    so no intermediate join result is ever materialized.
    """
    from repro.engine.codegen import hash_kernel

    tree = build_join_tree(query)
    # The frozenset of each relation is shared zero-copy; semijoins
    # rebind names to fresh (smaller) sets, never mutate.
    tuples: Dict[str, Set[tuple]] = {
        a.name: db[a.name].tuples() for a in query.atoms
    }
    # Phase 1 — bottom-up: each ear filters its parent.
    for name in tree.order[:-1]:
        par = tree.parent[name]
        tuples[par] = _semijoin(
            tuples[par], tree.attrs[par], tuples[name], tree.attrs[name]
        )
    # Phase 2 — top-down: each parent filters its children.
    for name in reversed(tree.order[:-1]):
        par = tree.parent[name]
        tuples[name] = _semijoin(
            tuples[name], tree.attrs[name], tuples[par], tree.attrs[par]
        )
    # Phase 3 — the join cascade, root first, every child after its
    # parent: each stage probes a table built from a reduced relation.
    order = [tree.root, *reversed(tree.order[:-1])]
    kernel = hash_kernel(
        [(name, tree.attrs[name]) for name in order], query.variables
    )
    yield from kernel([tuples[name] for name in order], block_rows)


def iter_yannakakis(
    query: JoinQuery, db: Database
) -> Iterator[Tuple[int, ...]]:
    """Stream an α-acyclic join's output lazily, row by row (unsorted):
    :func:`yannakakis_blocks`, chained."""
    return chain.from_iterable(yannakakis_blocks(query, db))


def join_yannakakis(
    query: JoinQuery, db: Database
) -> List[Tuple[int, ...]]:
    """Evaluate an α-acyclic join; output tuples follow query.variables.

    Materialized and sorted; :func:`iter_yannakakis` is the streaming
    form (duplicate-free: an output row fixes its row in every atom).
    """
    return sorted(iter_yannakakis(query, db))
