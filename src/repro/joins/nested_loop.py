"""Block-nested-loop join — the simplest (and slowest) baseline.

Iterates the tuples of the first atom and extends bindings atom by atom,
checking compatibility eagerly.  Exponential in the worst case; included
as the sanity-check floor for the benchmark suite.  :func:`iter_nested_loop`
streams rows lazily — it was always a generator at heart.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.relational.query import Database, JoinQuery


def iter_nested_loop(
    query: JoinQuery, db: Database
) -> Iterator[Tuple[int, ...]]:
    """Stream the join output lazily (unsorted, duplicate-free).

    Relations are sets, so every completed binding is produced exactly
    once: each atom either pins its row uniquely (all attrs bound) or
    contributes fresh attrs that distinguish the extensions.
    """
    yield from _extend(query, db, 0, {})


def _extend(
    query: JoinQuery, db: Database, atom_index: int, binding: Dict[str, int]
) -> Iterator[Tuple[int, ...]]:
    """Every completion of ``binding`` by atoms ``atom_index`` onward.

    A module function, not a closure: a recursive closure reaches
    itself through its cell, and every query would leave a reference
    cycle behind for the collector.
    """
    if atom_index == len(query.atoms):
        yield tuple(binding[v] for v in query.variables)
        return
    atom = query.atoms[atom_index]
    for row in db[atom.name]:
        merged = dict(binding)
        ok = True
        for attr, value in zip(atom.attrs, row):
            if merged.get(attr, value) != value:
                ok = False
                break
            merged[attr] = value
        if ok:
            yield from _extend(query, db, atom_index + 1, merged)


def join_nested_loop(
    query: JoinQuery, db: Database
) -> List[Tuple[int, ...]]:
    """Evaluate a join by nested iteration; outputs follow query.variables.

    Materialized and sorted; :func:`iter_nested_loop` is the streaming
    form.
    """
    return sorted(set(iter_nested_loop(query, db)))
