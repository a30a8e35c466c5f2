"""Binary hash-join plans — the traditional pairwise-join baseline.

Evaluates the query as a left-deep sequence of binary hash joins in a
given (or size-ascending) atom order.  On cyclic queries this is the
algorithm the AGM line of work beats: intermediate results can blow up to
Θ(N²) on triangle instances whose output is far smaller.

:func:`iter_hash` runs the plan as a **lazy generator pipeline**: every
probe side streams, only the per-stage hash tables (built from base
relations, O(N) total) are materialized — intermediate results never
are, so taking k rows does O(k)-ish probe work beyond the table builds.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.joins.pipeline import hash_stage, probe
from repro.relational.query import Database, JoinQuery


def _plan_order(
    query: JoinQuery, db: Database, atom_order: Optional[Sequence[str]]
) -> List[str]:
    """Default join order: size-ascending, but connectivity-aware.

    Start from the smallest atom, then repeatedly take the smallest
    atom sharing an attribute with what's joined so far — a pure
    size sort can interleave disconnected atoms and silently insert a
    cross-product stage (clipped shard databases, where relative sizes
    shift, hit this hard).  A cross product only happens when the query
    hypergraph itself is disconnected.
    """
    if atom_order is not None:
        if sorted(atom_order) != sorted(a.name for a in query.atoms):
            raise ValueError(f"{atom_order} does not enumerate the atoms")
        return list(atom_order)
    remaining = {a.name: set(a.attrs) for a in query.atoms}
    first = min(remaining, key=lambda n: (len(db[n]), n))
    order = [first]
    bound = set(remaining.pop(first))
    while remaining:
        connected = [n for n, attrs in remaining.items() if attrs & bound]
        pool = connected if connected else list(remaining)
        nxt = min(pool, key=lambda n: (len(db[n]), n))
        order.append(nxt)
        bound |= remaining.pop(nxt)
    return order


def iter_hash(
    query: JoinQuery,
    db: Database,
    atom_order: Optional[Sequence[str]] = None,
    compiled: Optional[bool] = None,
) -> Iterator[Tuple[int, ...]]:
    """Stream the left-deep plan's output lazily (unsorted).

    Hash tables for every non-leading atom are built up front (they hash
    base relations, never intermediates); the probe cascade then streams,
    so no intermediate result is ever materialized.  By default the
    whole cascade — table builds included — runs as one compiled kernel
    (:func:`repro.engine.codegen.hash_kernel`) with scalar join keys and
    constant-folded projections; ``compiled=False`` forces the
    interpreted generator pipeline, the semantic reference.
    """
    order = _plan_order(query, db, atom_order)
    if compiled is not False:
        from repro.engine.codegen import hash_kernel

        specs = [
            (name, query.atom(name).attrs) for name in order
        ]
        kernel = hash_kernel(specs, query.variables)
        if kernel is not None:
            rels = [db[name].rows() for name in order]
            yield from kernel(rels)
            return
    first = query.atom(order[0])
    acc_attrs: List[str] = list(first.attrs)
    stream: Iterator[tuple] = iter(db[first.name].rows())
    for name in order[1:]:
        atom = query.atom(name)
        table, lpos_common, new_attrs = hash_stage(
            acc_attrs, atom.attrs, db[name]
        )
        stream = probe(stream, table, lpos_common)
        acc_attrs = acc_attrs + new_attrs
    positions = [acc_attrs.index(v) for v in query.variables]
    for t in stream:
        yield tuple(t[i] for i in positions)


def join_hash(
    query: JoinQuery,
    db: Database,
    atom_order: Optional[Sequence[str]] = None,
    compiled: Optional[bool] = None,
) -> List[Tuple[int, ...]]:
    """Left-deep binary hash-join plan; outputs follow query.variables.

    ``atom_order`` names atoms in join order; defaults to the
    connectivity-aware size-ascending heuristic of :func:`_plan_order`.
    Materialized and sorted; :func:`iter_hash` is the streaming form.
    The stream needs no de-duplication: relations are sets, and an output
    row fixes the row it was built from in every atom.
    """
    return sorted(
        iter_hash(query, db, atom_order=atom_order, compiled=compiled)
    )


def intermediate_sizes(
    query: JoinQuery,
    db: Database,
    atom_order: Optional[Sequence[str]] = None,
) -> List[int]:
    """Sizes of every intermediate result of the left-deep plan.

    Used by the crossover benchmarks to show the Θ(N²) blowups that
    worst-case-optimal joins avoid.  Defaults to the same order
    :func:`join_hash` executes, so the reported sizes are the real
    plan's.
    """
    if atom_order is None:
        atom_order = _plan_order(query, db, None)
    sizes = []
    sub_atoms = []
    for name in atom_order:
        sub_atoms.append(query.atom(name))
        sub_query = JoinQuery(sub_atoms)
        sizes.append(len(join_hash(sub_query, db, atom_order=[
            a.name for a in sub_atoms
        ])))
    return sizes
