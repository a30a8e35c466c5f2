"""Binary hash-join plans — the traditional pairwise-join baseline.

Evaluates the query as a left-deep sequence of binary hash joins in a
given (or size-ascending) atom order.  On cyclic queries this is the
algorithm the AGM line of work beats: intermediate results can blow up to
Θ(N²) on triangle instances whose output is far smaller.

:func:`hash_blocks` runs the plan lazily: every probe side streams,
only the per-stage hash tables (built from base relations, O(N) total)
are materialized — intermediate results never are, so taking k rows does
O(k)-ish probe work beyond the table builds.  The cascade is the
per-plan kernel generated by :func:`repro.engine.codegen.hash_kernel`,
which hands rows over a block (a list of ``block_rows`` rows) at a time;
this module picks the atom order (:func:`hash_order`, from the plan's
GAO) and runs it, :func:`iter_hash` chains the blocks back into a row
iterator, and :func:`~repro.joins.nested_loop.join_nested_loop` is the
oracle the tests compare it to.

A cascade emits its rows sorted exactly when it binds variables in
``query.variables`` order (:func:`binding_order`): ``Relation.rows()``
is sorted, each per-key build list is appended in row order, a stage
with a check atom fused in walks its ``sorted`` intersection, and the
product suffix takes its arguments in ``variables`` order, so the rows
come out lexicographic in the binding order.  The query's own atom
order binds in that order — ``variables`` is the first-seen order over
the atoms — so the cost model prices it with no sort beside the
size-ascending :func:`left_deep_order` with one.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterator, List, Optional, Sequence, Tuple

from repro.relational.io import BLOCK_ROWS
from repro.relational.query import Database, JoinQuery
from repro.relational.schema import RelationSchema


def left_deep_order(
    atoms: Sequence[RelationSchema], sizes: Sequence[int]
) -> List[str]:
    """The default join order: size-ascending, but connectivity-aware.

    Start from the smallest atom, then repeatedly take the smallest
    atom sharing an attribute with what's joined so far — a pure
    size sort can interleave disconnected atoms and silently insert a
    cross-product stage (clipped shard databases, where relative sizes
    shift, hit this hard).  A cross product only happens when the query
    hypergraph itself is disconnected.  Ties in size go by name.

    ``sizes`` are the atoms' sizes, in ``atoms`` order: :func:`hash_order`
    passes the relations' row counts.  The cost model ranks the
    profiled cardinalities the same way and calls
    :func:`connected_order` on the ranking — one function, so the order
    that is priced is the order that runs.  It is the hash plan's order
    only when it binds variables out of output order and the cost model
    finds it cheaper than the query's own order plus the sort.
    """
    names = [a.name for a in atoms]
    # Ascending (size, name): a stable sort by size of the atoms by name.
    ranking = sorted(
        sorted(range(len(names)), key=names.__getitem__),
        key=sizes.__getitem__,
    )
    order = connected_order(ranking, [a.attrs for a in atoms])
    return [names[i] for i in order]


def connected_order(
    ranking: Sequence[int], attrs: Sequence[Collection[str]]
) -> List[int]:
    """The atoms of ``ranking`` (indices into ``attrs``, best first)
    joined connectivity-first: each step takes the first remaining atom
    that shares an attribute with those before it, or the first
    remaining one when none does."""
    first = ranking[0]
    order = [first]
    bound = set(attrs[first])
    remaining = list(ranking[1:])
    while remaining:
        k = 0
        for i in remaining:
            if not bound.isdisjoint(attrs[i]):
                break
            k += 1
        else:
            k = 0
        i = remaining.pop(k)
        order.append(i)
        bound.update(attrs[i])
    return order


def binding_order(
    query: JoinQuery, atom_order: Sequence[str]
) -> Tuple[str, ...]:
    """The order a left-deep cascade over ``atom_order`` binds variables
    in: each atom's new attributes, in the atom's attribute order."""
    return tuple(dict.fromkeys(
        a for name in atom_order for a in query.atom(name).attrs
    ))


def hash_order(
    query: JoinQuery, db: Database, gao: Optional[Sequence[str]] = None
) -> List[str]:
    """The atom order the hash backend runs for a GAO.

    ``gao`` is a plan's: the :func:`binding_order` of the atom order the
    cost model priced.  Under ``query.variables`` the query's own atom
    order runs, and its rows come out sorted; under any other GAO,
    :func:`left_deep_order` over the relations' sizes.  Without one the
    hash plan of ``(query, db)`` supplies it, so a direct call runs the
    kernel ``execute(query, db)`` runs when it picks hash.  (A serial
    plan carries the order it priced, ``Plan.atom_order``, and the
    executor runs that; a shard of a parallel run, whose clipped sizes
    differ, and a plan whose GAO the caller set come here.)
    """
    if gao is None:
        from repro.engine.planner import plan_query

        gao = plan_query(query, db, algorithm="hash").gao
    if tuple(gao) == query.variables:
        return [a.name for a in query.atoms]
    return left_deep_order(query.atoms, [len(db[a.name]) for a in query.atoms])


def _plan_order(
    query: JoinQuery, db: Database, atom_order: Optional[Sequence[str]]
) -> List[str]:
    """The caller's atom order, validated, or :func:`hash_order`'s."""
    if atom_order is None:
        return hash_order(query, db)
    if sorted(atom_order) != sorted(a.name for a in query.atoms):
        raise ValueError(f"{atom_order} does not enumerate the atoms")
    return list(atom_order)


def hash_blocks(
    query: JoinQuery,
    db: Database,
    atom_order: Optional[Sequence[str]] = None,
    block_rows: int = BLOCK_ROWS,
) -> Iterator[List[Tuple[int, ...]]]:
    """The left-deep plan's output as blocks of rows, lazily.

    Sorted when the atom order binds in ``query.variables`` order (as
    the default does whenever the plan's GAO is that order), unsorted
    otherwise.

    Hash tables for every non-leading atom are built at the first pull
    (they hash base relations, never intermediates); the probe cascade
    then streams ``block_rows`` rows per pull.  Builds and probes are one
    generated kernel (:func:`repro.engine.codegen.hash_kernel`).
    """
    from repro.engine.codegen import hash_kernel

    order = _plan_order(query, db, atom_order)
    specs = [(name, query.atom(name).attrs) for name in order]
    kernel = hash_kernel(specs, query.variables)
    yield from kernel([db[name].rows() for name in order], block_rows)


def iter_hash(
    query: JoinQuery,
    db: Database,
    atom_order: Optional[Sequence[str]] = None,
) -> Iterator[Tuple[int, ...]]:
    """Stream the left-deep plan's output lazily, row by row:
    :func:`hash_blocks`, chained."""
    return chain.from_iterable(hash_blocks(query, db, atom_order))


def join_hash(
    query: JoinQuery,
    db: Database,
    atom_order: Optional[Sequence[str]] = None,
) -> List[Tuple[int, ...]]:
    """Left-deep binary hash-join plan; outputs follow query.variables.

    ``atom_order`` names atoms in join order; defaults to
    :func:`hash_order`'s, the order ``execute()`` runs.
    Materialized and sorted; :func:`iter_hash` is the streaming form.
    The stream needs no de-duplication: relations are sets, and an output
    row fixes the row it was built from in every atom.
    """
    return sorted(iter_hash(query, db, atom_order=atom_order))


def intermediate_sizes(
    query: JoinQuery,
    db: Database,
    atom_order: Optional[Sequence[str]] = None,
) -> List[int]:
    """Sizes of every intermediate result of the binary left-deep plan.

    The join of each prefix of the atom order, the Θ(N²) blowups that
    worst-case-optimal joins avoid.  Defaults to the order
    :func:`join_hash` executes.  On an acyclic prefix chain these are
    what the kernel walks; on a cyclic shape they are not, because the
    kernel fuses a check atom into the lookup before it (a triangle
    walks Σ min(deg_S b, deg_T a), not |R ⋈ S|).  The cost model still
    prices hash by estimates of these sizes.
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
