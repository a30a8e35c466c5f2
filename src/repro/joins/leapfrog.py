"""Generic worst-case-optimal join (Leapfrog Triejoin / NPRR skeleton).

The attribute-at-a-time join of [52, 72]: fix a global attribute order;
at each level intersect, across all atoms containing the attribute, the
value sets compatible with the current partial binding.  Leapfrogging
the smallest candidate set against the others realizes the AGM bound
(Table 1 row 2's comparator class).

Instead of materializing nested-dict tries per call, each atom is read
as a ``(lo, hi)`` row range directly over the relation's **cached
sorted view** for its GAO-restricted order
(:meth:`Relation.sorted_by`): within a range the column at the atom's
current depth is sorted, so every *seek* — "advance to the first row
with value ≥ v" — **gallops**: a doubling probe from the current
position finds a bracketing window in O(log distance), and a bisection
inside the window pins the exact row.  Skewed inputs, where one atom's
cursor must leap over long runs, cost logarithmic instead of linear
time, and repeated joins over the same database never rebuild anything
— the sorted views are shared, zero-copy, for the lifetime of the
relations.

The intersection itself is the per-(query, GAO) kernel generated by
:func:`repro.engine.codegen.leapfrog_kernel` — literal nested loops
over the views' flat columns; this module validates the GAO, fetches
the views and runs it.  There is no second implementation:
:func:`~repro.joins.nested_loop.join_nested_loop` and
``evaluate_reference`` are the oracles the tests compare it to.

**Rows leave the kernel in blocks** (the contract is in
:mod:`repro.engine.codegen`): :func:`leapfrog_blocks` yields lists of at
least ``block_rows`` and fewer than ``2 × block_rows`` rows whose
concatenation is the output in GAO-lexicographic order — under ``gao ==
query.variables`` sorted runs ascending across their boundaries, which
:func:`join_leapfrog` (like ``execute()``) concatenates without a sort.
A view is a set, so an atom's last column has runs of length 1 under a
fixed prefix: the innermost level never narrows a run, and trailing
levels that touch one atom each are one ``itertools.product``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.indexes.oracle import default_gao
from repro.relational.io import BLOCK_ROWS, sorted_rows
from repro.relational.query import Database, JoinQuery

Row = Tuple[int, ...]


def leapfrog_blocks(
    query: JoinQuery,
    db: Database,
    gao: Optional[Sequence[str]] = None,
    block_rows: int = BLOCK_ROWS,
) -> Iterator[List[Row]]:
    """The join output as blocks of rows, lazily (see the module text).

    Rows follow ``query.variables`` component order, in GAO enumeration
    order, duplicate-free; nothing — GAO validation included — runs
    before the first pull, and a pull does only its block's work.
    """
    gao = tuple(gao) if gao is not None else default_gao(query)
    if sorted(gao) != sorted(query.variables):
        raise ValueError(
            f"GAO {gao} is not a permutation of {query.variables}"
        )
    # Per-atom cached sorted views in GAO-restricted order.  The rows
    # come from the relation's shared view cache — one sort per
    # (relation, order) for the lifetime of the database, not per join.
    views = [
        db.sorted_view(
            atom.name, tuple(a for a in gao if a in atom.attrs)
        )
        for atom in query.atoms
    ]
    from repro.engine.codegen import leapfrog_kernel

    yield from leapfrog_kernel(query, gao)(views, block_rows)


def iter_leapfrog(
    query: JoinQuery,
    db: Database,
    gao: Optional[Sequence[str]] = None,
) -> Iterator[Row]:
    """Stream the join output lazily, row by row:
    :func:`leapfrog_blocks`, chained."""
    return chain.from_iterable(leapfrog_blocks(query, db, gao))


def join_leapfrog(
    query: JoinQuery,
    db: Database,
    gao: Optional[Sequence[str]] = None,
) -> List[Row]:
    """Evaluate a join with the generic WCOJ algorithm, materialized.

    Output tuples follow ``query.variables`` order regardless of the GAO
    and are sorted — by construction when the GAO is ``query.variables``
    (the blocks are concatenated), by ``sort()`` otherwise.
    """
    gao = tuple(gao) if gao is not None else default_gao(query)
    return sorted_rows(
        leapfrog_blocks(query, db, gao), gao == query.variables
    )
