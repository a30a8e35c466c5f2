"""Independent reference join and the per-operation output check.

Imports nothing from ``repro``: a dict-bucketed natural join over the raw
tuple lists the benchmark generated, folded into a row count and an
order-independent checksum.  Every operation's output is reduced to the
same ``(count, checksum)`` digest and compared here, outside any timed
region.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Row = Tuple[int, ...]
Atom = Tuple[str, Tuple[str, ...]]
Digest = Tuple[int, int]

_MASK = (1 << 64) - 1


def natural_join(
    atoms: Sequence[Atom], data: Dict[str, Sequence[Row]]
) -> List[Row]:
    """Every row, over the attributes in order of first appearance, whose
    projection onto each atom is one of that atom's tuples.

    Atom by atom: bucket the atom's rows on the attributes already bound,
    extend every partial row by the matching bucket.
    """
    bound: Tuple[str, ...] = ()
    partials: List[Row] = [()]
    for name, attrs in atoms:
        shared = [i for i, a in enumerate(attrs) if a in bound]
        fresh = [i for i, a in enumerate(attrs) if a not in bound]
        buckets: Dict[Row, List[Row]] = {}
        for row in set(map(tuple, data[name])):
            key = tuple(row[i] for i in shared)
            buckets.setdefault(key, []).append(tuple(row[i] for i in fresh))
        lookup = [bound.index(attrs[i]) for i in shared]
        partials = [
            p + ext
            for p in partials
            for ext in buckets.get(tuple(p[i] for i in lookup), ())
        ]
        bound += tuple(attrs[i] for i in fresh)
    return partials


def digest(rows: Iterable[Row]) -> Digest:
    """``(count, checksum)``; the checksum ignores row order.

    ``hash`` of a tuple of ints does not depend on ``PYTHONHASHSEED``.
    """
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += hash(row)
    return count, total & _MASK


def expected_digest(
    atoms: Sequence[Atom], data: Dict[str, Sequence[Row]]
) -> Digest:
    return digest(natural_join(atoms, data))


def mismatch(got: Sequence[int], want: Sequence[int]) -> Optional[str]:
    """``None`` when an operation's digest equals the reference, else why not."""
    if tuple(got) == tuple(want):
        return None
    if got[0] != want[0]:
        return f"{got[0]} rows, reference has {want[0]}"
    return f"{got[0]} rows as expected but checksum {got[1]} != {want[1]}"
