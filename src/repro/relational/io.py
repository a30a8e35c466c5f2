"""Loading real data: value dictionaries, CSV / edge-list readers.

The geometric machinery works over integer domains ``[0, 2^d)``; real
datasets have strings, floats, sparse ids.  ``ValueDictionary`` provides
the standard dictionary encoding (dense ints in first-seen order, with
decode for presenting results), and the readers build
:class:`~repro.relational.relation.Relation` objects directly from
delimited files.
"""

from __future__ import annotations

import csv
import gc
from itertools import chain, count, islice
from pathlib import Path
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.relational.query import Database, JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema


#: Rows per block — the unit in which rows leave a join kernel, cross
#: the cursor, are decoded (:meth:`ValueDictionary.decode_rows`) and
#: written by ``repro join``: large enough that the per-block work is
#: noise, small enough that a reader is never two of these ahead.
BLOCK_ROWS = 4096


def block_rows_for(limit: Optional[int]) -> int:
    """The block size of a stream cut at ``limit``: never more than the
    limit, so ``limit=k`` does O(k) work, and never less than one row."""
    return BLOCK_ROWS if limit is None else max(1, min(limit, BLOCK_ROWS))


def row_blocks(rows: Iterable, block_rows: int = BLOCK_ROWS) -> Iterator[List]:
    """Cut a row stream into lists of ``block_rows`` (the last shorter),
    pulling no further ahead than the block being filled."""
    rows = iter(rows)
    while block := list(islice(rows, block_rows)):
        yield block


def concat_blocks(
    blocks: Iterable[List], sorted_runs: bool
) -> Tuple[List, bool]:
    """Every row of a block stream in one list; the flag says it is sorted.

    Only a stream that declares its blocks **sorted runs** can earn the
    flag: each is appended as it arrives (no list of lists is held), and
    when every boundary ascends (``prev[-1] < next[0]``) the result *is*
    the sorted output — otherwise the runs interleave: the caller sorts.
    """
    if not sorted_runs:
        return list(chain.from_iterable(blocks)), False
    rows: List = []
    ordered = True
    for run in blocks:
        if rows and run and not rows[-1] < run[0]:
            ordered = False
        rows += run
    return rows, ordered


class gc_paused:
    """Hold the cyclic collector off while a block of rows is built.

    Every output row is a new tracked tuple, so building a result
    triggers generation scans that find nothing to collect: the rows
    are alive, and what a join frees it frees by refcount.  Entering
    disables the collector, leaving re-enables it only if entering
    found it on, so pauses nest and a caller's own ``gc.disable()``
    stands.  A class, not a generator context manager: ``execute()``
    enters one per query.  Rows the caller keeps are scanned once, by
    the first young-generation pass after the pause.  The collector is
    process-wide: pauses overlapping in several threads end when the
    first one that found it on exits.
    """

    __slots__ = ("_resume",)

    def __enter__(self) -> "gc_paused":
        self._resume = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, *exc) -> None:
        if self._resume:
            gc.enable()


def sorted_rows(blocks: Iterable[List], sorted_runs: bool) -> List:
    """Every row of a block stream, sorted (by concatenation alone when
    its sorted runs tile the output in order)."""
    rows, ordered = concat_blocks(blocks, sorted_runs)
    if not ordered:
        rows.sort()
    return rows


def _regroup(cells: Iterator, rows: Sequence[Sequence]) -> List[Tuple]:
    """Cut a flat cell stream back into tuples shaped like ``rows``."""
    widths = set(map(len, rows))
    if len(widths) == 1 and 0 not in widths:
        return list(zip(*[cells] * widths.pop()))
    return [tuple(islice(cells, len(row))) for row in rows]


class ValueDictionary:
    """Dictionary encoding: arbitrary hashable values ↔ dense integers.

    Every attribute shares one dictionary by default, which keeps natural
    joins meaningful (equal values encode equally across relations).
    ``encode`` / ``encode_row`` / ``decode`` / ``decode_row`` are the
    single-value API; whole relations and results go through
    :meth:`encode_rows` / :meth:`decode_rows`, which do the same work
    without a Python frame per cell.
    """

    def __init__(self):
        self._encode: Dict[Hashable, int] = {}
        self._decode: List[Hashable] = []

    def __len__(self) -> int:
        return len(self._decode)

    def encode(self, value: Hashable) -> int:
        code = self._encode.get(value)
        if code is None:
            code = len(self._decode)
            self._encode[value] = code
            self._decode.append(value)
        return code

    def encode_row(self, row: Sequence[Hashable]) -> Tuple[int, ...]:
        return tuple(self.encode(v) for v in row)

    def encode_rows(
        self, rows: Iterable[Sequence[Hashable]]
    ) -> List[Tuple[int, ...]]:
        """Encode many rows at once.

        New values get their codes in row-major first-seen order —
        exactly the codes :meth:`encode_row` hands out row by row.
        """
        if not isinstance(rows, list):
            rows = list(rows)
        cells = list(chain.from_iterable(rows))
        codes = self._encode
        fresh = [v for v in dict.fromkeys(cells) if v not in codes]
        codes.update(zip(fresh, count(len(self._decode))))
        self._decode.extend(fresh)
        return _regroup(map(codes.__getitem__, cells), rows)

    def decode(self, code: int) -> Hashable:
        if not 0 <= code < len(self._decode):
            raise KeyError(f"code {code} not in dictionary")
        return self._decode[code]

    def decode_row(self, row: Sequence[int]) -> Tuple[Hashable, ...]:
        return tuple(self.decode(c) for c in row)

    def decode_rows(
        self, rows: Iterable[Sequence[int]]
    ) -> Iterator[Tuple[Hashable, ...]]:
        """Lazily decode a stream of rows, :data:`BLOCK_ROWS` at a time.

        Cursor-friendly: never more than one block of ``rows`` is pulled
        ahead of the consumer, and no list of the whole result is held.
        """
        for block in row_blocks(rows):
            codes = list(chain.from_iterable(block))
            if codes and 0 <= min(codes) and max(codes) < len(self._decode):
                yield from _regroup(
                    map(self._decode.__getitem__, codes), block
                )
            else:
                # Row by row, so that the rows before a code the
                # dictionary never issued still come out and
                # ``decode`` raises its KeyError at that code.
                yield from map(self.decode_row, block)

    def domain(self) -> Domain:
        """The smallest power-of-two domain holding every code."""
        return Domain.for_values(max(len(self) - 1, 0))


def read_csv_rows(
    path: str | Path, delimiter: str = ",", skip_header: bool = False
) -> List[Tuple[str, ...]]:
    """Raw string rows of a delimited file: cells stripped of
    surrounding whitespace, blank lines skipped."""
    with open(path, newline="") as handle:
        rows = list(map(tuple, csv.reader(handle, delimiter=delimiter)))
    if skip_header:
        del rows[:1]
    cells = list(chain.from_iterable(rows))
    if all(map(any, rows)) and cells == list(map(str.strip, cells)):
        return rows  # the usual file: nothing to strip, nothing to drop
    stripped = (tuple(map(str.strip, row)) for row in rows)
    return [row for row in stripped if any(row)]


def database_from_csvs(
    query: JoinQuery,
    paths: Dict[str, str | Path],
    delimiter: str = ",",
    skip_header: bool = False,
) -> Tuple[Database, ValueDictionary]:
    """Load one CSV per query atom into a Database with a shared dictionary.

    Column order in each file must match the atom's attribute order.
    Returns the database and the dictionary for decoding results.
    Each file is read, checked and encoded once, in atom order; the
    domain is sized when the last file has fed the dictionary.
    """
    dictionary = ValueDictionary()
    encoded: List[List[Tuple[int, ...]]] = []
    for atom in query.atoms:
        if atom.name not in paths:
            raise ValueError(f"no file given for relation {atom.name}")
        rows = read_csv_rows(
            paths[atom.name], delimiter=delimiter, skip_header=skip_header
        )
        if set(map(len, rows)) - {atom.arity}:
            row = next(r for r in rows if len(r) != atom.arity)
            raise ValueError(
                f"{atom.name}: row {row} has {len(row)} columns, "
                f"schema expects {atom.arity}"
            )
        encoded.append(dictionary.encode_rows(rows))
    domain = dictionary.domain()
    relations = [
        Relation(atom, codes, domain)
        for atom, codes in zip(query.atoms, encoded)
    ]
    return Database(relations), dictionary


def read_edge_list(path: str | Path) -> List[Tuple[str, str]]:
    """Parse a whitespace-separated edge list (comments start with #).

    A line with fewer than two fields raises ``ValueError("<path>:<line>:
    …")``.
    """
    edges: List[Tuple[str, str]] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(
                    f"{path}:{number}: malformed edge line: {line!r}"
                )
            edges.append((parts[0], parts[1]))
    return edges


def parse_query(spec: str) -> JoinQuery:
    """Parse a query like ``"R(A,B), S(B,C), T(A,C)"`` into a JoinQuery."""
    atoms: List[RelationSchema] = []
    spec = spec.strip()
    if not spec:
        raise ValueError("empty query specification")
    depth = 0
    start = 0
    chunks: List[str] = []
    for i, ch in enumerate(spec):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {spec!r}")
        elif ch == "," and depth == 0:
            chunks.append(spec[start:i])
            start = i + 1
    chunks.append(spec[start:])
    for chunk in chunks:
        chunk = chunk.strip()
        if "(" not in chunk or not chunk.endswith(")"):
            raise ValueError(f"malformed atom {chunk!r}")
        name, _, body = chunk.partition("(")
        name = name.strip()
        if not name:
            raise ValueError(f"atom missing a relation name: {chunk!r}")
        attrs = [a.strip() for a in body[:-1].split(",")]
        if any(not a for a in attrs):
            raise ValueError(f"atom {chunk!r} has an empty attribute")
        atoms.append(RelationSchema(name, tuple(attrs)))
    return JoinQuery(atoms)


def read_dimacs(path: str | Path):
    """Parse a DIMACS CNF file into a :class:`repro.sat.clauses.CNF`.

    A malformed problem line or clause token raises
    ``ValueError("<path>:<line>: …")``.
    """
    from repro.sat.clauses import CNF

    num_vars = None
    clauses: List[List[int]] = []
    current: List[int] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("c", "%")):
                continue
            if line.startswith("p"):
                parts = line.split()
                if (len(parts) != 4 or parts[1] != "cnf"
                        or not all(f.isdecimal() for f in parts[2:])):
                    raise ValueError(
                        f"{path}:{number}: malformed problem line: {line!r}"
                    )
                num_vars = int(parts[2])
                continue
            for token in line.split():
                try:
                    lit = int(token)
                except ValueError:
                    raise ValueError(
                        f"{path}:{number}: bad literal {token!r}"
                    ) from None
                if lit == 0:
                    if current:
                        clauses.append(current)
                        current = []
                else:
                    current.append(lit)
    if current:
        clauses.append(current)
    if num_vars is None:
        raise ValueError(f"{path}: missing DIMACS problem line")
    return CNF(num_vars, clauses)
