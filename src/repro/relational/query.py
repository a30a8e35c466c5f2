"""Natural join queries and databases (Section 3.1).

``JoinQuery`` is a set of relation schemas; evaluating it over a
``Database`` produces every tuple over ``vars(Q)`` whose projection onto
each relation's attributes is a tuple of that relation.  A slow reference
evaluator (`evaluate_reference`) is included for cross-checking the real
join algorithms in tests.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema


class Database:
    """A collection of relation instances sharing one domain."""

    def __init__(self, relations: Iterable[Relation]):
        rels = list(relations)
        if not rels:
            raise ValueError("a database needs at least one relation")
        self._relations: Dict[str, Relation] = {}
        self.domain: Domain = rels[0].domain
        for rel in rels:
            if rel.name in self._relations:
                raise ValueError(f"duplicate relation name {rel.name}")
            if rel.domain != self.domain:
                raise ValueError(
                    "all relations in a database must share a domain"
                )
            self._relations[rel.name] = rel
        #: By name: the order of :meth:`stats_fingerprint`.
        self._sorted = [self._relations[n] for n in sorted(self._relations)]

    def __getitem__(self, name: str) -> Relation:
        return self._relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self):
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def total_tuples(self) -> int:
        """The paper's N: total number of input tuples."""
        return sum(map(len, self._relations.values()))

    def sorted_view(self, name: str, attr_order: Sequence[str]):
        """A relation's memoized :class:`~repro.relational.relation.SortedView`.

        The shared per-permutation cache every order-sensitive consumer
        (index builds, Leapfrog tries, prefix probes) reads through —
        one sort per (relation, order) for the database's lifetime.
        """
        return self._relations[name].view(attr_order)

    def stats_fingerprint(self) -> Tuple:
        """Signature of every relation's statistics, for plan-cache keys."""
        return tuple([rel.stats_fingerprint() for rel in self._sorted])


class ContentLRU:
    """A small LRU keyed on content, with hit and miss counters.

    The plan, statistics and prepared-shard caches are instances: their
    keys combine a query's :attr:`JoinQuery.signature` with
    :meth:`Database.stats_fingerprint`, so identical data reloaded hits
    them and nothing is ever invalidated by object identity; the
    planner's shape memo is keyed on the signature alone.  ``None``
    is not a storable value — :meth:`get` returns it for a miss.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple):
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Tuple, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


class JoinQuery:
    """A natural join query ⋈_{R ∈ atoms(Q)} R."""

    def __init__(self, atoms: Sequence[RelationSchema]):
        if not atoms:
            raise ValueError("a join query needs at least one atom")
        names = [a.name for a in atoms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate atom names in {names}")
        self.atoms: Tuple[RelationSchema, ...] = tuple(atoms)
        self._by_name = {a.name: a for a in self.atoms}
        seen: List[str] = []
        for atom in self.atoms:
            for attr in atom.attrs:
                if attr not in seen:
                    seen.append(attr)
        self.variables: Tuple[str, ...] = tuple(seen)
        #: ``((name, attrs), …)`` in atom order: the whole of the query's
        #: identity (it fixes the hypergraph and ``variables``), and the
        #: query part of every content-keyed cache.
        self.signature: Tuple[Tuple[str, Tuple[str, ...]], ...] = tuple(
            (a.name, a.attrs) for a in self.atoms
        )

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def atom(self, name: str) -> RelationSchema:
        return self._by_name[name]

    def edges(self) -> List[frozenset]:
        """The query hypergraph's edge multiset (attribute sets of atoms)."""
        return [frozenset(a.attrs) for a in self.atoms]

    def __repr__(self) -> str:
        return " ⋈ ".join(repr(a) for a in self.atoms)


def evaluate_reference(
    query: JoinQuery, db: Database
) -> List[Tuple[int, ...]]:
    """Slow but obviously-correct join evaluation used as a test oracle.

    Extends partial assignments atom by atom.  Each atom's rows are
    bucketed once on the attributes shared with the variables already
    bound, so extending costs O(|partials| + |rows| + |matches|) per atom
    instead of the O(|partials| · |rows|) all-pairs scan — the difference
    between toy-only and usable on cross-validation-sized instances.
    """
    variables = query.variables
    # Start with the tuples of the first atom as partial assignments.
    first = query.atoms[0]
    partials: List[Dict[str, int]] = [
        dict(zip(first.attrs, t)) for t in db[first.name]
    ]
    bound = set(first.attrs)
    for atom in query.atoms[1:]:
        shared = tuple(a for a in dict.fromkeys(atom.attrs) if a in bound)
        # Bucket the atom's rows by their shared-attribute key.  dict(zip)
        # collapses repeated attributes (last occurrence wins), matching
        # how a row constrains an assignment.
        buckets: Dict[Tuple[int, ...], List[Dict[str, int]]] = {}
        for row in db[atom.name]:
            candidate = dict(zip(atom.attrs, row))
            key = tuple(candidate[a] for a in shared)
            buckets.setdefault(key, []).append(candidate)
        extended: List[Dict[str, int]] = []
        for partial in partials:
            key = tuple(partial[a] for a in shared)
            for candidate in buckets.get(key, ()):
                merged = dict(partial)
                merged.update(candidate)
                extended.append(merged)
        partials = extended
        bound |= set(atom.attrs)
    # Any variable not bound by the atoms... cannot happen (vars come from
    # atoms), so every partial is total.
    out = sorted(
        {tuple(p[v] for v in variables) for p in partials}
    )
    return out


def triangle_query() -> JoinQuery:
    """The running example: Q△ = R(A,B) ⋈ S(B,C) ⋈ T(A,C)."""
    return JoinQuery(
        [
            RelationSchema("R", ("A", "B")),
            RelationSchema("S", ("B", "C")),
            RelationSchema("T", ("A", "C")),
        ]
    )


def path_query(length: int) -> JoinQuery:
    """P_k: R1(A0,A1) ⋈ R2(A1,A2) ⋈ ... — an acyclic treewidth-1 query."""
    if length < 1:
        raise ValueError("path length must be at least 1")
    return JoinQuery(
        [
            RelationSchema(f"R{i}", (f"A{i}", f"A{i + 1}"))
            for i in range(length)
        ]
    )


def star_query(rays: int) -> JoinQuery:
    """Star: R1(H,A1) ⋈ ... ⋈ Rk(H,Ak) — acyclic, treewidth 1."""
    if rays < 1:
        raise ValueError("star needs at least one ray")
    return JoinQuery(
        [RelationSchema(f"R{i}", ("H", f"A{i}")) for i in range(1, rays + 1)]
    )


def cycle_query(length: int) -> JoinQuery:
    """C_k: binary relations around a cycle (treewidth 2 for k ≥ 3)."""
    if length < 3:
        raise ValueError("cycles need at least 3 edges")
    return JoinQuery(
        [
            RelationSchema(
                f"R{i}", (f"A{i}", f"A{(i + 1) % length}")
            )
            for i in range(length)
        ]
    )


def clique_query(n: int) -> JoinQuery:
    """K_n: one binary relation per vertex pair (treewidth n-1)."""
    if n < 2:
        raise ValueError("cliques need at least 2 vertices")
    atoms = []
    for i, j in itertools.combinations(range(n), 2):
        atoms.append(RelationSchema(f"R{i}{j}", (f"A{i}", f"A{j}")))
    return JoinQuery(atoms)


def bowtie_query() -> JoinQuery:
    """The bowtie of Example B.3: R(A) ⋈ S(A,B) ⋈ T(B)."""
    return JoinQuery(
        [
            RelationSchema("R", ("A",)),
            RelationSchema("S", ("A", "B")),
            RelationSchema("T", ("B",)),
        ]
    )
