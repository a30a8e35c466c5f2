"""Seeded raw inputs: query shapes and tuple lists, with no ``repro`` import.

The seed changes the random draws, never the sizes.  ``quick`` shrinks every
size for the smoke run; the driver's runs never pass it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from metrics import CLI, MIX, PAR, PLAN, PRE, REL

Row = Tuple[int, ...]
Atom = Tuple[str, Tuple[str, ...]]


@dataclass
class Instance:
    """One query over one database, as plain data."""

    name: str
    atoms: List[Atom]
    data: Dict[str, List[Row]]
    depth: int
    gao: Optional[Tuple[str, ...]] = None


TRIANGLE: List[Atom] = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))]


def path(k: int) -> List[Atom]:
    return [(f"R{i}", (f"A{i}", f"A{i + 1}")) for i in range(k)]


def star(k: int) -> List[Atom]:
    return [(f"R{i}", ("H", f"A{i}")) for i in range(1, k + 1)]


def cycle(k: int) -> List[Atom]:
    return [(f"R{i}", (f"A{i}", f"A{(i + 1) % k}")) for i in range(k)]


def clique(k: int) -> List[Atom]:
    return [
        (f"R{i}{j}", (f"A{i}", f"A{j}"))
        for i in range(k) for j in range(i + 1, k)
    ]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _pairs(rng: random.Random, n: int, depth: int) -> List[Row]:
    size = 1 << depth
    return sorted({(rng.randrange(size), rng.randrange(size)) for _ in range(n)})


def random_binary(
    name: str, atoms: Sequence[Atom], rng: random.Random, n: int, depth: int
) -> Instance:
    """``n`` draws (duplicates collapse) per binary relation over ``2^depth`` values."""
    return Instance(
        name, list(atoms), {rel: _pairs(rng, n, depth) for rel, _ in atoms}, depth
    )


def graph_triangle(
    name: str, rng: random.Random, vertices: int, edges: int
) -> Instance:
    """Triangle listing on a random graph: R = S = T = the symmetrised edge set."""
    chosen = set()
    while len(chosen) < edges:
        a, b = rng.randrange(vertices), rng.randrange(vertices)
        if a != b:
            chosen.add((min(a, b), max(a, b)))
    sym = sorted(chosen | {(b, a) for a, b in chosen})
    depth = max(1, (vertices - 1).bit_length())
    return Instance(name, TRIANGLE, {"R": sym, "S": sym, "T": sym}, depth)


def agm_tight_triangle(name: str, rng: random.Random, m: int) -> Instance:
    """R = S = T = V × V for a random m-subset V: output m³ = N^{3/2} (AGM-tight)."""
    depth = max(1, (2 * m - 1).bit_length())
    values = sorted(rng.sample(range(1 << depth), m))
    pairs = [(a, b) for a in values for b in values]
    return Instance(name, TRIANGLE, {"R": pairs, "S": pairs, "T": pairs}, depth)


_PLAN_SHAPES = (
    ("triangle", TRIANGLE), ("path3", path(3)), ("path4", path(4)),
    ("star3", star(3)), ("star4", star(4)), ("cycle4", cycle(4)),
    ("cycle5", cycle(5)), ("clique4", clique(4)),
)


def instances(workload: str, seed: int, quick: bool = False) -> List[Instance]:
    """The raw instances one operation of ``workload`` runs, in order."""
    rng = rng_for(workload, seed)
    q = quick
    if workload == PRE:
        return [graph_triangle("triangle_graph", rng, *((120, 400) if q else (320, 1200)))]
    if workload == REL:
        return [random_binary("path3", path(3), rng, *((200, 8) if q else (500, 10)))]
    if workload == MIX:
        return [
            graph_triangle("triangle_sparse", rng, *((150, 800) if q else (400, 5000))),
            agm_tight_triangle("triangle_agm_tight", rng, 12 if q else 40),
            random_binary("path3", path(3), rng, *((600, 8) if q else (4000, 10))),
            random_binary("star4", star(4), rng, *((500, 7) if q else (4000, 10))),
            random_binary("cycle4", cycle(4), rng, *((200, 6) if q else (900, 8))),
        ]
    if workload == PAR:
        return [random_binary("star4", star(4), rng, *((500, 7) if q else (4000, 10)))]
    if workload == PLAN:
        return [
            random_binary(f"{name}#{i}", atoms, rng, 40, 5)
            for name, atoms in _PLAN_SHAPES for i in range(3 if q else 20)
        ]
    if workload == CLI:
        return [graph_triangle("triangle_sparse", rng, *((150, 800) if q else (400, 5000)))]
    raise ValueError(f"unknown workload {workload!r}")


def split_instance(seed: int, quick: bool = False) -> Instance:
    """The beyond-worst-case guard of ``tetris_reloaded_path``.

    R0(A0,A1) ⋈ R1(A1,A2) with R0's A1 values in the lower half of the domain
    and R1's in the upper: N = 2m tuples, an empty join, and under GAO
    (A1, A0, A2) a box certificate of O(1) whatever m is.
    """
    rng = rng_for("split_path", seed)
    m, depth = (400, 10) if quick else (2000, 12)
    half, size = 1 << (depth - 1), 1 << depth
    r0 = sorted({(rng.randrange(size), rng.randrange(half)) for _ in range(m)})
    r1 = sorted({(half + rng.randrange(half), rng.randrange(size)) for _ in range(m)})
    return Instance(
        "split_path", path(2), {"R0": r0, "R1": r1}, depth, gao=("A1", "A0", "A2"))
