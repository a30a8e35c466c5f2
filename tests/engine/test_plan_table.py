"""Plan decisions, pinned in a readable table.

``plan_table.txt`` holds one line per plan: the instance, the worker
count offered, then the decision (backend, GAO, shard count) and every
candidate's cost to 12 significant digits.  It was written by the
planner as it stood before planning kept per-shape tables, so a change
to how planning is computed (memos, warm-started LPs, pricing loops)
must leave every decision identical and every cost within rounding of
the pinned value.  A deliberate change to the cost model rewrites it::

    PYTHONPATH=src python tests/engine/test_plan_table.py > tests/engine/plan_table.txt

The instances are seeded and built here: 40-row relations over 32
values for the eight shapes the benchmark's planning stream draws,
three draws each, and two instances sized like its mixed workload.
"""

import math
import os
import random

from repro.engine import clear_plan_cache, plan_query
from repro.relational.query import (
    Database,
    clique_query,
    cycle_query,
    path_query,
    star_query,
    triangle_query,
)
from repro.relational.relation import Relation
from repro.relational.schema import Domain

TABLE = os.path.join(os.path.dirname(__file__), "plan_table.txt")

SHAPES = (
    ("triangle", triangle_query()), ("path3", path_query(3)),
    ("path4", path_query(4)), ("star3", star_query(3)),
    ("star4", star_query(4)), ("cycle4", cycle_query(4)),
    ("cycle5", cycle_query(5)), ("clique4", clique_query(4)),
)


def _pairs(rng, n, depth):
    size = 1 << depth
    return {(rng.randrange(size), rng.randrange(size)) for _ in range(n)}


def instances():
    """``(name, query, database)`` for every pinned plan, in table order."""
    rng = random.Random(2026)
    out = []
    for draw in range(3):
        for name, query in SHAPES:
            db = Database([
                Relation(a, _pairs(rng, 40, 5), Domain(5)) for a in query.atoms
            ])
            out.append((f"{name}#{draw}", query, db))
    query = path_query(3)
    out.append(("mix-path3", query, Database([
        Relation(a, _pairs(rng, 4000, 10), Domain(10)) for a in query.atoms
    ])))
    edges = set()
    while len(edges) < 5000:
        a, b = rng.randrange(400), rng.randrange(400)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    sym = edges | {(b, a) for a, b in edges}
    query = triangle_query()
    out.append(("mix-triangle", query, Database([
        Relation(a, sym, Domain(9)) for a in query.atoms
    ])))
    return out


def _line(name: str, workers, plan) -> str:
    candidates = " | ".join(
        f"{c.backend}{'∥' if c.parallel else ''} {c.cost:.12g}"
        for c in plan.candidates
    )
    return (
        f"{name} w={workers or '-'} {plan.backend} ({','.join(plan.gao)}) "
        f"shards={plan.num_shards} | {candidates}"
    )


def plan_lines():
    """One table line per instance × workers ∈ {None, 2}, planned cold."""
    clear_plan_cache()
    lines = []
    for name, query, db in instances():
        for workers in (None, 2):
            plan = plan_query(query, db, workers=workers, use_cache=False)
            lines.append(_line(name, workers, plan))
    clear_plan_cache()
    return lines


def _split(line: str):
    """A line's decision text, and its costs as floats."""
    decision, *candidates = line.split(" | ")
    names = [c.rsplit(" ", 1)[0] for c in candidates]
    costs = [float(c.rsplit(" ", 1)[1]) for c in candidates]
    return (decision, names), costs


def test_plans_match_the_pinned_table():
    with open(TABLE, encoding="utf-8") as handle:
        pinned = handle.read().splitlines()
    lines = plan_lines()
    assert len(lines) == len(pinned)
    for got, want in zip(lines, pinned):
        (decision, names), costs = _split(got)
        (want_decision, want_names), want_costs = _split(want)
        assert (decision, names) == (want_decision, want_names)
        for cost, want_cost in zip(costs, want_costs):
            # 12 digits pinned: a cost may move by its last few ulps.
            assert math.isclose(cost, want_cost, rel_tol=1e-11), (got, want)


if __name__ == "__main__":
    print("\n".join(plan_lines()))
