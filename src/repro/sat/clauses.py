"""CNF formulas and the clause ↔ dyadic box encoding (Example 4.1, App I).

A truth assignment over n variables is a point of the n-dimensional
depth-1 output space.  The *negation* of a clause is a conjunction — a box
in the Boolean cube: the clause ``(x1 ∨ ¬x3)`` excludes exactly the
assignments with ``x1 = 0`` and ``x3 = 1``, i.e. the box ⟨0, λ, 1, λ...⟩.
Under this encoding geometric resolution *is* propositional resolution
(Figure 8), and Tetris enumerating the uncovered points of the clause
boxes is a #SAT model counter — a DPLL with clause learning (§4.2.4).
"""

from __future__ import annotations

import random
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from repro.core.boxes import PackedBox
from repro.core.intervals import PLAMBDA

#: A literal: positive ``v+1`` or negative ``-(v+1)`` for variable index v.
Literal = int
#: A clause: a set of literals (disjunction).
Clause = FrozenSet[Literal]


class CNF:
    """A CNF formula over ``num_vars`` variables (DIMACS-style literals)."""

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]]):
        if num_vars < 1:
            raise ValueError("a CNF needs at least one variable")
        self.num_vars = num_vars
        normalized: List[Clause] = []
        for clause in clauses:
            lits = frozenset(clause)
            if 0 in lits:
                raise ValueError("0 is not a valid literal")
            for lit in lits:
                if abs(lit) > num_vars:
                    raise ValueError(
                        f"literal {lit} out of range for {num_vars} vars"
                    )
            if any(-lit in lits for lit in lits):
                continue  # tautological clause constrains nothing
            normalized.append(lits)
        self.clauses: Tuple[Clause, ...] = tuple(normalized)

    def is_satisfied_by(self, assignment: Sequence[int]) -> bool:
        """Evaluate under a 0/1 assignment indexed by variable."""
        for clause in self.clauses:
            if not any(
                (assignment[abs(lit) - 1] == 1) == (lit > 0)
                for lit in clause
            ):
                return False
        return True

    def count_models_naive(self) -> int:
        """Brute-force model count (tests only)."""
        count = 0
        for mask in range(1 << self.num_vars):
            assignment = [
                (mask >> v) & 1 for v in range(self.num_vars)
            ]
            if self.is_satisfied_by(assignment):
                count += 1
        return count


def clause_to_box(clause: Clause, num_vars: int) -> PackedBox:
    """The box of assignments *falsifying* the clause.

    Variable v is pinned to 0 (packed ``0b10``) when the clause contains
    the positive literal (the clause fails when the literal is false)
    and to 1 (``0b11``) for a negative literal; unmentioned variables
    are λ.
    """
    ivs = [PLAMBDA] * num_vars
    for lit in clause:
        ivs[abs(lit) - 1] = 0b10 if lit > 0 else 0b11
    return tuple(ivs)


def box_to_clause(box: PackedBox) -> Clause:
    """Inverse encoding: a depth-1 box back to the clause it falsifies."""
    lits = set()
    for v, p in enumerate(box):
        if p == PLAMBDA:
            continue
        if p >> 1 != 1:
            raise ValueError(
                "only depth-1 boxes encode clauses over single bits"
            )
        lits.add((v + 1) if p == 0b10 else -(v + 1))
    return frozenset(lits)


def cnf_to_boxes(cnf: CNF) -> List[PackedBox]:
    """All clause boxes of a formula — a BCP whose output is the models."""
    return [clause_to_box(c, cnf.num_vars) for c in cnf.clauses]


def random_cnf(
    num_vars: int, num_clauses: int, width: int, seed: int
) -> CNF:
    """Uniform random k-CNF (distinct variables per clause)."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append(
            [v if rng.random() < 0.5 else -v for v in variables]
        )
    return CNF(num_vars, clauses)
