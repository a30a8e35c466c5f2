"""Tetris as DPLL with clause learning: #SAT model counting (§4.2.4).

Encodes CNF clauses as dyadic boxes in the Boolean cube (the negation of
a clause is a box — Example 4.1), then lets Tetris enumerate the points
covered by no clause box: the satisfying assignments.  Cross-checks
against a classic DPLL counter and brute force.

Run:  python examples/sat_model_counting.py
"""

from repro.core.intervals import pto_bits
from repro.core.resolution import ResolutionStats
from repro.sat import (
    CNF,
    clause_to_box,
    count_models_dpll,
    count_models_tetris,
    enumerate_models_tetris,
    random_cnf,
)


def main() -> None:
    # The paper's Example 4.1 resolution, as clauses.
    cnf = CNF(4, [[1, 2], [-1, 2, 3, -4]])
    print("Clauses and their falsifying boxes:")
    for clause in cnf.clauses:
        pretty = " ∨ ".join(
            (f"x{l}" if l > 0 else f"¬x{-l}") for l in sorted(clause, key=abs)
        )
        box = ", ".join(map(pto_bits, clause_to_box(clause, 4)))
        print(f"  ({pretty})  ↦  box ⟨{box}⟩")

    stats = ResolutionStats()
    tetris_count = count_models_tetris(cnf, stats=stats)
    print(
        f"\n#SAT via Tetris: {tetris_count} models "
        f"({stats.resolutions} geometric resolutions — "
        f"each one a learned clause)"
    )
    print(f"#SAT via DPLL  : {count_models_dpll(cnf)} models")
    print(f"brute force    : {cnf.count_models_naive()} models")

    # A slightly larger random 3-CNF.
    print("\nRandom 3-CNF sweep (12 variables):")
    print(f"{'clauses':>8} {'tetris #SAT':>12} {'dpll #SAT':>10} "
          f"{'resolutions':>12}")
    for num_clauses in (10, 20, 40, 60):
        rnd = random_cnf(12, num_clauses, width=3, seed=num_clauses)
        stats = ResolutionStats()
        t = count_models_tetris(rnd, stats=stats)
        d = count_models_dpll(rnd)
        assert t == d
        print(f"{num_clauses:>8} {t:>12} {d:>10} {stats.resolutions:>12}")

    models = enumerate_models_tetris(CNF(3, [[1], [2, 3]]))
    print(f"\nModels of x1 ∧ (x2 ∨ x3): {models}")


if __name__ == "__main__":
    main()
