"""Tests for the CNF ↔ box encoding and the #SAT counters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boxes import pbox_from_bits
from repro.core.intervals import PLAMBDA
from repro.sat.clauses import (
    CNF,
    box_to_clause,
    clause_to_box,
    cnf_to_boxes,
    random_cnf,
)
from repro.sat.dpll import (
    count_models_dpll,
    count_models_tetris,
    enumerate_models_tetris,
)


class TestCNF:
    def test_basic(self):
        cnf = CNF(3, [[1, -2], [3]])
        assert len(cnf.clauses) == 2
        assert cnf.is_satisfied_by([1, 0, 1])
        assert not cnf.is_satisfied_by([0, 1, 1])

    def test_tautology_dropped(self):
        cnf = CNF(2, [[1, -1]])
        assert cnf.clauses == ()

    def test_bad_literal(self):
        with pytest.raises(ValueError):
            CNF(2, [[0]])
        with pytest.raises(ValueError):
            CNF(2, [[3]])

    def test_no_vars(self):
        with pytest.raises(ValueError):
            CNF(0, [])

    def test_naive_count(self):
        # (x1 ∨ x2): 3 of 4 assignments.
        assert CNF(2, [[1, 2]]).count_models_naive() == 3


class TestEncoding:
    def test_example_4_1_clause(self):
        # Clause (x1 ∨ ¬x3) excludes x1=0, x3=1 → box ⟨0, λ, 1⟩.
        box = clause_to_box(frozenset({1, -3}), 3)
        assert box == pbox_from_bits("0", "", "1")

    def test_roundtrip(self):
        clause = frozenset({1, -2, 4})
        assert box_to_clause(clause_to_box(clause, 4)) == clause

    def test_box_to_clause_rejects_deep(self):
        with pytest.raises(ValueError):
            box_to_clause(pbox_from_bits("00"))

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(
                        st.integers(1, n).map(
                            lambda v: v
                        ),
                        min_size=1,
                        max_size=n,
                    ),
                    max_size=5,
                ),
            )
        )
    )
    def test_boxes_exclude_exactly_falsifying(self, data):
        n, raw = data
        import random

        rng = random.Random(42)
        clauses = [
            [v if rng.random() < 0.5 else -v for v in clause]
            for clause in raw
        ]
        cnf = CNF(n, clauses)
        boxes = cnf_to_boxes(cnf)
        for mask in range(1 << n):
            assignment = [(mask >> v) & 1 for v in range(n)]
            covered = any(
                all(
                    p == PLAMBDA or (p & 1) == assignment[i]
                    for i, p in enumerate(box)
                )
                for box in boxes
            )
            assert covered == (not cnf.is_satisfied_by(assignment))


class TestModelCounting:
    def test_simple(self):
        cnf = CNF(2, [[1, 2]])
        assert count_models_tetris(cnf) == 3
        assert count_models_dpll(cnf) == 3

    def test_unsat(self):
        cnf = CNF(1, [[1], [-1]])
        assert count_models_tetris(cnf) == 0
        assert count_models_dpll(cnf) == 0

    def test_empty_formula(self):
        cnf = CNF(3, [])
        assert count_models_tetris(cnf) == 8
        assert count_models_dpll(cnf) == 8

    def test_enumerate(self):
        cnf = CNF(2, [[1], [-2]])
        assert enumerate_models_tetris(cnf) == [(1, 0)]

    @pytest.mark.parametrize("seed", range(8))
    def test_counters_agree_random(self, seed):
        cnf = random_cnf(num_vars=7, num_clauses=12, width=3, seed=seed)
        naive = cnf.count_models_naive()
        assert count_models_tetris(cnf) == naive
        assert count_models_dpll(cnf) == naive
