"""The independent reference join and the per-operation check."""

import inputs
import metrics
import reference
import run


def test_natural_join_on_a_hand_case():
    atoms = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))]
    data = {
        "R": [(0, 1), (0, 2), (3, 1)],
        "S": [(1, 5), (2, 5), (1, 6)],
        "T": [(0, 5), (3, 6), (3, 7)],
    }
    assert sorted(reference.natural_join(atoms, data)) == [
        (0, 1, 5), (0, 2, 5), (3, 1, 6)]


def test_join_of_disconnected_atoms_is_a_product():
    atoms = [("R", ("A",)), ("S", ("B",))]
    rows = sorted(reference.natural_join(atoms, {"R": [(1,), (2,)], "S": [(7,)]}))
    assert rows == [(1, 7), (2, 7)]


def test_digest_ignores_order_but_not_content():
    rows = [(1, 2), (3, 4), (5, 6)]
    assert reference.digest(rows) == reference.digest(reversed(rows))
    assert reference.digest(rows) != reference.digest(rows[:2] + [(5, 7)])
    assert reference.mismatch(reference.digest(rows), reference.digest(rows)) is None


def test_a_wrong_result_is_caught():
    """A stubbed operation log with one dropped row, one altered row, one crash."""
    (inst,) = inputs.instances("tetris_preloaded_triangle", seed=3, quick=True)
    truth = sorted(reference.natural_join(inst.atoms, inst.data))
    expected = [reference.digest(truth)]
    altered = truth[:-1] + [tuple(v + 1 for v in truth[-1])]
    detail = {"ops": [
        {"phase": "warm", "first": 0, "digests": [reference.digest(truth)]},
        {"phase": "warm", "first": 0, "digests": [reference.digest(truth[1:])]},
        {"phase": "warm", "first": 0, "digests": [reference.digest(altered)]},
        {"phase": "cold", "first": 0, "error": "Traceback: boom"},
    ]}
    errors = run.verify(detail, expected)
    assert len(errors) == 3
    assert "op 1" in errors[0] and "rows" in errors[0]
    assert "op 2" in errors[1] and "checksum" in errors[1]
    assert "op 3" in errors[2] and "boom" in errors[2]


def test_seed_changes_the_draws_and_never_the_sizes():
    for workload in metrics.WORKLOADS:
        one = inputs.instances(workload, seed=1)
        same = inputs.instances(workload, seed=1)
        other = inputs.instances(workload, seed=2)
        assert [i.data for i in one] == [i.data for i in same]
        assert [i.data for i in one] != [i.data for i in other]
        assert [(i.name, i.atoms, i.depth) for i in one] == [
            (i.name, i.atoms, i.depth) for i in other]
