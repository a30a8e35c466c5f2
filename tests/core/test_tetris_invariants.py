"""Property tests for TetrisEngine invariants and failure injection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import intervals as dy
from repro.core.boxes import box_contains, pbox_from_bits
from repro.core.tetris import (
    BoxSetOracle,
    CodeDimension,
    FixedDepth,
    RemainderDimension,
    TetrisEngine,
)
from tests.helpers import box_covers_point, box_points, \
    brute_force_uncovered, random_boxes

DEPTH = 3
NDIM = 2


def ivs(max_depth=DEPTH):
    return st.integers(0, max_depth).flatmap(
        lambda length: st.integers(1 << length, (2 << length) - 1)
    )


def box_tuples(ndim=NDIM):
    return st.tuples(*([ivs()] * ndim))


class TestSkeletonPostconditions:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(box_tuples(), max_size=8), box_tuples())
    def test_skeleton_answer_matches_semantics(self, boxes, target):
        """skeleton(b) says covered iff every point of b is covered, and
        the returned witness satisfies its contract."""
        engine = TetrisEngine(NDIM, DEPTH)
        for b in boxes:
            engine.add_box(b)
        covered, witness = engine.skeleton(
            engine.to_internal(target)
        )
        target_points = set(box_points(target, DEPTH))
        covered_points = {
            p
            for p in target_points
            if any(box_covers_point(b, p, DEPTH) for b in boxes)
        }
        truly_covered = target_points == covered_points
        assert covered == truly_covered
        if covered:
            # Witness covers the whole target.
            assert box_contains(
                engine.to_external(witness), target
            )
        else:
            # Witness is an uncovered unit point inside the target.
            ext = engine.to_external(witness)
            point = tuple(dy.pvalue(p) for p in ext)
            assert point in target_points
            assert point not in covered_points

    @settings(max_examples=40, deadline=None)
    @given(st.lists(box_tuples(), max_size=8))
    def test_witnesses_sound(self, boxes):
        """Positive witnesses never cover actual uncovered points."""
        engine = TetrisEngine(NDIM, DEPTH)
        for b in boxes:
            engine.add_box(b)
        uncovered = brute_force_uncovered(boxes, NDIM, DEPTH)
        covered, witness = engine.skeleton(engine._universe)
        if covered:
            assert uncovered == []


class TestEngineReuse:
    def test_rerun_is_stable(self):
        boxes = random_boxes(1, 15, 2, DEPTH)
        oracle = BoxSetOracle(boxes, 2)
        engine = TetrisEngine(2, DEPTH)
        first = engine.run(oracle, preload=True)
        # Running again on the saturated knowledge base finds nothing new.
        second = engine.run(oracle, preload=True)
        assert second == []
        assert sorted(first) == brute_force_uncovered(boxes, 2, DEPTH)

    def test_return_boxes_mode(self):
        boxes = [pbox_from_bits("0", "")]
        engine = TetrisEngine(2, 1)
        out = engine.run(
            BoxSetOracle(boxes, 2), preload=True, return_boxes=True,
        )
        # Packed unit boxes: '1','0' and '1','1'.
        assert sorted(out) == [
            pbox_from_bits("1", "0"), pbox_from_bits("1", "1")
        ]


class TestDimensionSpecs:
    def test_fixed_depth(self):
        spec = FixedDepth(3)
        assert spec.is_unit((dy.pmake(5, 3),), 0)
        assert not spec.is_unit((dy.pmake(1, 2),), 0)

    def test_code_dimension(self):
        spec = CodeDimension(
            {dy.pmake(0, 1), dy.pmake(2, 2), dy.pmake(3, 2)}
        )
        assert spec.is_unit((dy.pmake(0, 1),), 0)
        assert not spec.is_unit((dy.pmake(1, 1),), 0)
        assert not spec.is_unit((dy.PLAMBDA,), 0)

    def test_remainder_dimension(self):
        spec = RemainderDimension(partner_axis=0, total_depth=4)
        # Partner has length 1, so the remainder is unit at length 3.
        assert spec.is_unit((dy.pmake(0, 1), dy.pmake(5, 3)), 1)
        assert not spec.is_unit((dy.pmake(0, 1), dy.pmake(1, 2)), 1)

    def test_remainder_must_follow_partner(self):
        with pytest.raises(ValueError, match="must follow"):
            TetrisEngine(
                2, 3,
                dims=[RemainderDimension(1, 3), FixedDepth(3)],
            )

    def test_spec_count_checked(self):
        with pytest.raises(ValueError, match="one dimension spec"):
            TetrisEngine(2, 3, dims=[FixedDepth(3)])

    def test_generalized_engine_runs(self):
        """A code/remainder pair behaves like one depth-3 dimension."""
        code = CodeDimension(
            {dy.pmake(0, 1), dy.pmake(2, 2), dy.pmake(3, 2)}
        )
        engine = TetrisEngine(
            2, 3,
            dims=[code, RemainderDimension(0, 3)],
        )
        # One box covering the '0' part of the code; uncovered points are
        # the lifts of values 4..7 (codes '10', '11').
        engine.add_box(pbox_from_bits("0", ""))
        out = engine.run(return_boxes=True)
        lowered = sorted(
            (dy.pvalue(p) << (s.bit_length() - 1)) | dy.pvalue(s)
            for (p, s) in out
        )
        assert lowered == [4, 5, 6, 7]


class TestExample44Trace:
    """Example 4.4 / Figure 10, step by step via a tracing resolver."""

    def test_resolvents_of_the_paper_appear(self):
        from repro.core.trace import traced_solve_bcp

        boxes = [
            pbox_from_bits("", "0"),
            pbox_from_bits("00", ""),
            pbox_from_bits("", "11"),
            pbox_from_bits("10", "1"),
        ]
        outputs, proof = traced_solve_bcp(boxes, 2, 2)
        assert sorted(outputs) == [(1, 2), (3, 2)]
        proof.verify()
        resolvents = proof.resolvents
        # The narrative's key derived boxes (SAO = (X, Y)).
        for expected in ("01,1", "01,λ", "0,λ", "10,λ", "11,1",
                         "11,λ", "1,λ", "λ,λ"):
            x, y = expected.split(",")
            box = pbox_from_bits(
                "" if x == "λ" else x, "" if y == "λ" else y
            )
            assert box in resolvents, f"missing resolvent ⟨{expected}⟩"
