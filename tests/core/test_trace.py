"""Tests for resolution-proof recording, verification, classification."""

import pytest

from repro.core.boxes import pbox_from_bits
from repro.core.trace import (
    ProofStep,
    ResolutionProof,
    TracingResolver,
    traced_solve_bcp,
)
from repro.workloads.hard_instances import (
    example_f1,
    msb_triangle,
    shared_suffix_instance,
)
from tests.helpers import brute_force_uncovered, random_boxes

DEPTH = 3


class TestTracingResolver:
    def test_records_steps(self):
        tracer = TracingResolver()
        w1 = pbox_from_bits("0", "")
        w2 = pbox_from_bits("1", "")
        out = tracer.resolve(w1, w2, 0)
        assert len(tracer.proof) == 1
        step = tracer.proof.steps[0]
        assert step.resolvent == out
        assert step.ordered


class TestProofVerification:
    def test_valid_proof_verifies(self):
        boxes = random_boxes(0, 20, 3, DEPTH)
        outputs, proof = traced_solve_bcp(boxes, 3, DEPTH)
        proof.verify()
        assert sorted(outputs) == brute_force_uncovered(boxes, 3, DEPTH)

    def test_corrupted_resolvent_caught(self):
        proof = ResolutionProof(
            [
                ProofStep(
                    left=pbox_from_bits("0", ""),
                    right=pbox_from_bits("1", ""),
                    axis=0,
                    resolvent=pbox_from_bits("1", ""),  # wrong
                    ordered=True,
                )
            ]
        )
        with pytest.raises(ValueError, match="resolvent mismatch"):
            proof.verify()

    def test_unresolvable_premises_caught(self):
        proof = ResolutionProof(
            [
                ProofStep(
                    left=pbox_from_bits("0", "0"),
                    right=pbox_from_bits("1", "1"),
                    axis=0,
                    resolvent=pbox_from_bits("", ""),
                    ordered=False,
                )
            ]
        )
        with pytest.raises(ValueError, match="not resolvable"):
            proof.verify()

    def test_wrong_axis_caught(self):
        proof = ResolutionProof(
            [
                ProofStep(
                    left=pbox_from_bits("0", "1"),
                    right=pbox_from_bits("1", "1"),
                    axis=1,
                    resolvent=pbox_from_bits("", "1"),
                    ordered=False,
                )
            ]
        )
        with pytest.raises(ValueError, match="recorded axis"):
            proof.verify()


class TestClassification:
    def test_tetris_proofs_are_ordered(self):
        """Lemma C.1: from the universal target, all steps are ordered."""
        for seed in range(3):
            boxes = random_boxes(seed, 15, 3, DEPTH)
            _, proof = traced_solve_bcp(boxes, 3, DEPTH)
            proof.verify()
            assert proof.is_ordered()
            assert proof.classify() in ("ordered", "tree-ordered")

    def test_no_cache_gives_tree_proofs(self):
        """Without caching, resolvents are never reused: tree proofs."""
        boxes = shared_suffix_instance(2)
        _, proof = traced_solve_bcp(boxes, 3, 2, cache_resolvents=False)
        proof.verify()
        assert proof.is_tree()
        assert proof.classify() == "tree-ordered"

    def test_caching_reuses_resolvents(self):
        """With caching on the shared-suffix gadget, the proof is a DAG."""
        boxes = shared_suffix_instance(2)
        _, proof = traced_solve_bcp(boxes, 3, 2, cache_resolvents=True)
        proof.verify()
        assert not proof.is_tree()
        assert proof.classify() == "ordered"


class TestProofStructure:
    def test_cover_proof_derives_universe(self):
        """On covered instances the proof derives ⟨λ,λ,λ⟩ (Prop 4.2)."""
        for maker, d in ((msb_triangle, 3), (example_f1, 4)):
            boxes = maker(d)
            outputs, proof = traced_solve_bcp(boxes, 3, d)
            assert outputs == []
            proof.verify()
            universe = (1,) * 3  # packed ⟨λ,λ,λ⟩
            assert proof.derives(universe)

    def test_leaves_are_inputs_or_outputs(self):
        boxes = random_boxes(4, 15, 2, DEPTH)
        outputs, proof = traced_solve_bcp(boxes, 2, DEPTH)
        box_set = set(boxes)
        output_units = {
            tuple((v, DEPTH) for v in point) for point in outputs
        }
        for leaf in proof.leaves():
            assert leaf in box_set or leaf in output_units

    def test_dot_export(self):
        boxes = [pbox_from_bits("0", ""), pbox_from_bits("1", "")]
        _, proof = traced_solve_bcp(boxes, 2, 1)
        dot = proof.to_dot()
        assert dot.startswith("digraph proof {")
        assert "->" in dot

    def test_empty_proof(self):
        proof = ResolutionProof()
        proof.verify()
        assert proof.is_tree()
        assert proof.is_ordered()
        assert proof.classify() == "tree-ordered"
        assert proof.leaves() == set()
