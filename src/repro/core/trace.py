"""Resolution proofs: recording, classification, and verification.

The paper frames Tetris as building a *geometric resolution proof*: a DAG
whose leaves are input gap boxes (and output unit boxes) and whose
internal nodes are resolvents; the root derives ⟨λ,...,λ⟩ when the cover
is complete.  The three resolution classes of Figure 2 correspond to
structural properties of this DAG:

* **Geometric Resolution** — any valid DAG;
* **Ordered Geometric Resolution** — every step has the Definition 4.3
  staircase shape;
* **Tree Ordered Geometric Resolution** — additionally, every resolvent
  is used at most once (the DAG is a forest).

Proof boxes are recorded in the engine's internal **packed** form
(tuples of marker-bit ints; see :mod:`repro.core.intervals`).

A :class:`~repro.core.tetris.TetrisEngine` records its proof when its
``proof`` attribute holds a ``ResolutionProof``: the generated Tetris
kernel, the one loop, appends one ``ProofStep`` per resolution.  ``ResolutionProof`` verifies every step (soundness) and
classifies the proof.  Used by tests to certify that Tetris's internal
reasoning really is a resolution proof, and by the proof-complexity
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.boxes import PackedBox
from repro.core.resolution import find_resolvable_dimension, resolve_on_axis


@dataclass(frozen=True)
class ProofStep:
    """One resolution: two premise boxes, the resolved axis, the resolvent."""

    left: PackedBox
    right: PackedBox
    axis: int
    resolvent: PackedBox
    ordered: bool


@dataclass
class ResolutionProof:
    """A recorded sequence of resolution steps (in derivation order)."""

    steps: List[ProofStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def resolvents(self) -> Set[PackedBox]:
        return {s.resolvent for s in self.steps}

    def verify(self) -> None:
        """Re-check every step against the resolution rule; raise on error."""
        for i, step in enumerate(self.steps):
            axis = find_resolvable_dimension(step.left, step.right)
            if axis is None:
                raise ValueError(
                    f"step {i}: premises are not resolvable"
                )
            if axis != step.axis:
                raise ValueError(
                    f"step {i}: recorded axis {step.axis}, actual {axis}"
                )
            expected = resolve_on_axis(step.left, step.right, axis)
            if expected != step.resolvent:
                raise ValueError(
                    f"step {i}: resolvent mismatch: recorded "
                    f"{step.resolvent}, rule gives {expected}"
                )

    def is_ordered(self) -> bool:
        """Does every step have the Definition 4.3 staircase shape?"""
        return all(s.ordered for s in self.steps)

    def is_tree(self) -> bool:
        """Is every *derivation* used as a premise at most once?

        Input boxes (never derived) may be reused freely; tree-ordered
        resolution forbids reusing a resolvent without re-deriving it
        (Section 5.1, footnote 10).  Since boxes are recorded by value,
        a box derived k times may appear as a premise up to k times.
        """
        derivations: Dict[PackedBox, int] = {}
        for step in self.steps:
            derivations[step.resolvent] = (
                derivations.get(step.resolvent, 0) + 1
            )
        used: Dict[PackedBox, int] = {}
        for step in self.steps:
            for premise in (step.left, step.right):
                if premise in derivations:
                    used[premise] = used.get(premise, 0) + 1
        return all(
            used.get(box, 0) <= count
            for box, count in derivations.items()
        )

    def classify(self) -> str:
        """Name the smallest Figure 2 class containing this proof."""
        if not self.is_ordered():
            return "geometric"
        if not self.is_tree():
            return "ordered"
        return "tree-ordered"

    def derives(self, goal: PackedBox) -> bool:
        """Does some resolvent contain the goal box?"""
        from repro.core.boxes import box_contains

        return any(
            box_contains(s.resolvent, goal) for s in self.steps
        )

    def leaves(self) -> Set[PackedBox]:
        """Premises that are never themselves derived (inputs + outputs)."""
        derived = self.resolvents
        out: Set[PackedBox] = set()
        for step in self.steps:
            for premise in (step.left, step.right):
                if premise not in derived:
                    out.add(premise)
        return out

    def to_dot(self, max_steps: int = 200) -> str:
        """Render the proof DAG in Graphviz DOT (for small proofs)."""
        from repro.core import intervals as dy

        def label(box: PackedBox) -> str:
            return "⟨" + ",".join(dy.pto_bits(p) for p in box) + "⟩"

        lines = ["digraph proof {", "  rankdir=BT;"]
        for step in self.steps[:max_steps]:
            for premise in (step.left, step.right):
                lines.append(
                    f'  "{label(premise)}" -> "{label(step.resolvent)}";'
                )
        lines.append("}")
        return "\n".join(lines)


def traced_solve_bcp(
    boxes: Sequence[PackedBox],
    ndim: int,
    depth: int,
    sao: Optional[Sequence[int]] = None,
    cache_resolvents: bool = True,
) -> Tuple[List[tuple], ResolutionProof]:
    """Run Tetris-Preloaded and return (outputs, full resolution proof)."""
    from repro.core.tetris import BoxSetOracle, TetrisEngine

    engine = TetrisEngine(
        ndim, depth, sao=sao, cache_resolvents=cache_resolvents
    )
    engine.proof = ResolutionProof()
    outputs = engine.run(BoxSetOracle(boxes, ndim), preload=True)
    return outputs, engine.proof
