"""Geometric resolution of dyadic boxes (Section 4.1 of the paper).

Two boxes ``w1 = ⟨y1..yn⟩`` and ``w2 = ⟨z1..zn⟩`` resolve on dimension ℓ
when

1. ``y_ℓ = x·0`` and ``z_ℓ = x·1`` for some string ``x`` (the components are
   dyadic *siblings*), and
2. on every other dimension the components are comparable (one is a prefix
   of the other).

The resolvent keeps ``x`` on dimension ℓ and the meet (longer string) on
every other dimension.  Every point covered by neither input is outside the
resolvent, and the resolvent is maximal with that property — the geometric
analogue of propositional resolution (Figure 7 / Example 4.1).

Three nested classes of resolution appear in the paper:

* **Geometric Resolution** — the general rule above;
* **Ordered Geometric Resolution** (Definition 4.3) — inputs have the
  special staircase shape of equations (1)–(2): full freedom only up to the
  resolved dimension, λ after it;
* **Tree Ordered Geometric Resolution** — ordered resolution whose proof
  DAG is a tree (no caching / reuse of resolvents).  Tetris realizes this
  class when resolvent caching is disabled.

:class:`ResolutionStats` counts resolutions so that Lemma 4.5
("runtime is bounded by #resolutions") is observable in tests and benches.
The one Tetris loop (the kernel :func:`repro.engine.codegen.tetris_kernel`
generates) resolves inline and keeps its counters in locals, so this
module holds the rule itself, its precondition check (which
:mod:`repro.core.trace` re-runs to verify a proof) and the counters.

All functions below operate on **packed** boxes (tuples of marker-bit
ints, see :mod:`repro.core.intervals`); the packed encoding makes each
rule check one or two int operations per dimension:

* siblings ``x·0`` / ``x·1`` pack to ``2x`` / ``2x+1``, so the sibling
  test is ``y ^ z == 1`` and the shared parent is ``y >> 1``;
* for comparable components the longer (the meet) is numerically larger,
  so the meet is ``max``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.core.boxes import PackedBox


def find_resolvable_dimension(w1: PackedBox, w2: PackedBox) -> Optional[int]:
    """The unique dimension on which the two boxes can resolve, or ``None``.

    There can be at most one sibling dimension if all other dimensions are
    comparable; if two dimensions are siblings simultaneously the pair is
    not resolvable (their union is not a box) and we return ``None``.
    """
    axis = None
    for i, (y, z) in enumerate(zip(w1, w2)):
        if (y ^ z) == 1:
            # Dyadic siblings: same length, last bit differs (packed ints
            # are >= 1, so the only xor-1 pairs are 2x vs 2x+1).
            if axis is not None:
                return None
            axis = i
        else:
            shift = z.bit_length() - y.bit_length()
            if shift >= 0:
                if (z >> shift) != y:
                    return None
            elif (y >> -shift) != z:
                return None
    return axis


def resolvable(w1: PackedBox, w2: PackedBox) -> bool:
    """True when the two boxes satisfy the geometric-resolution preconditions."""
    return find_resolvable_dimension(w1, w2) is not None


def resolve_on_axis(w1: PackedBox, w2: PackedBox, axis: int) -> PackedBox:
    """Resolvent on a known sibling dimension (no precondition re-checking).

    On ``axis`` the output is the shared parent ``x``; elsewhere it is the
    longer (more specific) of the two components — the meet ``y_i ∩ z_i``.
    For comparable packed components the longer one is numerically
    larger, so the meet row is one C-level ``map(max, ...)`` pass.
    """
    out = list(map(max, w1, w2))
    out[axis] = w1[axis] >> 1
    return tuple(out)


@dataclass
class ResolutionStats:
    """Counters behind Lemma 4.5: runtime ≈ number of resolutions.

    ``by_axis`` buckets resolutions by the resolved dimension, which is what
    the per-attribute witness counting arguments of Appendix D–F track.

    ``containment_queries`` counts knowledge-base probes (one per
    traversal box; ``cache_hits`` of them found a container) and
    ``oracle_queries`` counts oracle probes — one ``container(box)``
    per knowledge-base miss in Reloaded runs.  ``boxes_loaded`` counts
    every input gap box and output box stored.

    The frontier-resuming loop adds two counters: ``resumes`` (every
    point where the traversal continues in place after the knowledge
    base was amended — an oracle box or an output box stored — where
    Algorithm 2 as printed would restart from the universe) and
    ``witness_depth_sum`` (total component bits of the gap boxes the
    oracle returned — lower means bigger witnesses, hence fewer
    resolution steps).
    """

    resolutions: int = 0
    ordered_resolutions: int = 0
    by_axis: dict = field(default_factory=dict)
    containment_queries: int = 0
    oracle_queries: int = 0
    skeleton_calls: int = 0
    boxes_loaded: int = 0
    cache_hits: int = 0
    resumes: int = 0
    witness_depth_sum: int = 0

    def reset(self) -> None:
        """Zero every counter, dicts included.

        Field-driven (like :meth:`absorb`): a counter added to the
        dataclass is reset without touching this method.
        """
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value.clear()
            else:
                setattr(self, f.name, 0)

    def absorb(self, other: "ResolutionStats") -> None:
        """Add another stats object's counters into this one, in place.

        Iterates the dataclass fields rather than naming them: every
        numeric field sums, every dict field merges key-wise sums.  A
        counter added by a future PR is therefore absorbed — and
        survives the parallel shard merge — by construction; the
        field-introspection test pins the two supported field kinds so
        an incompatible field type fails loudly instead of silently.
        """
        for f in dataclasses.fields(self):
            mine = getattr(self, f.name)
            if isinstance(mine, dict):
                theirs = getattr(other, f.name)
                for key, count in theirs.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, f.name, mine + getattr(other, f.name))

    @classmethod
    def merge(cls, parts: "Iterable[ResolutionStats]") -> "ResolutionStats":
        """Sum every counter across per-shard stats objects.

        The shard merger aggregates with this: the merged object reports
        the total resolution work of a parallel run exactly as a serial
        run over the union would (resolutions, oracle loads, resumes,
        witness depth all add; ``mean_witness_depth`` stays a
        weighted mean because both the sum and the resume count add).
        """
        merged = cls()
        for part in parts:
            merged.absorb(part)
        return merged

    @property
    def mean_witness_depth(self) -> float:
        """``witness_depth_sum`` per resume (0 if none); output boxes
        count as resumes and add no depth."""
        if self.resumes == 0:
            return 0.0
        return self.witness_depth_sum / self.resumes

    def as_metrics(self) -> Dict[str, int]:
        """The counters as registry-namespace entries.

        Field-driven like :meth:`absorb`: scalar fields become
        ``tetris.<field>`` and dict fields fan out one entry per key
        (``tetris.resolutions.by_axis.2``), so new counters surface in
        the unified metrics block without touching this method.
        """
        out = {base: getattr(self, name) for name, base in _SCALAR_NAMES}
        for name, base in _DICT_NAMES:
            for key, count in getattr(self, name).items():
                out[f"{base}.{key}"] = count
        return out

    def summary(self) -> str:
        return (
            f"resolutions={self.resolutions} "
            f"(ordered={self.ordered_resolutions}) "
            f"containment_queries={self.containment_queries} "
            f"oracle_queries={self.oracle_queries} "
            f"boxes_loaded={self.boxes_loaded} "
            f"resumes={self.resumes}"
        )


#: ``(field, registry name)`` per scalar counter and per dict of
#: counters, in field order: what :meth:`ResolutionStats.as_metrics`
#: reads on every query, worked out once.
_SCALAR_NAMES = tuple(
    (f.name, f"tetris.{f.name}")
    for f in dataclasses.fields(ResolutionStats)
    if f.default_factory is not dict
)
_DICT_NAMES = tuple(
    (
        f.name,
        f"tetris.resolutions.{f.name}"
        if f.name == "by_axis"
        else f"tetris.{f.name}",
    )
    for f in dataclasses.fields(ResolutionStats)
    if f.default_factory is dict
)
