"""Alternative knowledge-base stores, for ablating Appendix C.1.

Stores operate on **packed** boxes (tuples of marker-bit ints); see
:mod:`repro.core.intervals` for the encoding.

The paper stores the knowledge base in a multilevel dyadic tree so the
"find a stored box containing b" query costs Õ(1) (Proposition B.12).
``ListStore`` is the naive alternative — a flat list with O(|A|) linear
scans — retained to measure exactly how much the data structure
contributes (``ablation_store`` in benchmarks/paper.py).  Both implement the
protocol :class:`~repro.core.tetris.TetrisEngine` expects of
``knowledge_base``: ``add`` / ``add_many`` / ``find_container``, so the
one Tetris loop runs unchanged on either store.  A store holds boxes and
nothing of a run: the loop's traversal frontier lives in the loop (see
:mod:`repro.core.dyadic_tree`), and on this store the loop probes with
``find_container``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set

from repro.core.boxes import PackedBox, box_contains


class ListStore:
    """Flat-list knowledge base: O(n) containment scans, O(1) insert."""

    def __init__(self, ndim: int):
        if ndim < 1:
            raise ValueError("ndim must be at least 1")
        self.ndim = ndim
        self._boxes: List[PackedBox] = []
        self._seen: Set[PackedBox] = set()

    def __len__(self) -> int:
        return len(self._boxes)

    def __contains__(self, box: PackedBox) -> bool:
        return box in self._seen

    def __iter__(self) -> Iterator[PackedBox]:
        return iter(self._boxes)

    def add(self, box: PackedBox) -> bool:
        if len(box) != self.ndim:
            raise ValueError(
                f"box has {len(box)} components, store has {self.ndim}"
            )
        if box in self._seen:
            return False
        self._seen.add(box)
        self._boxes.append(box)
        return True

    def add_many(self, boxes: Iterable[PackedBox]) -> int:
        """Bulk insert (the preload path); returns how many were new."""
        return sum(map(self.add, boxes))

    def find_container(self, box: PackedBox) -> Optional[PackedBox]:
        for stored in self._boxes:
            if box_contains(stored, box):
                return stored
        return None
