"""Benchmark-side spans: the traced run's record of where an operation's time went.

A span is ``(id, parent, op, name, start, end, attrs)``.  Spans are recorded
by the benchmark around its own calls into each layer's public functions,
kept in memory, and written out once when the run ends.  Nothing here
touches ``repro.obs``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "op": self.op,
            "name": self.name, "start": self.start, "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects the spans of a sequence of operations.

    ``operation()`` opens a root span and gives every span recorded inside
    it the same ``op`` id; ``span()`` nests under whatever span is open.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ops = 0

    @contextmanager
    def operation(self, name: str) -> Iterator[Span]:
        self._ops += 1
        with self.span(name) as root:
            yield root

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, self._ops, name,
                  time.perf_counter(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent is None]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def by_name(self, root: Span) -> Dict[str, float]:
        """Summed duration per span name among ``root``'s direct children."""
        out: Dict[str, float] = {}
        for child in self.children(root):
            out[child.name] = out.get(child.name, 0.0) + child.duration
        return out

    def self_time(self, span: Span) -> float:
        """The span's duration not covered by its child spans."""
        return span.duration - sum(c.duration for c in self.children(span))
