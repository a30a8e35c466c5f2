"""Span-based tracing of the query lifecycle.

A query's life is plan → stats → kernel compile → execute — and,
shard-parallel, partition → dispatch → per-worker compute → merge.  Each stage becomes a :class:`Span`: a named wall-time interval
with attributes, a unique id, and a parent id that threads the spans
into a tree.  Span context crosses the multiprocess pipe protocol as a
``(trace id, parent span id)`` pair riding on the
:class:`~repro.parallel.workers.ShardTask`; the worker's spans come back
serialized on the :class:`~repro.parallel.workers.ShardResult` and
stitch under the dispatching span, so a 4-worker run renders as one
tree, not five.

Instrumented code never checks a flag per operation: the engine asks
:func:`current_tracer` **once per query** and passes ``None`` downward
when tracing is off; the :func:`span` helper degrades to a shared no-op
context manager whose cost is one global read.  Span ids are
``"<pid hex>.<counter>"`` — collision-free across worker processes
without coordination.

Export formats:

* :func:`write_jsonl` — one JSON object per span, the replayable log;
* :func:`write_chrome_trace` — Chrome trace-event format (``ph: "X"``
  complete events), loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Ambient tracing for every query: off unless :func:`set_enabled` turns
#: it on (``repro explain --analyze`` traces its query regardless).
_ENABLED = False

#: Process-wide span id source (ids are ``"<pid hex>.<n>"``).
_SPAN_IDS = itertools.count(1)


def set_enabled(on: bool) -> None:
    """Flip ambient tracing for every subsequent query."""
    global _ENABLED
    _ENABLED = on


def enabled() -> bool:
    return _ENABLED


@dataclass
class Span:
    """One named interval of a query's life."""

    name: str
    span_id: str
    parent_id: Optional[str]
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    pid: int = 0

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        return cls(
            name=d["name"],
            span_id=d["span_id"],
            parent_id=d.get("parent_id"),
            start=d["start"],
            end=d["end"],
            attrs=dict(d.get("attrs") or {}),
            pid=d.get("pid", 0),
        )


class Tracer:
    """Collects one trace: a tree of spans under a shared trace id.

    Single-threaded by design (the engine's control plane is); worker
    processes build their own tracer from the propagated context and
    ship their spans home.  ``finish()``-less exits are safe — spans
    still open when the trace is exported get their parent's end time.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ):
        pid = os.getpid()
        self.pid = pid
        self.trace_id = (
            trace_id
            if trace_id is not None
            else f"{pid:x}-{time.time_ns():x}"
        )
        self._stack: List[Span] = []
        #: Span id adopted as the parent of root-level spans — how a
        #: worker's spans nest under the parent process's dispatch span.
        self.root_parent = parent_id
        self.spans: List[Span] = []

    # -- recording -------------------------------------------------------------

    def _new_id(self) -> str:
        # The counter is process-global, not per-tracer: a worker builds
        # a fresh tracer per shard, and a per-tracer counter would hand
        # every shard from one worker the same id — colliding spans in
        # the adopted tree.  (Forked children inherit the counter's
        # position, but their pid prefix keeps their ids distinct.)
        return f"{self.pid:x}.{next(_SPAN_IDS)}"

    def start(
        self, name: str, parent_id: Optional[str] = None, **attrs
    ) -> Span:
        """Open a span explicitly (prefer :meth:`span` where possible)."""
        if parent_id is None:
            parent_id = (
                self._stack[-1].span_id
                if self._stack
                else self.root_parent
            )
        s = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=parent_id,
            start=time.perf_counter(),
            attrs=attrs,
            pid=self.pid,
        )
        self._stack.append(s)
        self.spans.append(s)
        return s

    def finish(self, span: Span, **attrs) -> None:
        """Close a span (and anything left open beneath it)."""
        if attrs:
            span.attrs.update(attrs)
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            top.end = now
            if top is span:
                break

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        s = self.start(name, **attrs)
        try:
            yield s
        finally:
            self.finish(s)

    def adopt(self, spans: Sequence[Dict[str, Any]]) -> None:
        """Absorb serialized spans from another process's tracer.

        The shipped spans carry their own parent links (the worker's
        root spans already point at the dispatching span id from the
        propagated context), so adoption is a plain extend.
        """
        self.spans.extend(Span.from_dict(d) for d in spans)

    def context(self) -> Tuple[str, Optional[str]]:
        """The ``(trace id, current span id)`` pair to put on the wire."""
        current = self._stack[-1].span_id if self._stack else self.root_parent
        return (self.trace_id, current)

    # -- reading ---------------------------------------------------------------

    def serialized(self) -> List[Dict[str, Any]]:
        """Every span as a pickle/JSON-safe dict (wire + export form)."""
        self._close_open()
        return [s.to_dict() for s in self.spans]

    def _close_open(self) -> None:
        now = time.perf_counter()
        for s in self.spans:
            if s.end == 0.0:
                s.end = now

    def tree(self) -> List["SpanNode"]:
        """The trace as root-level :class:`SpanNode` trees (start order)."""
        self._close_open()
        nodes = {s.span_id: SpanNode(s) for s in self.spans}
        roots: List[SpanNode] = []
        for s in self.spans:
            node = nodes[s.span_id]
            parent = (
                nodes.get(s.parent_id) if s.parent_id is not None else None
            )
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: n.span.start)
        roots.sort(key=lambda n: n.span.start)
        return roots


@dataclass
class SpanNode:
    """A span plus its children — the rendered/asserted tree form."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)

    def shape(self) -> Tuple:
        """Name-only recursive shape, for parity assertions.

        Children are sorted by name so completion-order jitter (parallel
        shards finish in any order) never changes the shape.
        """
        return (
            self.span.name,
            tuple(sorted(c.shape() for c in self.children)),
        )

    def self_seconds(self) -> float:
        """The part of this span's wall time that no child covers.

        Overlapping children (parallel shards, a merge beside its
        dispatch) count once; a child reaching past this span is
        clipped to it, so the result lies in ``[0, duration]``.
        """
        s = self.span
        children = ((c.span.start, c.span.end) for c in self.children)
        busy = covered_seconds(children, s.start, s.end)
        return max(0.0, s.duration - busy)


def covered_seconds(
    intervals: Iterator[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Seconds of ``[lo, hi]`` inside at least one ``(start, end)``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# -- the ambient tracer --------------------------------------------------------

_CURRENT: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The query currently being traced, or ``None`` (the common case)."""
    return _CURRENT


class use:
    """Install a tracer as ambient for the duration of a query.

    A class, not a generator context manager: ``execute()`` enters one
    per query.
    """

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Optional[Tracer]):
        self._tracer = tracer

    def __enter__(self) -> Optional[Tracer]:
        global _CURRENT
        self._previous = _CURRENT
        _CURRENT = self._tracer
        return self._tracer

    def __exit__(self, *exc) -> bool:
        global _CURRENT
        _CURRENT = self._previous
        return False


class _NullSpan:
    """The shared do-nothing context manager for untraced queries."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open a span on the ambient tracer, or no-op when untraced.

    This is the deep-instrumentation hook (planner, codegen): call sites
    pay one global read when tracing is off.  Per-query code that holds
    a tracer reference should call ``tracer.span`` directly.
    """
    tracer = _CURRENT
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


# -- export --------------------------------------------------------------------


def write_jsonl(spans: Sequence[Dict[str, Any]], path: str) -> None:
    """One JSON object per span — the appendable raw log."""
    import json

    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s, sort_keys=True))
            fh.write("\n")


def chrome_trace_events(
    spans: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Spans as Chrome trace-event ``ph: "X"`` complete events.

    ``perf_counter`` timestamps are monotonic within a boot and shared
    by forked workers, so parent and worker spans land on one timeline;
    each process renders as its own ``pid`` row in Perfetto.
    """
    events = []
    for s in spans:
        events.append(
            {
                "name": s["name"],
                "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": max(0.0, s["end"] - s["start"]) * 1e6,
                "pid": s.get("pid", 0),
                "tid": s.get("pid", 0),
                "args": {
                    "span_id": s["span_id"],
                    "parent_id": s.get("parent_id"),
                    **{k: repr(v) for k, v in (s.get("attrs") or {}).items()},
                },
            }
        )
    return events


def write_chrome_trace(
    spans: Sequence[Dict[str, Any]], path: str
) -> None:
    """A Perfetto-loadable trace file (``traceEvents`` envelope)."""
    import json

    with open(path, "w") as fh:
        json.dump(
            {"traceEvents": chrome_trace_events(spans),
             "displayTimeUnit": "ms"},
            fh,
        )
        fh.write("\n")


def render_tree(
    roots: Sequence[SpanNode], indent: str = "", tail: Optional[str] = None
) -> List[str]:
    """The span tree as aligned text lines (EXPLAIN ANALYZE).

    A span with children also shows its self time; ``tail``, when
    given, is one more line after the last root, at the roots' level.
    """
    lines: List[str] = []

    def visit(node: SpanNode, prefix: str, last: bool) -> None:
        s = node.span
        branch = "└─" if last else "├─"
        own = ""
        if node.children:
            own = f"  self {node.self_seconds() * 1e3:.3f} ms"
        attrs = ""
        if s.attrs:
            attrs = "  " + " ".join(
                f"{k}={v}" for k, v in sorted(s.attrs.items())
            )
        lines.append(
            f"{indent}{prefix}{branch} {s.name:<18s} "
            f"{s.duration * 1e3:9.3f} ms{own}{attrs}"
        )
        ext = "    " if last else "│   "
        for i, child in enumerate(node.children):
            visit(child, prefix + ext, i == len(node.children) - 1)

    for i, root in enumerate(roots):
        visit(root, "", tail is None and i == len(roots) - 1)
    if tail is not None:
        lines.append(f"{indent}└─ {tail}")
    return lines
