"""Sampling wall-clock profiler: where the main thread's time goes.

A background daemon thread wakes :data:`DEFAULT_HZ` times a second,
reads the main thread's current frame out of
``sys._current_frames()``, and collapses the stack into a
``file:function`` chain.  Each sample is attributed to the **ambient
tracer span** when one is open (``plan``, ``backend[...]``,
``parallel.dispatch``, …), so the aggregate answers the question the
span tree alone cannot: *within* a stage, which frames burned the
time.  Sampling is statistical — the cost is one stack walk per tick
on a thread the GIL schedules like any other — so a disabled profiler
is exactly zero code on the query path, and an enabled one costs a few
percent of a query's wall time.

Exports:

* :meth:`SamplingProfiler.folded` — classic collapsed-stack lines
  (``stage;frame;frame count``), the input format of every flamegraph
  renderer;
* :meth:`SamplingProfiler.stage_self_seconds` — per-span-stage sampled
  time, which ``repro explain --analyze`` renders next to the measured
  span durations.

Enablement: :func:`install` — what ``repro explain --profile`` calls —
samples at :data:`DEFAULT_HZ`; nothing on the query path starts it.  The
profiler samples only its own process — worker processes would need
their own instance, and a ``fork`` does not carry the sampler thread —
so its scope is the parent: planning, merging, coordination, serial
backends.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, List, Optional, Tuple

from repro.obs import tracing as _tracing

#: Default sampling rate (ticks per second).
DEFAULT_HZ = 200

#: Stack frames kept per sample, innermost out — deep recursive
#: backends truncate instead of building unbounded tuples.
MAX_DEPTH = 64

#: Stage label for samples taken while no tracer span is open.
UNTRACED = "(untraced)"


class SamplingProfiler:
    """Collapsed-stack sampler over the main thread.

    ``samples`` maps ``(stage, stack)`` — stage being the innermost
    open span's name at sample time, stack a root-first tuple of
    ``file:function`` strings — to the number of ticks observed there.
    """

    def __init__(self, hz: int = DEFAULT_HZ):
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz}")
        self.hz = hz
        self.samples: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self.ticks = 0
        self._target = threading.main_thread().ident
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None

    def clear(self) -> None:
        self.samples = {}
        self.ticks = 0

    # -- the sampler thread ----------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        wait = self._stop.wait
        while not wait(interval):
            self._sample_once()

    def _sample_once(self) -> None:
        frame = sys._current_frames().get(self._target)
        if frame is None:  # pragma: no cover - main thread gone
            return
        stack: List[str] = []
        depth = 0
        while frame is not None and depth < MAX_DEPTH:
            code = frame.f_code
            stack.append(
                f"{os.path.basename(code.co_filename)}:{code.co_name}"
            )
            frame = frame.f_back
            depth += 1
        stack.reverse()
        # The ambient span is read without locking: the tracer mutates
        # its stack from the main thread while we sample from this one,
        # so a torn read is possible and harmless — the sample lands in
        # an adjacent stage.
        stage = UNTRACED
        tracer = _tracing.current_tracer()
        if tracer is not None:
            try:
                span_stack = tracer._stack
                if span_stack:
                    stage = span_stack[-1].name.split("[", 1)[0]
            except (IndexError, AttributeError):
                pass
        key = (stage, tuple(stack))
        self.samples[key] = self.samples.get(key, 0) + 1
        self.ticks += 1

    # -- aggregates ------------------------------------------------------------

    def stage_self_seconds(self) -> Dict[str, float]:
        """Sampled wall seconds per stage (``ticks / hz``)."""
        out: Dict[str, float] = {}
        for (stage, _), count in self.samples.items():
            out[stage] = out.get(stage, 0.0) + count / self.hz
        return out

    def snapshot_samples(
        self,
    ) -> Dict[Tuple[str, Tuple[str, ...]], int]:
        """A copy of the sample table (for before/after windows)."""
        return dict(self.samples)

    # -- exports ---------------------------------------------------------------

    def folded(self) -> List[str]:
        """Collapsed-stack lines: ``stage;frame;...;frame count``."""
        lines = []
        for (stage, stack), count in sorted(self.samples.items()):
            lines.append(";".join((stage,) + stack) + f" {count}")
        return lines

    def write_folded(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.folded()) + "\n")


#: The process profiler, when one has been installed.
_PROFILER: Optional[SamplingProfiler] = None


def active() -> Optional[SamplingProfiler]:
    """The running process profiler, or ``None``."""
    p = _PROFILER
    return p if p is not None and p.running else None


def install(hz: int = DEFAULT_HZ) -> SamplingProfiler:
    """Start (or return) the process-wide profiler."""
    global _PROFILER
    if _PROFILER is not None and _PROFILER.running:
        return _PROFILER
    _PROFILER = SamplingProfiler(hz=hz)
    _PROFILER.start()
    return _PROFILER


def uninstall() -> Optional[SamplingProfiler]:
    """Stop the process profiler; returns it (samples intact)."""
    p = _PROFILER
    if p is not None:
        p.stop()
    return p
