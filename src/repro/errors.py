"""Exceptions a parallel run raises, importable without ``repro.parallel``.

A caller that only *catches* them — the CLI around a plan that turns out
serial — must not pay for ``multiprocessing``, the shm arena and the
scheduler, so they live in this leaf module (it imports nothing) and
:mod:`repro.parallel` re-exports the same classes.
"""

from __future__ import annotations


class WorkerError(RuntimeError):
    """A shard failed for real (carries the worker's traceback) or the
    pipe protocol desynchronized beyond repair."""


class QueryTimeout(RuntimeError):
    """A parallel query exceeded its deadline.

    ``report`` holds the partial :class:`~repro.parallel.merge.
    ParallelReport` at abort time — shards executed so far, respawns,
    ship accounting — so callers can see how far the run got.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
