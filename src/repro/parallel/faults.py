"""Deterministic fault injection for the shard-parallel plane.

The supervision machinery in :mod:`~repro.parallel.scheduler` exists to
survive worker crashes, hangs, serialization failures and resource
exhaustion — events that are, by nature, impossible to reproduce on
demand.  This module makes them reproducible: a :class:`FaultPlan`
parsed from the ``REPRO_FAULTS`` environment variable describes exactly
which fault fires on which shard (and how many times), and the hooks in
the workers, the scheduler and the shm arena consult it at the moments
where the real failures would strike.

The plan rides on the *environment*, not on shared state: forked
workers inherit the parent's environment, so the same spec is visible on
both sides of the pipe with no extra wire traffic, and counting is done
against the task's ``attempt`` number — a pure function of
``(shard_id, attempt)`` — so "crash twice, then succeed" needs no
cross-process counter.

Spec grammar (comma-separated tokens)::

    crash@K[*N]        worker running shard K os._exit()s, N times (default 1)
    hang@K[*N]         worker running shard K sleeps forever, N times
    error@K[*N]        shard K raises InjectedFault in the worker, N times
    unpicklable@K[*N]  shard K's result fails to pickle on send, N times
    spawn[*N]          the next N WorkerPool constructions fail
    shm-export[*N]     the next N ShmArena.export calls raise

``*inf`` (or ``*always``) makes a fault permanent — the quarantine /
degradation paths exist for exactly those.  Example::

    REPRO_FAULTS="crash@3,hang@7*2,shm-export*1"

Worker-scoped faults (crash/hang/error/unpicklable) fire only inside a
worker process (:func:`mark_worker` is called by ``worker_main``), so
the scheduler's serial in-parent re-execution of a quarantined shard is
never re-poisoned by the fault that quarantined it — mirroring reality,
where the parent does not share the worker's failure.

Everything here is test/benchmark machinery: with ``REPRO_FAULTS``
unset, :func:`plan` returns ``None`` after one environment read (per
call, through :mod:`repro.config`) and no hook does anything.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import config

#: Sentinel repeat count for ``*inf`` — effectively "every attempt".
ALWAYS = 1 << 30

#: How long an injected hang sleeps.  Far beyond any deadline a test or
#: benchmark would configure; the supervisor kills the worker first.
HANG_SECONDS = 3600.0

#: Exit status of an injected crash (distinguishable from a real signal
#: death in ``Process.exitcode`` while debugging chaos runs).
CRASH_EXIT_CODE = 70


class InjectedFault(RuntimeError):
    """The deterministic worker-side error ``error@K`` raises."""


class Unpicklable:
    """An object whose pickling always fails — stand-in for the exotic
    stats objects that would break ``conn.send`` in the wild."""

    def __reduce__(self):
        raise TypeError("injected unpicklable result (REPRO_FAULTS)")


@dataclass
class FaultPlan:
    """A parsed fault spec.

    Shard-scoped faults map ``shard_id → remaining count`` and are
    checked statelessly against the task's attempt number; pool-scoped
    faults (``spawn``, ``shm_export``) are parent-side countdowns
    consumed by ``take_*``.
    """

    crash: Dict[int, int] = field(default_factory=dict)
    hang: Dict[int, int] = field(default_factory=dict)
    error: Dict[int, int] = field(default_factory=dict)
    unpicklable: Dict[int, int] = field(default_factory=dict)
    spawn: int = 0
    shm_export: int = 0

    # -- shard-scoped (deterministic on (shard, attempt)) ----------------------

    def should_crash(self, shard_id: int, attempt: int) -> bool:
        return attempt < self.crash.get(shard_id, 0)

    def should_hang(self, shard_id: int, attempt: int) -> bool:
        return attempt < self.hang.get(shard_id, 0)

    def should_error(self, shard_id: int, attempt: int) -> bool:
        return attempt < self.error.get(shard_id, 0)

    def should_unpickle_fail(self, shard_id: int, attempt: int) -> bool:
        return attempt < self.unpicklable.get(shard_id, 0)

    # -- parent-scoped countdowns ----------------------------------------------

    def take_spawn_failure(self) -> bool:
        if self.spawn <= 0:
            return False
        if self.spawn < ALWAYS:
            self.spawn -= 1
        return True

    def take_shm_export_failure(self) -> bool:
        if self.shm_export <= 0:
            return False
        if self.shm_export < ALWAYS:
            self.shm_export -= 1
        return True


def parse_faults(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string (raises ``ValueError``)."""
    fp = FaultPlan()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        body, _, count_s = token.partition("*")
        count_s = count_s.strip()
        if count_s in ("inf", "always"):
            count = ALWAYS
        elif count_s:
            count = int(count_s)
        else:
            count = 1
        kind, at, shard_s = body.partition("@")
        kind = kind.strip().lower().replace("_", "-")
        if kind in ("crash", "hang", "error", "unpicklable"):
            if not at:
                raise ValueError(
                    f"fault {kind!r} needs a shard: {kind}@K in "
                    f"{config.FAULTS.name}"
                )
            getattr(fp, kind.replace("-", "_"))[int(shard_s)] = count
        elif kind == "spawn":
            fp.spawn = count
        elif kind in ("shm-export", "shmexport"):
            fp.shm_export = count
        else:
            raise ValueError(
                f"unknown fault kind {kind!r} in "
                f"{config.FAULTS.name}={spec!r}"
            )
    return fp


# The plan is cached per spec string so the fault-free path costs one
# knob read; take_* countdowns mutate the cached plan, which is what
# makes "spawn*1" mean one failure per process, not one per call site.
_CACHED_SPEC: Optional[str] = None
_CACHED_PLAN: Optional[FaultPlan] = None


def plan() -> Optional[FaultPlan]:
    """The active fault plan, or ``None`` when ``REPRO_FAULTS`` is unset."""
    global _CACHED_SPEC, _CACHED_PLAN
    spec = config.FAULTS.get()
    if spec != _CACHED_SPEC:
        _CACHED_SPEC = spec
        _CACHED_PLAN = parse_faults(spec) if spec else None
    return _CACHED_PLAN


def reset() -> None:
    """Drop the cached plan (tests re-arming the same spec string)."""
    global _CACHED_SPEC, _CACHED_PLAN
    _CACHED_SPEC = None
    _CACHED_PLAN = None


# Worker-scoped faults fire only in worker processes.  The flag is set
# by worker_main after fork/spawn; the parent (and its serial in-parent
# quarantine path) always sees False.
_IN_WORKER = False


def mark_worker() -> None:
    """Declare this process a shard worker (called by ``worker_main``)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    return _IN_WORKER


def maybe_fire(fp: FaultPlan, shard_id: int, attempt: int) -> None:
    """Fire any worker-scoped execution fault armed for this attempt.

    Called from ``execute_shard`` once the shard's relations are
    materialized (so crashes leave the scheduler's cache mirror with
    real divergence to clean up — the hard case).  No-op outside a
    worker process.
    """
    if not _IN_WORKER:
        return
    if fp.should_crash(shard_id, attempt):
        os._exit(CRASH_EXIT_CODE)
    if fp.should_hang(shard_id, attempt):
        time.sleep(HANG_SECONDS)
    if fp.should_error(shard_id, attempt):
        raise InjectedFault(
            f"injected deterministic fault on shard {shard_id} "
            f"(attempt {attempt})"
        )
