"""Deterministic fault injection for the shard-parallel plane.

The recovery rule in :mod:`~repro.parallel.scheduler` exists to survive
worker crashes, hangs, serialization failures and resource exhaustion —
events that are, by nature, impossible to reproduce on demand.  This
module makes them reproducible: a :class:`FaultPlan` parsed from the
``REPRO_FAULTS`` environment variable describes exactly which fault
fires on which shard, and the hooks in the workers, the scheduler and
the shm arena consult it at the moments where the real failures would
strike.

The plan rides on the *environment*, not on shared state: forked
workers inherit the parent's environment, so the same spec is visible on
both sides of the pipe with no extra wire traffic.  A shard-scoped fault
is a set of shard ids and fires every time one of those shards runs in
a worker — which is once per run, because a failed shard runs in the
parent and is never dealt again.

Spec grammar (comma-separated tokens)::

    crash@K            worker running shard K os._exit()s
    hang@K             worker running shard K sleeps forever
    error@K            shard K raises InjectedFault in the worker
    unpicklable@K      shard K's result fails to pickle on send
    spawn[*N]          the next N WorkerPool constructions fail (default 1)
    shm-export[*N]     the next N ShmArena.export calls raise (default 1)

``*inf`` (or ``*always``) makes a pool-scoped fault permanent.  Shard
ids are ≥ 0, counts ≥ 1, and any token that does not parse raises one
``ValueError`` naming ``REPRO_FAULTS``.  Example::

    REPRO_FAULTS="crash@3,hang@7,shm-export*1"

Shard-scoped faults fire only inside a worker process
(:func:`mark_worker` is called by ``worker_main``), so the parent's
re-run of a failed shard is never re-poisoned by the fault that failed
it — mirroring reality, where the parent does not share the worker's
failure.

Everything here is test/benchmark machinery: with ``REPRO_FAULTS``
unset, :func:`plan` returns ``None`` after one environment read (per
call, through :mod:`repro.config`) and no hook does anything.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional, Set

from repro import config

#: Sentinel repeat count for ``*inf`` — effectively "every call".
ALWAYS = 1 << 30

#: How long an injected hang sleeps.  Far beyond any deadline a test or
#: benchmark would configure; the supervisor kills the worker first.
HANG_SECONDS = 3600.0

#: Exit status of an injected crash (distinguishable from a real signal
#: death in ``Process.exitcode`` while debugging chaos runs).
CRASH_EXIT_CODE = 70

#: The shard-scoped kinds, each a :class:`FaultPlan` set of shard ids.
_SHARD_KINDS = ("crash", "hang", "error", "unpicklable")


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

    Shard-scoped faults are sets of shard ids, checked statelessly;
    pool-scoped faults (``spawn``, ``shm_export``) are parent-side
    countdowns consumed by ``take_*``.
    """

    crash: Set[int] = field(default_factory=set)
    hang: Set[int] = field(default_factory=set)
    error: Set[int] = field(default_factory=set)
    unpicklable: Set[int] = field(default_factory=set)
    spawn: int = 0
    shm_export: int = 0

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
    """Parse a ``REPRO_FAULTS`` spec string.

    Raises one ``ValueError`` naming the variable for any token that
    does not parse: an unknown kind, a shard-scoped kind without ``@K``
    or with ``*N``, a pool-scoped kind with ``@K``, a shard id that is
    not an integer ≥ 0, or a count that is not an integer ≥ 1.
    """

    def bad(token: str, why: str) -> ValueError:
        return ValueError(
            f"{config.FAULTS.name}={spec!r}: {token!r} {why}"
        )

    fp = FaultPlan()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        body, star, count_s = token.partition("*")
        kind, at, shard_s = body.partition("@")
        kind = kind.strip().lower().replace("_", "-")
        if kind in _SHARD_KINDS:
            if not at:
                raise bad(token, f"needs a shard: {kind}@K")
            if star:
                raise bad(token, "takes no *N: a shard fault fires "
                                 "every time the shard runs in a worker")
            try:
                shard_id = int(shard_s)
            except ValueError:
                shard_id = -1
            if shard_id < 0:
                raise bad(token, "needs a shard id that is an integer ≥ 0")
            getattr(fp, kind).add(shard_id)
        elif kind in ("spawn", "shm-export", "shmexport"):
            if at:
                raise bad(token, f"takes no shard: {kind} is pool-scoped")
            count = 1
            if star:
                count_s = count_s.strip().lower()
                if count_s in ("inf", "always"):
                    count = ALWAYS
                else:
                    try:
                        count = int(count_s)
                    except ValueError:
                        count = 0
                    if count < 1:
                        raise bad(token, "needs a count that is an "
                                         "integer ≥ 1, inf or always")
            if kind == "spawn":
                fp.spawn = count
            else:
                fp.shm_export = count
        else:
            raise bad(token, f"has an unknown fault kind {kind!r}")
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


# Shard-scoped faults fire only in worker processes.  The flag is set
# by worker_main after fork/spawn; the parent (and its re-run of a
# failed shard) always sees False.
_IN_WORKER = False


def mark_worker() -> None:
    """Declare this process a shard worker (called by ``worker_main``)."""
    global _IN_WORKER
    _IN_WORKER = True


def maybe_fire(fp: FaultPlan, shard_id: int) -> None:
    """Fire any shard-scoped execution fault armed for this shard.

    Called from ``execute_shard`` once the shard's relations are
    materialized (so crashes leave the scheduler's cache mirror with
    real divergence to clean up — the hard case).  No-op outside a
    worker process.
    """
    if not _IN_WORKER:
        return
    if shard_id in fp.crash:
        os._exit(CRASH_EXIT_CODE)
    if shard_id in fp.hang:
        time.sleep(HANG_SECONDS)
    if shard_id in fp.error:
        raise InjectedFault(
            f"injected deterministic fault on shard {shard_id}"
        )
