"""Fault injection for the chaos tests: each fault class patches the
function its real failure would strike, and the pools are recycled so
freshly forked workers inherit the patch.

Shard faults fire only in a worker — the parent's run of a failed shard
must not fail again — once the shard's relations are materialized,
where ``execute_shard`` enters the backend:

* ``crash`` exits the worker, ``hang`` sleeps it past any budget, and
  ``error`` raises, so the shard comes back as an error result;
* ``unpicklable`` makes the shard's result fail to pickle on the pipe.

Pool faults fire in the parent: ``spawn`` fails the next ``times``
worker spawns and ``shm_export`` the next ``times`` arena exports
(``times=None``: every one).
"""

import os
import time

import pytest

from repro.engine import executor
from repro.parallel import scheduler, shm, shutdown_pools, workers

SHARD_FAULTS = ("crash", "hang", "error", "unpicklable")

#: Workers see a test's patches only when they fork from it.
needs_fork = pytest.mark.skipif(
    scheduler._preferred_start_method() != "fork",
    reason="workers inherit injected faults only under the fork start method",
)


class InjectedFault(RuntimeError):
    """What an ``error`` shard raises in its worker."""


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("injected unpicklable shard result")


def arm(monkeypatch, kind, shards=(), times=1):
    """Arm one fault class and recycle the pools; returns ``disarm``.

    ``disarm()`` stops the fault in the parent and in workers forked
    from then on; a living worker keeps its fork-time copy.
    """
    parent = os.getpid()
    state = {"armed": True, "left": times, "shard": None}

    def shard_fires():
        return (
            state["armed"] and os.getpid() != parent
            and state["shard"] in shards
        )

    def take():
        if not state["armed"] or state["left"] == 0:
            return False
        if state["left"] is not None:
            state["left"] -= 1
        return True

    if kind in SHARD_FAULTS:
        real_shard, real_backend = workers.execute_shard, executor.run_backend

        def execute_shard(task, cache):
            state["shard"] = task.shard_id
            result = real_shard(task, cache)
            if kind == "unpicklable" and shard_fires():
                result.stats = _Unpicklable()
            return result

        def run_backend(*args):
            if kind == "crash" and shard_fires():
                os._exit(70)
            if kind == "hang" and shard_fires():
                time.sleep(3600)
            if kind == "error" and shard_fires():
                raise InjectedFault(f"injected fault on shard {state['shard']}")
            return real_backend(*args)

        monkeypatch.setattr(workers, "execute_shard", execute_shard)
        monkeypatch.setattr(executor, "run_backend", run_backend)
    elif kind == "spawn":
        real_spawn = scheduler.WorkerPool._spawn_worker

        def spawn_worker(pool, wid):
            if take():
                raise OSError("injected worker spawn failure")
            return real_spawn(pool, wid)

        monkeypatch.setattr(scheduler.WorkerPool, "_spawn_worker", spawn_worker)
    elif kind == "shm_export":
        real_export = shm.ShmArena.export

        def export(arena, rel, owner=None):
            if take():
                raise OSError("injected shm export failure")
            return real_export(arena, rel, owner)

        monkeypatch.setattr(shm.ShmArena, "export", export)
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    shutdown_pools()

    def disarm():
        state["armed"] = False

    return disarm
