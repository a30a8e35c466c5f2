"""repro.parallel — the shard-parallel execution subsystem.

Splits a join's **output box space** into disjoint dyadic shards
(:mod:`~repro.parallel.partition`), runs each shard on a persistent
multiprocess worker pool with pickle-lean payloads and per-worker
relation caches (:mod:`~repro.parallel.workers`,
:mod:`~repro.parallel.scheduler`), and merges the per-shard results back
into the engine's streaming-cursor shape with aggregated resolution
statistics (:mod:`~repro.parallel.merge`).

The sharding primitive is the paper's own: Section 4.5's balanced
partitions split a dyadic space into load-balanced, prefix-free cells.
Here the same splitting *rule* (halve the heaviest dyadic interval
until the load is level — cf. ``repro.core.balance.balanced_partition``,
whose single-axis threshold form stays untouched) is applied to
planner-chosen split attributes of the *output* space, each shard clips
every relation by bisect ranges on the PR-3 cached sorted views, and
the shards — disjoint by construction — are dealt dynamically to
workers so skewed shards don't straggle.

The subsystem is reached through the engine: ``execute(query, db,
workers=4)`` (the planner's parallel-plan candidate decides
serial-vs-parallel under ``algorithm="auto"``), ``execute_cursor(...,
workers=4)`` for streaming consumption, and ``repro join --workers 4``
on the command line.
"""

from repro.parallel.merge import (
    ParallelReport,
    ShardOutcome,
    clear_job_cache,
    run_shards,
)
from repro.parallel.partition import (
    Shard,
    choose_split_attrs,
    clip_database,
    clip_relation,
    clip_slice,
    partition_shards,
)
from repro.parallel.scheduler import (
    QueryTimeout,
    WorkerError,
    WorkerPool,
    get_pool,
    run_job_in_parent,
    shutdown_pools,
)
from repro.parallel.shm import (
    ARENA,
    ShmArena,
    ShmRef,
    ShmSlice,
    SlicePlan,
)
from repro.parallel.workers import ShardResult, ShardTask

__all__ = [
    "ARENA",
    "ParallelReport",
    "QueryTimeout",
    "Shard",
    "ShardOutcome",
    "ShardResult",
    "ShardTask",
    "ShmArena",
    "ShmRef",
    "ShmSlice",
    "SlicePlan",
    "WorkerError",
    "WorkerPool",
    "choose_split_attrs",
    "clear_job_cache",
    "clip_database",
    "clip_relation",
    "clip_slice",
    "get_pool",
    "partition_shards",
    "run_job_in_parent",
    "run_shards",
    "shutdown_pools",
]
