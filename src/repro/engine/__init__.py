"""repro.engine — the adaptive query planner and unified execution engine.

Turns the paper's Table 1 into code: :func:`plan_query` inspects a
query's structure (acyclicity, treewidth, fhtw) and data statistics
(cardinalities, distinct counts, AGM bound),
prices the two backends ``auto`` can pick (hash and leapfrog) with a
calibrated cost model,
and :func:`execute` runs the winner — or a forced one of the six
:mod:`repro.joins` backends declared in ``BACKEND_TABLE`` — behind one
result shape.
Results stream: :func:`execute_cursor` returns a lazy :class:`ResultCursor`, and
``execute(..., limit=k, decode=dictionary)`` early-terminates after O(k)
rows and decodes them through a ValueDictionary.

    from repro.engine import execute, execute_cursor

    result = execute(query, db)            # algorithm="auto"
    print(result.backend, len(result))
    print(explain_text(result.plan, result))

    for row in execute_cursor(query, db, limit=10):
        ...                                # rows pulled lazily
"""

from repro.engine.codegen import (
    KernelCache,
    clear_kernel_caches,
    kernel_cache_info,
    kernel_cache_summary,
)
from repro.engine.cost import (
    CostEstimate,
    CostModel,
    DEFAULT_CALIBRATION,
    StructureProfile,
    structure_of,
)
from repro.engine.executor import (
    ALGORITHM_ALIASES,
    BACKEND_TABLE,
    BACKENDS,
    BackendSpec,
    ExecutionResult,
    ResultCursor,
    execute,
    execute_cursor,
    normalize_algorithm,
    run_backend,
)
from repro.engine.planner import (
    Plan,
    clear_plan_cache,
    plan_cache_info,
    plan_query,
)
from repro.engine.stats import (
    QueryStats,
    RelationProfile,
    assumed_stats,
    clear_stats_cache,
    collect_stats,
)

from repro import _lazy_exports

# EXPLAIN's renderers load when first asked for.
__getattr__ = _lazy_exports(__name__, {
    name: "repro.engine.explain"
    for name in ("explain_text", "render_execution", "render_plan")
})

__all__ = [
    "ALGORITHM_ALIASES",
    "BACKENDS",
    "BACKEND_TABLE",
    "BackendSpec",
    "CostEstimate",
    "CostModel",
    "DEFAULT_CALIBRATION",
    "ExecutionResult",
    "KernelCache",
    "Plan",
    "QueryStats",
    "RelationProfile",
    "ResultCursor",
    "StructureProfile",
    "assumed_stats",
    "clear_kernel_caches",
    "clear_plan_cache",
    "clear_stats_cache",
    "collect_stats",
    "execute",
    "execute_cursor",
    "explain_text",
    "kernel_cache_info",
    "kernel_cache_summary",
    "normalize_algorithm",
    "plan_cache_info",
    "plan_query",
    "render_execution",
    "render_plan",
    "run_backend",
    "structure_of",
]
