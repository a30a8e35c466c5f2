"""Join algorithms: Tetris plus the paper's comparator baselines."""

from repro import _lazy_exports

__getattr__ = _lazy_exports(__name__, {
    "JoinResult": "repro.joins.tetris_join",
    "build_join_tree": "repro.joins.yannakakis",
    "join_hash": "repro.joins.hashjoin",
    "join_leapfrog": "repro.joins.leapfrog",
    "join_nested_loop": "repro.joins.nested_loop",
    "join_tetris": "repro.joins.tetris_join",
    "join_yannakakis": "repro.joins.yannakakis",
    "make_oracle": "repro.joins.tetris_join",
    "triangle_count": "repro.joins.aggregates",
})

__all__ = [
    "JoinResult",
    "build_join_tree",
    "join_hash",
    "join_leapfrog",
    "join_nested_loop",
    "join_tetris",
    "join_yannakakis",
    "make_oracle",
    "triangle_count",
]
