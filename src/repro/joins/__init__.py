"""Join algorithms: Tetris plus the paper's comparator baselines."""

from repro.joins.aggregates import triangle_count
from repro.joins.hashjoin import join_hash
from repro.joins.leapfrog import join_leapfrog
from repro.joins.nested_loop import join_nested_loop
from repro.joins.tetris_join import JoinResult, join_tetris, make_oracle
from repro.joins.yannakakis import build_join_tree, join_yannakakis

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
