"""Workload generators and the paper's hard-instance constructions."""

from repro.workloads.generators import (
    agm_tight_triangle,
    chained_path_db,
    db_from_tuples,
    dense_cycle_db,
    graph_triangle_db,
    power_law_graph_edges,
    random_graph_edges,
    random_path_db,
    split_cycle_instance,
    split_path_instance,
)
from repro.workloads.hard_instances import (
    covering_pair_instance,
    example_f1,
    msb_join,
    msb_relation,
    msb_triangle,
    shared_suffix_instance,
    staircase_instance,
)

__all__ = [
    "agm_tight_triangle",
    "chained_path_db",
    "covering_pair_instance",
    "db_from_tuples",
    "dense_cycle_db",
    "example_f1",
    "graph_triangle_db",
    "msb_join",
    "msb_relation",
    "msb_triangle",
    "power_law_graph_edges",
    "random_graph_edges",
    "random_path_db",
    "shared_suffix_instance",
    "split_cycle_instance",
    "split_path_instance",
    "staircase_instance",
]
