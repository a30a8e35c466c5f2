"""Index structures that expose their gaps as dyadic boxes."""

from repro.indexes.btree import BTreeIndex
from repro.indexes.dyadic_index import DyadicTreeIndex, KDTreeIndex
from repro.indexes.gaps import complement_ranges
from repro.indexes.oracle import (
    QueryGapOracle,
    build_all_order_btrees,
    build_btree_indexes,
    build_dyadic_indexes,
    build_kdtree_indexes,
    default_gao,
)

__all__ = [
    "BTreeIndex",
    "DyadicTreeIndex",
    "KDTreeIndex",
    "QueryGapOracle",
    "build_all_order_btrees",
    "build_btree_indexes",
    "build_dyadic_indexes",
    "build_kdtree_indexes",
    "complement_ranges",
    "default_gao",
]
