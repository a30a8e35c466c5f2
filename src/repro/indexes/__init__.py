"""Index structures that expose their gaps as dyadic boxes."""

from repro import _lazy_exports

__getattr__ = _lazy_exports(__name__, {
    "BTreeIndex": "repro.indexes.btree",
    "DyadicTreeIndex": "repro.indexes.dyadic_index",
    "KDTreeIndex": "repro.indexes.dyadic_index",
    "QueryGapOracle": "repro.indexes.oracle",
    "build_all_order_btrees": "repro.indexes.oracle",
    "build_btree_indexes": "repro.indexes.oracle",
    "build_dyadic_indexes": "repro.indexes.oracle",
    "build_kdtree_indexes": "repro.indexes.oracle",
    "complement_ranges": "repro.indexes.gaps",
    "default_gao": "repro.indexes.oracle",
})

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
