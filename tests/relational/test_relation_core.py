"""The columnar order-cached relation core: views, bisect, columns.

Parity tests assert the cached sorted views and bisect prefix lookups
reproduce the seed semantics (full re-sort + linear scan) exactly, and
identity tests assert the zero-copy sharing the consumers rely on.
"""

import random

import pytest

from repro.relational.relation import Relation, SortedView
from repro.relational.schema import Domain, RelationSchema


def _random_relation(seed, n=60, arity=3, depth=5):
    rng = random.Random(seed)
    schema = RelationSchema("R", tuple(f"A{i}" for i in range(arity)))
    rows = {
        tuple(rng.randrange(1 << depth) for _ in range(arity))
        for _ in range(n)
    }
    return Relation(schema, rows, Domain(depth))


def _seed_sorted_by(rel, attr_order):
    """The seed core's semantics: permute and re-sort from scratch."""
    perm = [rel.schema.position(a) for a in attr_order]
    return sorted(tuple(t[i] for i in perm) for t in rel.tuples())


def _all_orders(attrs):
    import itertools

    return list(itertools.permutations(attrs))


class TestSortedViews:
    @pytest.mark.parametrize("seed", range(5))
    def test_sorted_by_matches_seed_semantics(self, seed):
        rel = _random_relation(seed)
        for order in _all_orders(rel.attrs):
            assert rel.sorted_by(order) == _seed_sorted_by(rel, order)

    def test_views_are_memoized_and_shared(self):
        rel = _random_relation(0)
        order = ("A1", "A0", "A2")
        assert rel.sorted_by(order) is rel.sorted_by(order)
        assert rel.view(order) is rel.view(list(order))

    def test_canonical_view_is_zero_copy(self):
        rel = _random_relation(1)
        assert rel.sorted_by(rel.attrs) is rel.rows()
        assert rel.view(rel.attrs).rows is rel.rows()

    def test_cached_view_orders_reports_materializations(self):
        rel = _random_relation(2)
        assert rel.cached_view_orders() == ()  # all views are lazy now
        rel.sorted_by(rel.attrs)
        assert rel.cached_view_orders() == (rel.attrs,)
        rel.sorted_by(("A2", "A1", "A0"))
        assert ("A2", "A1", "A0") in rel.cached_view_orders()

    def test_bad_order_rejected(self):
        rel = _random_relation(3)
        with pytest.raises(ValueError):
            rel.sorted_by(("A0", "A1"))
        with pytest.raises(ValueError):
            rel.view(("A0", "A1", "B"))

    def test_iteration_follows_canonical_view(self):
        rel = _random_relation(4)
        assert list(rel) == rel.rows() == sorted(rel.tuples())


class TestSelectPrefix:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_linear_scan(self, seed):
        rel = _random_relation(seed, n=80, depth=3)
        for order in _all_orders(rel.attrs):
            rows = _seed_sorted_by(rel, order)
            for k in range(rel.arity + 1):
                for probe in [(), (0,), (3,), (7,), (3, 3), (7, 7, 7)]:
                    prefix = probe[:k]
                    if len(prefix) != k:
                        continue
                    expected = [t for t in rows if t[:k] == prefix]
                    assert rel.select_prefix(order, prefix) == expected

    def test_prefix_range_bounds(self):
        schema = RelationSchema("R", ("A", "B"))
        rel = Relation(
            schema, [(0, 1), (1, 0), (1, 2), (1, 3), (2, 0)], Domain(2)
        )
        view = rel.view(("A", "B"))
        assert view.prefix_range(()) == (0, 5)
        assert view.prefix_range((1,)) == (1, 4)
        assert view.prefix_range((3,)) == (5, 5)
        assert view.prefix_range((1, 2)) == (2, 3)

    def test_too_long_prefix_rejected(self):
        rel = _random_relation(0, arity=2)
        with pytest.raises(ValueError):
            rel.select_prefix(("A0", "A1"), (1, 2, 3))

    def test_empty_relation(self):
        schema = RelationSchema("E", ("A", "B"))
        rel = Relation(schema, [], Domain(3))
        assert rel.select_prefix(("B", "A"), (1,)) == []
        assert rel.rows() == []
        assert tuple(tuple(c) for c in rel.columns()) == ((), ())


class TestColumns:
    def test_columns_align_with_rows(self):
        rel = _random_relation(7)
        cols = rel.columns()
        assert len(cols) == rel.arity
        for i, row in enumerate(rel.rows()):
            for j, v in enumerate(row):
                assert cols[j][i] == v

    def test_column_by_attr(self):
        schema = RelationSchema("R", ("X", "Y"))
        rel = Relation(schema, [(1, 2), (0, 3)], Domain(2))
        assert tuple(rel.column("X")) == (0, 1)
        assert tuple(rel.column("Y")) == (3, 2)
        with pytest.raises(KeyError):
            rel.column("Z")


class TestDistinctCounts:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive(self, seed):
        rel = _random_relation(seed, n=50, depth=4)
        naive = {
            a: len({t[i] for t in rel.tuples()})
            for i, a in enumerate(rel.attrs)
        }
        assert rel.distinct_counts() == naive

    def test_reuses_cached_views(self):
        rel = _random_relation(8)
        # Materialize a view led by the last attribute, then count.
        rel.sorted_by(("A2", "A0", "A1"))
        naive = {
            a: len({t[i] for t in rel.tuples()})
            for i, a in enumerate(rel.attrs)
        }
        assert rel.distinct_counts() == naive

    def test_distinct_leading_on_view(self):
        schema = RelationSchema("R", ("A", "B"))
        rel = Relation(schema, [(0, 0), (0, 1), (2, 0)], Domain(2))
        assert rel.view(("A", "B")).distinct_leading() == 2
        assert rel.view(("B", "A")).distinct_leading() == 2


class TestSortedViewClass:
    def test_len_and_iter(self):
        view = SortedView(("A",), [(0,), (1,)])
        assert len(view) == 2
        assert list(view) == [(0,), (1,)]


class TestDatabaseSortedView:
    def test_shares_the_relation_cache(self):
        from repro.relational.query import Database

        rel = _random_relation(9)
        db = Database([rel])
        order = ("A2", "A0", "A1")
        view = db.sorted_view("R", order)
        assert view is rel.view(order)
        assert view.rows == _seed_sorted_by(rel, order)


class TestViewCacheLRU:
    def test_view_cache_is_bounded_with_eviction_counter(self):
        import itertools

        rel = _random_relation(9, n=40, arity=4, depth=5)
        perms = list(itertools.permutations(rel.schema.attrs))  # 24 orders
        for perm in perms:
            rel.view(perm)
        cap = Relation.VIEW_CACHE_CAP
        assert len(rel.cached_view_orders()) <= cap + 1  # +1: pinned canonical
        assert rel.view_evictions >= len(perms) - cap - 1

    def test_canonical_view_is_pinned_through_churn(self):
        import itertools

        rel = _random_relation(10, n=20, arity=4, depth=5)
        canonical = rel.view(rel.schema.attrs)
        for perm in itertools.permutations(rel.schema.attrs):
            rel.view(perm)
        assert rel.schema.attrs in rel.cached_view_orders()
        assert rel.view(rel.schema.attrs) is canonical

    def test_evicted_order_is_rebuilt_identically(self):
        import itertools

        rel = _random_relation(11, n=30, arity=4, depth=5)
        perms = list(itertools.permutations(rel.schema.attrs))
        first = perms[1]  # not the canonical order
        rel.view(first)
        for perm in perms[2:]:
            rel.view(perm)
        assert first not in rel.cached_view_orders()  # LRU dropped it
        assert rel.view(first).rows == _seed_sorted_by(rel, first)

    def test_recently_touched_order_survives_churn(self):
        import itertools

        rel = _random_relation(12, n=20, arity=4, depth=5)
        hot = ("A1", "A0", "A3", "A2")
        for perm in itertools.permutations(rel.schema.attrs):
            rel.view(perm)
            rel.view(hot)  # refresh recency on every insertion
        assert hot in rel.cached_view_orders()


class TestDerivedArtifacts:
    """``SortedView.derived``: built once, gone with the view, never shipped."""

    def test_built_once_per_view_and_key(self):
        rel = _random_relation(13)
        order = ("A2", "A1", "A0")
        made = []

        def build():
            made.append(object())
            return made[-1]

        first = rel.view(order).derived("trie", build)
        assert rel.view(order).derived("trie", build) is first
        assert rel.view(order).derived("other", build) is not first
        assert rel.view(rel.attrs).derived("trie", build) is not first
        assert len(made) == 3

    def test_builds_are_counted(self):
        from repro.obs.metrics import REGISTRY

        view = _random_relation(14).view(("A1", "A0", "A2"))
        before = REGISTRY.value("relation.index.builds")
        view.derived("trie", object)
        view.derived("trie", object)
        assert REGISTRY.value("relation.index.builds") == before + 1

    def test_evicted_with_the_view_and_rebuilt_on_return(self):
        import itertools

        rel = _random_relation(15, n=20, arity=4, depth=5)
        perms = list(itertools.permutations(rel.schema.attrs))
        pinned = rel.view(perms[0]).derived("trie", object)
        first = rel.view(perms[1]).derived("trie", object)
        for perm in perms[2:]:
            rel.view(perm)
        assert perms[1] not in rel.cached_view_orders()
        assert rel.view(perms[1]).derived("trie", object) is not first
        assert rel.view(perms[0]).derived("trie", object) is pinned

    def test_pickling_drops_it(self):
        import pickle

        rel = _random_relation(16)
        made = rel.view(rel.attrs).derived("trie", object)
        clone = pickle.loads(pickle.dumps(rel))
        assert clone.cached_view_orders() == ()
        assert clone.view(rel.attrs).derived("trie", object) is not made
