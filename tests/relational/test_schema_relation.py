"""Tests for schemas, domains, and relation instances."""

import pytest

from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema


class TestDomain:
    def test_size(self):
        assert Domain(3).size == 8

    def test_contains(self):
        d = Domain(2)
        assert 0 in d and 3 in d
        assert 4 not in d and -1 not in d

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            Domain(-1)

    def test_for_values(self):
        assert Domain.for_values(0).depth == 0
        assert Domain.for_values(1).depth == 1
        assert Domain.for_values(7).depth == 3
        assert Domain.for_values(8).depth == 4

    def test_for_values_negative(self):
        with pytest.raises(ValueError):
            Domain.for_values(-1)

    def test_depth_is_capped_at_int64(self):
        """Columns are ``array('q')``: a deeper domain would hold values
        no column can store, so it is refused where it is declared."""
        assert Domain(63).size == 2**63
        with pytest.raises(ValueError, match="int64"):
            Domain(64)
        with pytest.raises(ValueError, match="int64"):
            Domain.for_values(2**63)

    def test_relation_past_int64_is_refused(self):
        schema = RelationSchema("R", ("A", "B"))
        with pytest.raises(ValueError, match="int64"):
            Relation(schema, [(2**65, 0)], Domain(70))
        top = 2**63 - 1
        rel = Relation(schema, [(top, 0), (0, top)], Domain(63))
        assert rel.column_ranges() == {"A": (0, top), "B": (0, top)}


class TestRelationSchema:
    def test_basic(self):
        s = RelationSchema("R", ("A", "B"))
        assert s.arity == 2
        assert s.position("B") == 1
        assert repr(s) == "R(A, B)"

    def test_duplicate_attrs(self):
        with pytest.raises(ValueError):
            RelationSchema("R", ("A", "A"))

    def test_empty_attrs(self):
        with pytest.raises(ValueError):
            RelationSchema("R", ())

    def test_position_missing(self):
        with pytest.raises(KeyError):
            RelationSchema("R", ("A",)).position("Z")


class TestRelation:
    def make(self):
        schema = RelationSchema("R", ("A", "B"))
        return Relation(schema, [(1, 2), (0, 3), (1, 2)], Domain(2))

    def test_dedup_and_len(self):
        assert len(self.make()) == 2

    def test_membership(self):
        r = self.make()
        assert (1, 2) in r
        assert (2, 1) not in r

    def test_iteration_sorted(self):
        assert list(self.make()) == [(0, 3), (1, 2)]

    def test_arity_check(self):
        schema = RelationSchema("R", ("A", "B"))
        with pytest.raises(ValueError):
            Relation(schema, [(1,)], Domain(2))

    def test_domain_check(self):
        schema = RelationSchema("R", ("A", "B"))
        with pytest.raises(ValueError):
            Relation(schema, [(1, 9)], Domain(2))

    def test_sorted_by_reorder(self):
        r = self.make()
        assert r.sorted_by(("B", "A")) == [(2, 1), (3, 0)]

    def test_sorted_by_bad_order(self):
        with pytest.raises(ValueError):
            self.make().sorted_by(("A", "C"))

    def test_project(self):
        p = self.make().project(("B",))
        assert sorted(p) == [(2,), (3,)]

    def test_select_prefix(self):
        r = self.make()
        assert r.select_prefix(("A", "B"), (1,)) == [(1, 2)]
        assert r.select_prefix(("A", "B"), (2,)) == []
