"""Tests for value dictionaries, CSV/edge-list/DIMACS readers, query parsing."""

import csv

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.io import (
    BLOCK_ROWS,
    ValueDictionary,
    database_from_csvs,
    parse_query,
    read_csv_rows,
    read_dimacs,
    read_edge_list,
)
from repro.relational.query import triangle_query
from repro.relational.relation import Relation
from repro.relational.schema import Domain, RelationSchema
from tests.helpers import relation_from_rows


class TestValueDictionary:
    def test_encode_decode_roundtrip(self):
        d = ValueDictionary()
        assert d.encode("alice") == 0
        assert d.encode("bob") == 1
        assert d.encode("alice") == 0
        assert d.decode(1) == "bob"
        assert d.decode_row((1, 0)) == ("bob", "alice")
        assert len(d) == 2

    def test_decode_unknown_raises(self):
        d = ValueDictionary()
        with pytest.raises(KeyError):
            d.decode(0)

    def test_domain_sizing(self):
        d = ValueDictionary()
        for i in range(5):
            d.encode(f"v{i}")
        assert d.domain().size >= 5

    def test_relation_from_rows(self):
        d = ValueDictionary()
        rel = relation_from_rows(
            "R", ("A", "B"), [("x", "y"), ("y", "x")], d
        )
        assert len(rel) == 2
        assert (0, 1) in rel and (1, 0) in rel


    def test_relation_from_rows_ragged_names_the_tuple(self):
        d = ValueDictionary()
        with pytest.raises(ValueError, match=r"tuple \(2,\) has arity 1"):
            relation_from_rows("R", ("A", "B"), [("x", "y"), ("z",)], d)


class TestBulkCoding:
    """``encode_rows`` / ``decode_rows`` are the row-at-a-time API, in bulk."""

    ROWS = [("a", "b"), ("b", "c"), ("a", "a"), ("d", "b")]

    def test_encode_rows_assigns_row_major_first_seen_codes(self):
        one, many = ValueDictionary(), ValueDictionary()
        one.encode("c")  # a value seen before the bulk call keeps its code
        many.encode("c")
        assert many.encode_rows(iter(self.ROWS)) == [
            one.encode_row(row) for row in self.ROWS
        ]
        assert many._decode == one._decode == ["c", "a", "b", "d"]
        assert many.encode_rows([]) == []

    def test_encode_rows_keeps_ragged_shapes(self):
        d = ValueDictionary()
        assert d.encode_rows([("a",), ("b", "a", "c"), ()]) == [
            (0,), (1, 0, 2), (),
        ]

    def test_decode_rows_crosses_block_boundaries(self):
        d = ValueDictionary()
        codes = d.encode_rows(
            [(f"v{i}", f"v{i // 2}") for i in range(BLOCK_ROWS + 7)]
        )
        assert list(d.decode_rows(iter(codes))) == [
            d.decode_row(row) for row in codes
        ]
        assert list(d.decode_rows([(0,), (1, 0), ()])) == [
            ("v0",), ("v1", "v0"), (),
        ]

    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "too-large"])
    def test_decode_rows_rejects_unissued_code_mid_block(self, bad):
        d = ValueDictionary()
        d.encode_rows([("a", "b", "c")])
        assert bad in (-1, len(d))
        stream = d.decode_rows([(0, 1), (2, 0), (1, bad), (0, 0)])
        assert next(stream) == ("a", "b")
        assert next(stream) == ("c", "a")  # rows before it still come out
        with pytest.raises(KeyError, match=f"code {bad} not in dictionary"):
            next(stream)


class TestParseQuery:
    def test_triangle(self):
        q = parse_query("R(A,B), S(B,C), T(A,C)")
        assert [a.name for a in q.atoms] == ["R", "S", "T"]
        assert q.variables == ("A", "B", "C")

    def test_whitespace_tolerant(self):
        q = parse_query("  R( A , B ) ,S(B,C)")
        assert q.atoms[0].attrs == ("A", "B")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_query("")

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_query("R(A,B")
        with pytest.raises(ValueError):
            parse_query("R A,B)")
        with pytest.raises(ValueError):
            parse_query("(A,B)")
        with pytest.raises(ValueError):
            parse_query("R(A,,B)")


class TestFileReaders:
    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\nalice,bob\ncarol,dave\n\n")
        rows = read_csv_rows(p, skip_header=True)
        assert rows == [("alice", "bob"), ("carol", "dave")]

    def test_database_from_csvs(self, tmp_path):
        q = triangle_query()
        (tmp_path / "r.csv").write_text("u,v\nu,w\n")
        (tmp_path / "s.csv").write_text("v,x\n")
        (tmp_path / "t.csv").write_text("u,x\n")
        db, d = database_from_csvs(
            q,
            {
                "R": tmp_path / "r.csv",
                "S": tmp_path / "s.csv",
                "T": tmp_path / "t.csv",
            },
        )
        assert db.total_tuples == 4
        from repro.joins.tetris_join import join_tetris

        out = join_tetris(q, db)
        decoded = [d.decode_row(t) for t in out.tuples]
        assert decoded == [("u", "v", "x")]

    def test_database_missing_file(self, tmp_path):
        q = triangle_query()
        with pytest.raises(ValueError, match="no file"):
            database_from_csvs(q, {})

    def test_database_bad_arity(self, tmp_path):
        q = triangle_query()
        (tmp_path / "r.csv").write_text("a,b,c\n")
        with pytest.raises(ValueError, match="columns"):
            database_from_csvs(
                q,
                {
                    "R": tmp_path / "r.csv",
                    "S": tmp_path / "r.csv",
                    "T": tmp_path / "r.csv",
                },
            )

    def test_csv_padded_cells_and_blank_lines(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text('\n a ,b\n   \n,\n"x,y", z\n" "," "\n')
        assert read_csv_rows(p) == [("a", "b"), ("x,y", "z")]
        # The header is the reader's first row, blank or not.
        assert read_csv_rows(p, skip_header=True) == [
            ("a", "b"), ("x,y", "z"),
        ]

    def test_edge_list(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("# comment\n1 2\n2 3 extra-ignored\n\n")
        assert read_edge_list(p) == [("1", "2"), ("2", "3")]

    def test_edge_list_malformed(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("justone\n")
        with pytest.raises(ValueError):
            read_edge_list(p)

    def test_edge_list_error_names_file_and_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("# edges\n1 2\n\n3\n")
        with pytest.raises(ValueError) as info:
            read_edge_list(p)
        assert str(info.value) == f"{p}:4: malformed edge line: '3'"


class TestDimacs:
    def test_basic(self, tmp_path):
        p = tmp_path / "f.cnf"
        p.write_text("c comment\np cnf 3 2\n1 -2 0\n3 0\n")
        cnf = read_dimacs(p)
        assert cnf.num_vars == 3
        assert len(cnf.clauses) == 2

    def test_multiline_clause(self, tmp_path):
        p = tmp_path / "f.cnf"
        p.write_text("p cnf 4 1\n1 2\n3 4 0\n")
        cnf = read_dimacs(p)
        assert len(cnf.clauses) == 1
        assert cnf.clauses[0] == frozenset({1, 2, 3, 4})

    def test_missing_header(self, tmp_path):
        p = tmp_path / "f.cnf"
        p.write_text("1 2 0\n")
        with pytest.raises(ValueError):
            read_dimacs(p)

    @pytest.mark.parametrize("text, line, message", [
        ("p cnf 2 1\n1 x 0\n", 2, "bad literal 'x'"),
        ("c a\np cnf 2 1\n1 -2\n2 1.5 0\n", 4, "bad literal '1.5'"),
        ("p cnf two 1\n1 0\n", 1, "malformed problem line: 'p cnf two 1'"),
        ("c a\np cnf 2 -1\n1 0\n", 2, "malformed problem line: 'p cnf 2 -1'"),
        ("p cnf 2\n1 0\n", 1, "malformed problem line: 'p cnf 2'"),
    ])
    def test_errors_name_file_and_line(self, tmp_path, text, line, message):
        p = tmp_path / "f.cnf"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            read_dimacs(p)
        assert str(info.value) == f"{p}:{line}: {message}"

    def test_counts_match(self, tmp_path):
        from repro.sat.dpll import count_models_tetris

        p = tmp_path / "f.cnf"
        p.write_text("p cnf 3 2\n1 2 0\n-1 -2 0\n")
        cnf = read_dimacs(p)
        # (x1 ∨ x2) ∧ (¬x1 ∨ ¬x2): x1 ≠ x2, x3 free → 4 models.
        assert count_models_tetris(cnf) == 4


# -- database_from_csvs against the row-at-a-time loader it replaced ------------


def _reference_load(query, paths, skip_header):
    """``database_from_csvs`` a row and a cell at a time."""
    d, raw = ValueDictionary(), {}
    for atom in query.atoms:
        rows = []
        with open(paths[atom.name], newline="") as handle:
            for i, row in enumerate(csv.reader(handle)):
                if skip_header and i == 0:
                    continue
                if not row or all(not cell.strip() for cell in row):
                    continue
                rows.append(tuple(cell.strip() for cell in row))
        for row in rows:
            if len(row) != atom.arity:
                raise ValueError(
                    f"{atom.name}: row {row} has {len(row)} columns, "
                    f"schema expects {atom.arity}"
                )
            d.encode_row(row)
        raw[atom.name] = rows
    return {n: sorted({d.encode_row(r) for r in raw[n]}) for n in raw}, d


#: Values shared across files, padded, empty, whitespace-only, and a
#: quoted cell holding the delimiter.
_CELLS = st.sampled_from(
    ["a", "b", "c", "d", " a", "b ", "\tc", "", " ", '"a,b"', '" d"']
)
_LINES = st.one_of(
    st.lists(_CELLS, min_size=2, max_size=2).map(",".join),
    st.lists(_CELLS, min_size=2, max_size=2).map(",".join),
    st.lists(_CELLS, min_size=1, max_size=3).map(",".join),  # ragged
    st.sampled_from(["", "  ", "\t"]),
)
_FILES = st.lists(_LINES, max_size=8).map(lambda lines: "".join(
    line + "\n" for line in lines
))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    """One directory for every generated example (files are rewritten)."""
    return tmp_path_factory.mktemp("csvs")


@settings(max_examples=300, deadline=None)
@given(texts=st.tuples(_FILES, _FILES, _FILES), skip_header=st.booleans())
def test_database_from_csvs_matches_row_at_a_time(
    csv_dir, texts, skip_header
):
    query = triangle_query()
    paths = {}
    for atom, text in zip(query.atoms, texts):
        paths[atom.name] = csv_dir / f"{atom.name}.csv"
        paths[atom.name].write_text(text)
    try:
        want_rows, want = _reference_load(query, paths, skip_header)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            database_from_csvs(query, paths, skip_header=skip_header)
        assert str(got.value) == str(exc)
        return
    db, got = database_from_csvs(query, paths, skip_header=skip_header)
    assert got._decode == want._decode
    assert got._encode == want._encode
    assert {rel.name: rel.rows() for rel in db} == want_rows
    assert db.domain == want.domain()


class TestRelationValidation:
    """The constructor's bulk check reports what the scan it replaced did."""

    SCHEMA = RelationSchema("R", ("A", "B"))

    def test_first_offence_in_input_order(self):
        rows = [(3, 3), (0, 99), (1,), (0, -1)]
        with pytest.raises(ValueError) as exc:
            Relation(self.SCHEMA, iter(rows), Domain(2))
        assert str(exc.value) == (
            "value 99 outside domain [0, 4) in relation R"
        )
        with pytest.raises(ValueError) as exc:
            Relation(self.SCHEMA, rows[:1] + rows[2:], Domain(2))
        assert str(exc.value) == (
            "tuple (1,) has arity 1, schema R(A, B) expects 2"
        )
        with pytest.raises(ValueError, match="value -1 outside domain"):
            Relation(self.SCHEMA, rows[:1] + rows[3:], Domain(2))

    @pytest.mark.parametrize("value", [1.5, 2.0, "1", None])
    def test_non_integer_rejected_at_construction(self, value):
        with pytest.raises(ValueError) as exc:
            Relation(self.SCHEMA, [(0, 1), (value, 2)], Domain(4))
        assert str(exc.value) == (
            f"value {value} outside domain [0, 16) in relation R"
        )

    def test_accepts_what_it_accepted(self):
        rel = Relation(self.SCHEMA, [[1, 2], (0, 3), (1, 2), (True, 0)],
                       Domain(2))
        assert rel.rows() == [(0, 3), (1, 0), (1, 2)]
        assert rel.tuples() == {(0, 3), (1, 0), (1, 2)}
        assert [list(c) for c in rel.columns()] == [[0, 1, 1], [3, 0, 2]]
        assert len(Relation(self.SCHEMA, [], Domain(0))) == 0
