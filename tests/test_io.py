"""Tests for repro.io: text and JSON serialization round-trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CTable,
    Conjunction,
    Eq,
    Instance,
    Neq,
    Row,
    TableDatabase,
    Variable,
    c_table,
    codd_table,
    e_table,
    enumerate_worlds,
    g_table,
    i_table,
)
from repro.core.conditions import BoolAnd, BoolAtom, BoolOr
from repro.core.terms import Constant
from repro.io import (
    TextFormatError,
    database_from_json,
    database_to_json,
    dumps_database,
    dumps_instance,
    instance_from_json,
    instance_to_json,
    json_dumps,
    json_loads,
    load_database,
    load_instance,
    loads_database,
    loads_instance,
    table_from_json,
    table_to_json,
)
from repro.io.text import (
    dump_database,
    dump_instance,
    format_term,
    parse_term_token,
)


def fig1_ctable() -> CTable:
    """The paper's Figure 1(e) c-table Te."""
    return c_table(
        "R",
        3,
        [
            ((0, 1, "?z"), "z = z"),
            ((0, "?x", "?y"), "y = 0"),
            (("?y", "?x", 1), "x != y"),
        ],
        "x != 1, y != 2",
    )


def sample_database() -> TableDatabase:
    return TableDatabase(
        [
            fig1_ctable(),
            i_table("S", 2, [(0, "?u"), ("?v", 1)], "u != v"),
        ],
        Conjunction([Neq(Variable("u"), Variable("x"))]),
    )


# ---------------------------------------------------------------------------
# Term tokens
# ---------------------------------------------------------------------------


class TestTermTokens:
    def test_variable(self):
        assert parse_term_token("?x") == Variable("x")
        assert format_term(Variable("x")) == "?x"

    def test_int(self):
        assert parse_term_token("12") == Constant(12)
        assert format_term(Constant(12)) == "12"

    def test_negative_int(self):
        assert parse_term_token("-3") == Constant(-3)

    def test_float(self):
        assert parse_term_token("1.5") == Constant(1.5)
        assert format_term(Constant(1.5)) == "1.5"

    def test_quoted_string(self):
        assert parse_term_token('"abc"') == Constant("abc")
        assert format_term(Constant("abc")) == '"abc"'

    def test_string_looking_like_int_stays_distinct(self):
        # str "12" and int 12 are different constants; quoting disambiguates.
        assert format_term(Constant("12")) == '"12"'
        assert parse_term_token('"12"') == Constant("12")
        assert parse_term_token('"12"') != Constant(12)

    def test_bare_word_is_string_constant(self):
        assert parse_term_token("alice") == Constant("alice")

    def test_bool_payload(self):
        token = format_term(Constant(True))
        assert parse_term_token(token) == Constant(True)
        assert parse_term_token(token) != Constant(1)

    def test_quote_escapes(self):
        value = 'he said "hi\\"'
        token = format_term(Constant(value))
        assert parse_term_token(token) == Constant(value)

    def test_empty_token_rejected(self):
        with pytest.raises(TextFormatError):
            parse_term_token("")

    def test_bare_question_mark_rejected(self):
        with pytest.raises(TextFormatError):
            parse_term_token("?")

    def test_exotic_payload_rejected(self):
        with pytest.raises(TextFormatError):
            format_term(Constant((1, 2)))


# ---------------------------------------------------------------------------
# Database text round-trips
# ---------------------------------------------------------------------------


class TestDatabaseText:
    def test_roundtrip_codd(self):
        db = TableDatabase.single(codd_table("R", 2, [(0, "?x"), ("?y", 1)]))
        assert loads_database(dumps_database(db)) == db

    def test_roundtrip_e_table(self):
        db = TableDatabase.single(e_table("R", 2, [("?x", "?x"), (0, "?y")]))
        assert loads_database(dumps_database(db)) == db

    def test_roundtrip_i_table(self):
        db = TableDatabase.single(
            i_table("R", 1, [("?x",), ("?y",)], "x != y, x != 3")
        )
        assert loads_database(dumps_database(db)) == db

    def test_roundtrip_g_table(self):
        db = TableDatabase.single(
            g_table("R", 2, [("?x", "?x"), ("?y", 0)], "x != y")
        )
        assert loads_database(dumps_database(db)) == db

    def test_roundtrip_c_table_figure1(self):
        db = TableDatabase.single(fig1_ctable())
        assert loads_database(dumps_database(db)) == db

    def test_roundtrip_trivial_local_condition(self):
        # z = z is the paper's encoding of "true"; it must survive verbatim.
        db = TableDatabase.single(c_table("R", 1, [((0,), "z = z")]))
        text = dumps_database(db)
        assert "z = z" in text
        assert loads_database(text) == db

    def test_roundtrip_multi_table_with_extra_condition(self):
        db = sample_database()
        assert loads_database(dumps_database(db)) == db

    def test_roundtrip_string_constants(self):
        db = TableDatabase.single(
            c_table(
                "People",
                2,
                [(("alice", "?d"), Conjunction([Neq(Variable("d"), Constant("unknown"))]))],
            )
        )
        assert loads_database(dumps_database(db)) == db

    def test_roundtrip_disjunctive_local_condition_preserves_rep(self):
        cond = BoolOr(
            (
                BoolAtom(Eq(Variable("x"), Constant(0))),
                BoolAtom(Eq(Variable("x"), Constant(1))),
            )
        )
        db = TableDatabase.single(CTable("R", 1, [Row((Variable("x"),), cond)]))
        back = loads_database(dumps_database(db))
        assert enumerate_worlds(back) == enumerate_worlds(db)

    def test_header_comment_emitted_and_ignored(self):
        db = TableDatabase.single(codd_table("R", 1, [(0,)]))
        text = dumps_database(db, header="Figure 1(a)\nsecond line")
        assert text.startswith("# Figure 1(a)")
        assert loads_database(text) == db

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # a comment
        %database

        %table R/2
        # another comment
        0 ?x   # trailing comment
        """
        db = loads_database(text)
        assert db["R"].rows == (Row((Constant(0), Variable("x"))),)

    def test_hash_inside_quotes_kept(self):
        text = '%database\n%table R/1\n"a#b"\n'
        db = loads_database(text)
        assert db["R"].rows == (Row((Constant("a#b"),)),)

    def test_empty_table_roundtrip(self):
        db = TableDatabase.single(CTable("R", 2, []))
        assert loads_database(dumps_database(db)) == db

    def test_file_helpers(self, tmp_path):
        db = sample_database()
        path = tmp_path / "db.pwt"
        with open(path, "w") as fp:
            dump_database(db, fp)
        with open(path) as fp:
            assert load_database(fp) == db


class TestDatabaseTextErrors:
    def test_wrong_arity_row(self):
        with pytest.raises(TextFormatError, match="expects 2"):
            loads_database("%database\n%table R/2\n0 1 2\n")

    def test_row_outside_table(self):
        with pytest.raises(TextFormatError, match="outside"):
            loads_database("%database\n0 1\n")

    def test_global_outside_table(self):
        with pytest.raises(TextFormatError, match="outside"):
            loads_database("%database\n%global x != y\n")

    def test_unknown_directive(self):
        with pytest.raises(TextFormatError, match="unknown directive"):
            loads_database("%database\n%frobnicate\n")

    def test_bad_table_spec(self):
        with pytest.raises(TextFormatError, match="NAME/ARITY"):
            loads_database("%database\n%table R\n")

    def test_bad_condition(self):
        with pytest.raises(TextFormatError, match="line 3"):
            loads_database("%database\n%table R/1\n0 :: x < y\n")

    def test_unterminated_quote(self):
        with pytest.raises(TextFormatError, match="unterminated"):
            loads_database('%database\n%table R/1\n"abc\n')

    def test_empty_input(self):
        with pytest.raises(TextFormatError, match="not a database"):
            loads_database("")

    def test_error_carries_line_number(self):
        try:
            loads_database("%database\n%table R/1\n0 1\n")
        except TextFormatError as exc:
            assert exc.line == 3
        else:  # pragma: no cover
            pytest.fail("expected TextFormatError")


class TestSealedDatabaseText:
    """A sealed file (what a file-backed session persists) ends with a
    content digest, so a copy cut short loads as an error, never as a
    smaller database; hand-written files need no digest."""

    def database(self) -> TableDatabase:
        return TableDatabase(
            [codd_table("R", 2, [(1, 10), (2, 20), (3, 30)]), codd_table("S", 2, [(1, 11)])]
        )

    def test_sealed_text_round_trips_and_ends_with_its_digest(self):
        text = dumps_database(self.database(), seal=True)
        assert text.startswith("%sealed\n%database\n")
        assert text.splitlines()[-1].startswith("%digest sha256 ")
        assert loads_database(text) == self.database()

    def test_cut_after_the_second_row_is_an_error(self):
        text = dumps_database(self.database(), seal=True)
        lines = text.splitlines(keepends=True)
        cut = "".join(lines[: lines.index("2 20\n") + 1])
        # Unsealed, the same cut reads as a smaller database.
        assert len(loads_database(cut.replace("%sealed\n", "", 1))["R"]) == 2
        with pytest.raises(TextFormatError, match="cut short"):
            loads_database(cut)

    def test_every_cut_is_an_error(self):
        text = dumps_database(self.database(), seal=True)
        for end in range(len(text) - 1):
            with pytest.raises(TextFormatError):
                loads_database(text[:end])

    def test_text_without_a_digest_loads(self):
        plain = dumps_database(self.database())
        assert "%digest" not in plain
        assert loads_database(plain) == self.database()
        assert loads_database("%table R/1\n7\n") == TableDatabase(
            [codd_table("R", 1, [(7,)])]
        )

    def test_a_change_above_the_digest_is_an_error(self):
        text = dumps_database(self.database(), seal=True)
        with pytest.raises(TextFormatError, match="digest mismatch"):
            loads_database(text.replace("2 20\n", "2 21\n"))

    def test_rows_appended_after_the_digest_load(self):
        text = dumps_database(self.database(), seal=True) + "4 40\n"
        assert len(loads_database(text)["S"]) == 2

    def test_malformed_digest_line(self):
        text = dumps_database(self.database(), seal=True)
        body = text[: text.index("%digest")]
        with pytest.raises(TextFormatError, match="sha256 HEX"):
            loads_database(body + "%digest md5 abc\n")


# ---------------------------------------------------------------------------
# Instance text round-trips
# ---------------------------------------------------------------------------


class TestInstanceText:
    def test_roundtrip_simple(self):
        inst = Instance({"R": [(0, 1), (2, 3)], "S": [(1,)]})
        assert loads_instance(dumps_instance(inst)) == inst

    def test_roundtrip_empty_relation(self):
        from repro.relational.instance import Relation

        inst = Instance({"R": Relation(2)})
        assert loads_instance(dumps_instance(inst)) == inst

    def test_roundtrip_string_values(self):
        inst = Instance({"R": [("alice", 30), ("bob", 31)]})
        assert loads_instance(dumps_instance(inst)) == inst

    def test_variables_rejected_in_facts(self):
        with pytest.raises(TextFormatError, match="constants only"):
            loads_instance("%instance\n%relation R/1\n?x\n")

    def test_wrong_arity_fact(self):
        with pytest.raises(TextFormatError, match="expects 2"):
            loads_instance("%instance\n%relation R/2\n0\n")

    def test_fact_outside_relation(self):
        with pytest.raises(TextFormatError, match="outside"):
            loads_instance("%instance\n0 1\n")

    def test_empty_input(self):
        with pytest.raises(TextFormatError, match="not an instance"):
            loads_instance("")

    def test_file_helpers(self, tmp_path):
        inst = Instance({"R": [(0, 1)]})
        path = tmp_path / "world.pwi"
        with open(path, "w") as fp:
            dump_instance(inst, fp, header="one world")
        with open(path) as fp:
            assert load_instance(fp) == inst


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------


class TestJson:
    def test_table_roundtrip(self):
        table = fig1_ctable()
        assert table_from_json(table_to_json(table)) == table

    def test_database_roundtrip(self):
        db = sample_database()
        assert database_from_json(database_to_json(db)) == db

    def test_instance_roundtrip(self):
        inst = Instance({"R": [(0, 1)], "S": [("alice",)]})
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_boolean_tree_roundtrip_is_structural(self):
        cond = BoolAnd(
            (
                BoolOr(
                    (
                        BoolAtom(Eq(Variable("x"), Constant(0))),
                        BoolAtom(Neq(Variable("y"), Variable("x"))),
                    )
                ),
                BoolAtom(Eq(Variable("z"), Constant("a"))),
            )
        )
        table = CTable("R", 1, [Row((Variable("x"),), cond)])
        back = table_from_json(table_to_json(table))
        assert back.rows[0].condition == cond

    def test_payload_types_distinguished(self):
        inst = Instance({"R": [(1,), (1.0,), (True,), ("1",)]})
        back = instance_from_json(instance_to_json(inst))
        assert back == inst
        assert len(back["R"]) == 4

    def test_json_dumps_loads_database(self):
        db = sample_database()
        text = json_dumps(db)
        json.loads(text)  # well-formed JSON
        assert json_loads(text) == db

    def test_json_dumps_loads_table(self):
        table = fig1_ctable()
        assert json_loads(json_dumps(table)) == table

    def test_json_dumps_loads_instance(self):
        inst = Instance({"R": [(0, 1)]})
        assert json_loads(json_dumps(inst)) == inst

    def test_json_dumps_rejects_unknown(self):
        with pytest.raises(TypeError):
            json_dumps(42)

    def test_json_loads_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            json_loads('{"kind": "mystery"}')

    def test_json_loads_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            json_loads("[1, 2]")

    def test_unserialisable_payload_rejected(self):
        table = CTable("R", 1, [Row((Constant((1, 2)),))])
        with pytest.raises(TypeError, match="not JSON-serialisable"):
            table_to_json(table)


# ---------------------------------------------------------------------------
# Property-based round-trips
# ---------------------------------------------------------------------------

_constants = st.one_of(
    st.integers(-50, 50),
    st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
        min_size=0,
        max_size=6,
    ),
).map(Constant)

_variables = st.sampled_from([Variable(n) for n in "uvwxyz"])

_terms = st.one_of(_constants, _variables)

_atoms = st.builds(
    lambda cls, a, b: cls(a, b),
    st.sampled_from([Eq, Neq]),
    _terms,
    _terms,
)

_conjunctions = st.lists(_atoms, max_size=3).map(Conjunction)


@st.composite
def _ctables(draw):
    arity = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 4))
    rows = []
    for _ in range(n_rows):
        terms = [draw(_terms) for _ in range(arity)]
        cond = draw(st.one_of(st.none(), _conjunctions))
        rows.append(Row(terms, None if cond is None else cond))
    global_cond = draw(_conjunctions)
    return CTable("R", arity, rows, global_cond)


# A deliberately small variant for properties that enumerate rep(T):
# canonical-valuation counts are exponential in the variable count, so the
# world-set comparisons cap variables at 3 and constants at 4.
_small_constants = st.integers(0, 3).map(Constant)
_small_terms = st.one_of(
    _small_constants, st.sampled_from([Variable(n) for n in "xyz"])
)
_small_atoms = st.builds(
    lambda cls, a, b: cls(a, b), st.sampled_from([Eq, Neq]), _small_terms, _small_terms
)
_small_conjunctions = st.lists(_small_atoms, max_size=2).map(Conjunction)


@st.composite
def _small_ctables(draw):
    arity = draw(st.integers(1, 2))
    n_rows = draw(st.integers(0, 3))
    rows = []
    for _ in range(n_rows):
        terms = [draw(_small_terms) for _ in range(arity)]
        cond = draw(st.one_of(st.none(), _small_conjunctions))
        rows.append(Row(terms, None if cond is None else cond))
    global_cond = draw(_small_conjunctions)
    return CTable("R", arity, rows, global_cond)


@st.composite
def _instances(draw):
    arity = draw(st.integers(1, 3))
    n_facts = draw(st.integers(0, 5))
    facts = [
        tuple(draw(_constants) for _ in range(arity)) for _ in range(n_facts)
    ]
    from repro.relational.instance import Relation

    return Instance({"R": Relation(arity, facts)})


class TestPropertyRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(_small_ctables())
    def test_text_roundtrip_preserves_worlds(self, table):
        db = TableDatabase.single(table)
        back = loads_database(dumps_database(db))
        # Structure may normalise (condition DNF); rep must be identical.
        assert back["R"].arity == table.arity
        assert enumerate_worlds(back) == enumerate_worlds(db)

    @settings(max_examples=120, deadline=None)
    @given(_ctables())
    def test_json_roundtrip_is_exact(self, table):
        assert table_from_json(table_to_json(table)) == table

    @settings(max_examples=80, deadline=None)
    @given(_instances())
    def test_instance_text_roundtrip(self, inst):
        assert loads_instance(dumps_instance(inst)) == inst

    @settings(max_examples=80, deadline=None)
    @given(_instances())
    def test_instance_json_roundtrip(self, inst):
        assert instance_from_json(instance_to_json(inst)) == inst


class TestAtomicWriteText:
    """Durability of registry/database persists: a crash mid-write must
    never leave a truncated file behind (the old code's bare
    ``open(path, "w")`` + incremental dump could)."""

    def test_writes_and_replaces(self, tmp_path):
        from repro.io.files import atomic_write_text

        path = tmp_path / "out.json"
        atomic_write_text(str(path), '{"v": 1}\n')
        assert path.read_text(encoding="utf-8") == '{"v": 1}\n'
        atomic_write_text(str(path), '{"v": 2}\n')
        assert path.read_text(encoding="utf-8") == '{"v": 2}\n'
        # No temp files linger after success.
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_replace_keeps_old_content_and_cleans_up(
        self, tmp_path, monkeypatch
    ):
        import os as _os

        from repro.io import files as io_files

        path = tmp_path / "out.json"
        path.write_text("precious\n", encoding="utf-8")

        def failing_replace(src, dst):
            raise OSError("simulated crash at the rename")

        monkeypatch.setattr(io_files.os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            io_files.atomic_write_text(str(path), "overwrite\n")
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == "precious\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert _os.path.exists(str(path))

    def test_view_registry_save_is_atomic(self, tmp_path, monkeypatch):
        """``save_registry`` goes through the atomic writer: a simulated
        crash leaves the previous registry intact and loadable."""
        from repro.io import files as io_files
        from repro.views.persist import (
            REGISTRY_KIND,
            load_registry,
            registry_path,
            save_registry,
        )

        db_path = str(tmp_path / "db.pwt")
        registry = {"kind": REGISTRY_KIND, "digest": "d" * 64, "views": {}}
        save_registry(db_path, registry)
        assert load_registry(db_path) == registry

        def failing_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(io_files.os, "replace", failing_replace)
        with pytest.raises(Exception):
            save_registry(db_path, {"kind": REGISTRY_KIND, "views": {}})
        monkeypatch.undo()
        # The old sidecar survived, byte-for-byte valid JSON.
        assert load_registry(db_path) == registry
        assert [p.name for p in tmp_path.iterdir()] == [
            registry_path(db_path).rsplit("/", 1)[-1]
        ]
