"""Tests for the repro command line interface."""

import json

import pytest

from repro import Instance, TableDatabase, c_table, codd_table, i_table
from repro.cli import EXIT_NO, EXIT_USAGE, EXIT_YES, load_instance_file, main
from repro.io import dumps_database, dumps_instance, json_dumps
from repro.io.files import load_database_file


@pytest.fixture
def db_file(tmp_path):
    db = TableDatabase.single(
        c_table(
            "R",
            2,
            [((0, 1),), ((0, "?x"), "x != 1")],
        )
    )
    path = tmp_path / "db.pwt"
    path.write_text(dumps_database(db))
    return str(path)


@pytest.fixture
def world_file(tmp_path):
    path = tmp_path / "world.pwi"
    path.write_text(dumps_instance(Instance({"R": [(0, 1), (0, 2)]})))
    return str(path)


@pytest.fixture
def bad_world_file(tmp_path):
    path = tmp_path / "bad.pwi"
    path.write_text(dumps_instance(Instance({"R": [(5, 5)]})))
    return str(path)


class TestShowAndClassify:
    def test_show(self, db_file, capsys):
        assert main(["show", db_file]) == EXIT_YES
        out = capsys.readouterr().out
        assert "R/2" in out and "c-table" in out

    def test_classify(self, db_file, capsys):
        assert main(["classify", db_file]) == EXIT_YES
        out = capsys.readouterr().out
        assert "R: c" in out and "database: c" in out

    def test_classify_codd(self, tmp_path, capsys):
        db = TableDatabase.single(codd_table("S", 1, [("?y",)]))
        path = tmp_path / "s.pwt"
        path.write_text(dumps_database(db))
        assert main(["classify", str(path)]) == EXIT_YES
        assert "S: codd" in capsys.readouterr().out


class TestWorlds:
    def test_worlds_listed(self, db_file, capsys):
        assert main(["worlds", db_file]) == EXIT_YES
        out = capsys.readouterr().out
        assert "-- world 1" in out and "%instance" in out

    def test_worlds_cap(self, db_file, capsys):
        assert main(["worlds", db_file, "--max", "1"]) == EXIT_YES
        out = capsys.readouterr().out
        assert "truncated" in out

    def test_unsatisfiable_reported(self, tmp_path, capsys):
        db = TableDatabase.single(
            i_table("R", 1, [("?x",)], "x != x")
        )
        path = tmp_path / "empty.pwt"
        path.write_text(dumps_database(db))
        assert main(["worlds", str(path)]) == EXIT_YES
        assert "no possible worlds" in capsys.readouterr().out


class TestDecisions:
    def test_member_yes(self, db_file, world_file, capsys):
        assert main(["member", db_file, world_file]) == EXIT_YES
        assert "member" in capsys.readouterr().out

    def test_member_no(self, db_file, bad_world_file, capsys):
        assert main(["member", db_file, bad_world_file]) == EXIT_NO
        assert "not a member" in capsys.readouterr().out

    def test_possible_yes(self, db_file, tmp_path, capsys):
        facts = tmp_path / "facts.pwi"
        facts.write_text(dumps_instance(Instance({"R": [(0, 2)]})))
        assert main(["possible", db_file, str(facts)]) == EXIT_YES
        assert "possible" in capsys.readouterr().out

    def test_possible_no(self, db_file, bad_world_file, capsys):
        assert main(["possible", db_file, bad_world_file]) == EXIT_NO
        assert "impossible" in capsys.readouterr().out

    def test_certain_yes(self, db_file, tmp_path, capsys):
        facts = tmp_path / "facts.pwi"
        facts.write_text(dumps_instance(Instance({"R": [(0, 1)]})))
        assert main(["certain", db_file, str(facts)]) == EXIT_YES
        assert "certain" in capsys.readouterr().out

    def test_certain_no(self, db_file, tmp_path, capsys):
        facts = tmp_path / "facts.pwi"
        facts.write_text(dumps_instance(Instance({"R": [(0, 2)]})))
        assert main(["certain", db_file, str(facts)]) == EXIT_NO
        assert "not certain" in capsys.readouterr().out

    def test_contains_reflexive(self, db_file, capsys):
        assert main(["contains", db_file, db_file]) == EXIT_YES
        assert "contained" in capsys.readouterr().out

    def test_contains_no(self, db_file, tmp_path, capsys):
        other = TableDatabase.single(codd_table("R", 2, [(9, 9)]))
        path = tmp_path / "other.pwt"
        path.write_text(dumps_database(other))
        assert main(["contains", db_file, str(path)]) == EXIT_NO
        assert "not contained" in capsys.readouterr().out


class TestConvert:
    def test_text_to_json_and_back(self, db_file, tmp_path, capsys):
        assert main(["convert", db_file, "--to", "json"]) == EXIT_YES
        blob = capsys.readouterr().out
        data = json.loads(blob)
        assert data["kind"] == "table-database"
        json_path = tmp_path / "db.json"
        json_path.write_text(blob)
        assert main(["convert", str(json_path), "--to", "text"]) == EXIT_YES
        text = capsys.readouterr().out
        assert "%table R/2" in text
        assert load_database_file(db_file)[0] == load_database_file(str(json_path))[0]

    def test_instance_conversion(self, world_file, capsys):
        assert main(["convert", world_file, "--to", "json"]) == EXIT_YES
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "instance"


class TestFileLoading:
    def test_json_database_autodetected(self, tmp_path):
        db = TableDatabase.single(codd_table("R", 1, [(7,)]))
        path = tmp_path / "db.json"
        path.write_text(json_dumps(db))
        assert load_database_file(str(path)) == (db, "json")

    def test_json_instance_autodetected(self, tmp_path):
        inst = Instance({"R": [(1,)]})
        path = tmp_path / "w.json"
        path.write_text(json_dumps(inst))
        assert load_instance_file(str(path)) == inst

    def test_missing_file(self, capsys):
        assert main(["show", "/nonexistent/db.pwt"]) == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_cut_sealed_file_does_not_answer(self, tmp_path, capsys):
        db = TableDatabase(
            [codd_table("R", 2, [(1, 10), (2, 20), (3, 30)]), codd_table("S", 2, [(1, 11)])]
        )
        text = dumps_database(db, seal=True)
        lines = text.splitlines(keepends=True)
        good, cut, plain = tmp_path / "good.pwt", tmp_path / "cut.pwt", tmp_path / "plain.pwt"
        good.write_text(text)
        cut.write_text("".join(lines[: lines.index("2 20\n") + 1]))
        plain.write_text(dumps_database(db))
        query = "Q(X) :- R(X, Y)."
        for path in (good, plain):
            assert main(["eval", str(path), query]) == EXIT_YES
            assert "(codd-table, 3 rows)" in capsys.readouterr().out
        assert main(["eval", str(cut), query]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cut}: sealed database file has no closing %digest line" in captured.err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "junk.pwt"
        path.write_text("%table R\n")
        assert main(["show", str(path)]) == EXIT_USAGE
        assert "repro:" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_command(self):
        assert main([]) == EXIT_USAGE


class TestEval:
    def test_eval_literal_query(self, db_file, capsys):
        assert main(["eval", db_file, "Q(Y) :- R(X, Y)."]) == EXIT_YES
        out = capsys.readouterr().out
        assert "Q/1" in out

    def test_eval_query_file(self, db_file, tmp_path, capsys):
        query = tmp_path / "q.dl"
        query.write_text("Q(X, Z) :- R(X, Y), R(Y, Z).")
        assert main(["eval", db_file, str(query)]) == EXIT_YES
        assert "Q/2" in capsys.readouterr().out

    def test_eval_naive_and_planned_agree(self, db_file, capsys):
        # Row *order* is not part of the contract (the hash path groups by
        # bucket), so compare the printed rows as sets.
        rule = "Q(X, Z) :- R(X, Y), R(Y, Z)."
        assert main(["eval", db_file, rule]) == EXIT_YES
        planned = capsys.readouterr().out.splitlines()
        assert main(["eval", db_file, rule, "--naive"]) == EXIT_YES
        naive = capsys.readouterr().out.splitlines()
        assert planned[0] == naive[0]  # the header line
        assert set(planned[1:]) == set(naive[1:])

    def test_eval_prints_plan(self, db_file, capsys):
        assert main(["eval", db_file, "Q(X, Z) :- R(X, Y), R(Y, Z).", "--plan"]) == EXIT_YES
        out = capsys.readouterr().out
        assert "-- plan:" in out and "Join(" in out

    def test_eval_bad_query(self, db_file, capsys):
        assert main(["eval", db_file, "this is not a rule"]) == EXIT_USAGE
        assert "repro:" in capsys.readouterr().err

    def test_eval_missing_query_file(self, db_file, capsys):
        assert main(["eval", db_file, "quary.dl"]) == EXIT_USAGE
        assert "no such file" in capsys.readouterr().err

    def test_eval_empty_query(self, db_file, capsys):
        assert main(["eval", db_file, ""]) == EXIT_USAGE
        assert "at least one rule" in capsys.readouterr().err

    def test_eval_unknown_relation(self, db_file, capsys):
        assert main(["eval", db_file, "Q(X) :- T(X)."]) == EXIT_USAGE
        assert "unknown relation" in capsys.readouterr().err

    def test_eval_head_constant_rejected(self, db_file, capsys):
        assert main(["eval", db_file, "Q(0) :- R(X, Y), X = 0."]) == EXIT_USAGE
        assert "repro:" in capsys.readouterr().err


class TestEvalExplain:
    def test_explain_prints_stats_and_join_order(self, db_file, capsys):
        rule = "Q(X) :- R(X, Y), R(Y, Z), R(Z, W)."
        assert main(["eval", db_file, rule, "--explain"]) == EXIT_YES
        out = capsys.readouterr().out
        assert "-- stats: R/2: 2 rows" in out
        assert "-- join order:" in out

    def test_explain_two_way_join_reports_unchanged(self, db_file, capsys):
        rule = "Q(X, Z) :- R(X, Y), R(Y, Z)."
        assert main(["eval", db_file, rule, "--explain"]) == EXIT_YES
        assert "join order: unchanged" in capsys.readouterr().out

    def test_explain_does_not_change_the_answer(self, db_file, capsys):
        rule = "Q(X) :- R(X, Y), R(Y, Z), R(Z, W)."
        assert main(["eval", db_file, rule]) == EXIT_YES
        plain = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("--")]
        assert main(["eval", db_file, rule, "--explain"]) == EXIT_YES
        explained = [
            l for l in capsys.readouterr().out.splitlines() if not l.startswith("--")
        ]
        assert set(plain) == set(explained)

    def test_explain_with_naive_warns_and_shows_the_expression(self, db_file, capsys):
        # --explain cannot describe a plan the naive evaluator never builds,
        # but it must not be a silent no-op either.
        rule = "Q(X, Z) :- R(X, Y), R(Y, Z)."
        assert main(["eval", db_file, rule, "--naive", "--explain"]) == EXIT_YES
        captured = capsys.readouterr()
        assert "join order" not in captured.out and "-- stats" not in captured.out
        assert "--explain has no effect with --naive" in captured.err
        assert "-- expression:" in captured.out

    def test_explain_prints_bushy_dp_shape(self, db_file, capsys):
        rule = "Q(X) :- R(X, Y), R(Y, Z), R(Z, W), R(W, V)."
        assert main(["eval", db_file, rule, "--explain"]) == EXIT_YES
        out = capsys.readouterr().out
        order_lines = [l for l in out.splitlines() if l.startswith("-- join order:")]
        assert len(order_lines) == 1
        assert "><" in order_lines[0] and "~" in order_lines[0]

    def test_eval_multiple_queries_share_one_invocation(self, db_file, capsys):
        first = "Q(X) :- R(X, Y)."
        second = "P(Y) :- R(X, Y)."
        assert main(["eval", db_file, first, second]) == EXIT_YES
        out = capsys.readouterr().out
        assert "-- query 1: Q" in out and "-- query 2: P" in out
        assert "Q/1" in out and "P/1" in out
