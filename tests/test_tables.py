"""Unit tests for the table hierarchy (repro.core.tables)."""

import pytest

from repro.core.conditions import Conjunction, Eq, Neq, TRUE, parse_conjunction
from repro.core.tables import (
    CTable,
    Row,
    TableDatabase,
    c_table,
    codd_table,
    e_table,
    g_table,
    i_table,
)
from repro.core.terms import Constant, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestRow:
    def test_terms_coerced(self):
        row = Row((0, "?x"))
        assert row.terms == (Constant(0), Variable("x"))

    def test_condition_default_true(self):
        assert not Row((1,)).has_local_condition()

    def test_condition_from_conjunction(self):
        row = Row((1,), Conjunction([Eq(x, 1)]))
        assert row.has_local_condition()
        assert row.condition_dnf() == (Conjunction([Eq(x, 1)]),)

    def test_variables_include_condition_variables(self):
        row = Row((1,), Conjunction([Eq(x, 1)]))
        assert row.variables() == {x}
        assert row.matrix_variables() == set()

    def test_substitute(self):
        row = Row((x, 1), Conjunction([Neq(y, 2)]))
        out = row.substitute({x: Constant(5), y: z})
        assert out.terms == (Constant(5), Constant(1))
        assert out.condition_dnf() == (Conjunction([Neq(z, 2)]),)


class TestClassification:
    def test_codd(self):
        t = CTable("R", 2, [(0, x), (y, 1)])
        assert t.classify() == "codd"
        assert t.is_codd() and t.is_e_table() and t.is_i_table() and t.is_g_table()

    def test_e_by_repetition(self):
        t = CTable("R", 2, [(0, x), (x, 1)])
        assert t.classify() == "e"
        assert not t.is_i_table()

    def test_i_by_inequalities(self):
        t = CTable("R", 1, [(x,), (y,)], Conjunction([Neq(x, y)]))
        assert t.classify() == "i"
        assert not t.is_e_table()

    def test_g_by_mixed_condition(self):
        t = CTable("R", 1, [(x,)], Conjunction([Eq(x, y), Neq(y, 1)]))
        assert t.classify() == "g"

    def test_g_by_inequality_over_repeated_matrix(self):
        t = CTable("R", 2, [(x, x)], Conjunction([Neq(x, 1)]))
        assert t.classify() == "g"

    def test_c_by_local_condition(self):
        t = CTable("R", 1, [Row((1,), Conjunction([Eq(x, 1)]))])
        assert t.classify() == "c"
        assert not t.is_g_table()

    def test_database_classification_shared_variables(self):
        a = CTable("A", 1, [(x,)])
        b = CTable("B", 1, [(x,)])
        db = TableDatabase([a, b])
        assert db.classify() == "e"  # sharing acts like repetition

    def test_database_classification_extra_condition(self):
        a = CTable("A", 1, [(x,)])
        db = TableDatabase([a], extra_condition=Conjunction([Neq(x, 1)]))
        assert db.classify() == "i"


class TestConstructors:
    def test_codd_table_rejects_repetition(self):
        with pytest.raises(ValueError):
            codd_table("R", 2, [(x, x)])

    def test_e_table_allows_repetition(self):
        t = e_table("R", 2, [(x, x), (x, 1)])
        assert t.classify() == "e"

    def test_i_table_rejects_equalities(self):
        with pytest.raises(ValueError):
            i_table("R", 1, [(x,)], Conjunction([Eq(x, 1)]))

    def test_i_table_rejects_repeated_matrix(self):
        with pytest.raises(ValueError):
            i_table("R", 2, [(x, x)], Conjunction([Neq(x, 1)]))

    def test_i_table_from_string_condition(self):
        t = i_table("R", 1, [("?x",), (1,)], "x != 1")
        assert t.classify() == "i"

    def test_g_table(self):
        t = g_table("R", 2, [("?x", "?x")], "x != 1")
        assert t.classify() == "g"

    def test_c_table_with_string_conditions(self):
        t = c_table(
            "R",
            2,
            [
                ((0, 1), "z = z"),
                ((0, "?x"), "y = 0"),
                (("?y", "?x"), "x != y"),
            ],
        )
        assert t.classify() == "c"
        assert len(t) == 3

    def test_c_table_plain_rows(self):
        t = c_table("R", 2, [(0, 1), (2, "?v")])
        assert t.classify() == "codd"


class TestCTableStructure:
    def test_duplicate_rows_removed(self):
        t = CTable("R", 1, [(1,), (1,), (x,)])
        assert len(t) == 2

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            CTable("R", 2, [(1,)])

    def test_variables_and_constants(self):
        t = CTable("R", 2, [(x, 1)], Conjunction([Neq(y, 2)]))
        assert t.variables() == {x, y}
        assert t.constants() == {Constant(1), Constant(2)}

    def test_substitute(self):
        t = CTable("R", 1, [(x,)], Conjunction([Neq(x, 1)]))
        out = t.substitute({x: Constant(3)})
        assert out.rows[0].terms == (Constant(3),)
        assert out.global_condition == Conjunction([Neq(3, 1)])

    def test_str_rendering(self):
        t = c_table("R", 2, [((0, 1),), (("?x", 2), "x != 0")], "x != 3")
        text = str(t)
        assert "x != 3" in text
        assert "[x != 0]" in text


class TestTableDatabase:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TableDatabase([CTable("R", 1, []), CTable("R", 1, [])])

    def test_global_condition_conjoins(self):
        a = CTable("A", 1, [(x,)], Conjunction([Neq(x, 1)]))
        b = CTable("B", 1, [(y,)], Conjunction([Neq(y, 2)]))
        db = TableDatabase([a, b], extra_condition=Conjunction([Neq(x, y)]))
        assert set(db.global_condition().atoms) == {
            Neq(x, 1),
            Neq(y, 2),
            Neq(x, y),
        }

    def test_schema(self):
        db = TableDatabase([CTable("A", 2, []), CTable("B", 1, [])])
        assert db.schema().arities() == (2, 1)

    def test_single(self):
        db = TableDatabase.single(CTable("R", 1, [(1,)]))
        assert db.names() == ("R",)
        assert db.total_rows() == 1


class TestPickleRoundTrips:
    """The worker pool ships snapshots across process boundaries, so
    every value-object layer must survive pickling despite the
    immutability guards (``__setattr__`` raising breaks default slot
    unpickling): terms and conditions pickle through their constructors,
    tables and statistics through ``pickles_by_slots``."""

    def roundtrip(self, obj):
        import pickle

        return pickle.loads(pickle.dumps(obj))

    def test_terms(self):
        assert self.roundtrip(Constant("a")) == Constant("a")
        assert self.roundtrip(Constant(3)) == Constant(3)
        assert self.roundtrip(Variable("x")) == Variable("x")

    def test_conditions(self):
        cond = parse_conjunction("?x = a, ?y != b")
        assert self.roundtrip(cond) == cond
        assert self.roundtrip(TRUE) == TRUE

    def test_tables_with_lazy_stats(self):
        table = c_table("R", 2, [((0, "?x"), "x != 9"), (("?y", 1),)], "y != 0")
        # Unset statistics memo: must pickle (the slot is skipped) ...
        clone = self.roundtrip(table)
        assert set(clone.rows) == set(table.rows)
        assert clone.global_condition == table.global_condition
        assert not clone.has_stats()
        # ... and a memoised one round-trips too.
        table.stats()
        again = self.roundtrip(table)
        assert again.has_stats()
        assert again.stats().to_json() == table.stats().to_json()

    def test_database_and_statistics(self):
        from repro.relational.stats import Statistics

        db = TableDatabase(
            [
                codd_table("R", 2, [("a", "b"), ("b", "c")]),
                c_table("S", 1, [(("?v",), "v != a")]),
            ]
        )
        clone = self.roundtrip(db)
        assert clone == db
        stats = Statistics.collect(db)
        stats_clone = self.roundtrip(stats)
        assert stats_clone.get("R").rows == stats.get("R").rows
        assert len(stats_clone.get("R").columns) == 2
