"""Tests for the c-table algebra: rep commutes with queries and operators.

The central property ([Imielinski-Lipski 84], used by Theorems 3.2(2),
4.2(3), 5.2(1)):

    rep(apply(q, D)) == { q(I) : I in rep(D) }

checked against the enumeration semantics on small inputs, for UCQs and
for every lifted relational operator including the difference extension.
"""

import random

import pytest

from repro.core.conditions import Conjunction, Eq, Neq
from repro.core.tables import CTable, TableDatabase, c_table
from repro.core.terms import Constant, Variable
from repro.core.worlds import enumerate_worlds
from repro.ctalgebra import (
    apply_ucq,
    difference_ct,
    evaluate_ct,
    intersect_ct,
    product_ct,
    project_ct,
    select_ct,
    union_ct,
)
from repro.ctalgebra.operators import join_ct
from repro.queries import UCQQuery, atom, cq
from repro.relational import (
    ColEq,
    ColEqConst,
    ColNeq,
    ColNeqConst,
    Difference,
    Intersect,
    Product,
    Project,
    Scan,
    Select,
    Union,
    evaluate_to_relation,
)
from repro.relational.instance import Instance
from repro.workloads import random_table

from oracles import join_ct_pairwise, select_ct_atoms

x, y = Variable("x"), Variable("y")


from repro.core.worlds import canonicalize_instance


def _canon(worlds, protected):
    return {canonicalize_instance(w, protected) for w in worlds}


def _worlds_of_view_by_definition(db, query, extra=()):
    return {query(world) for world in enumerate_worlds(db, extra_constants=extra)}


def _worlds_of_folded(folded, extra=()):
    return set(enumerate_worlds(folded, extra_constants=extra))


def assert_rep_commutes_ucq(db, query):
    """rep(apply_ucq(q, db)) must equal q applied world-wise.

    World sets are compared up to renaming of the fresh enumeration
    constants (canonicalisation protects the genuine input constants).
    """
    extra = sorted(query.constants() | db.constants(), key=Constant.sort_key)
    folded = apply_ucq(query, db)
    assert _canon(_worlds_of_folded(folded, extra), extra) == _canon(
        _worlds_of_view_by_definition(db, query, extra), extra
    )


class TestUCQFolding:
    def test_projection(self):
        db = TableDatabase.single(CTable("R", 2, [(1, x), (y, 2)]))
        q = UCQQuery([cq(atom("Q", "A"), atom("R", "A", "B"))])
        assert_rep_commutes_ucq(db, q)

    def test_selection_constant(self):
        db = TableDatabase.single(CTable("R", 2, [(1, x), (y, 2)]))
        q = UCQQuery([cq(atom("Q", "B"), atom("R", 1, "B"))])
        assert_rep_commutes_ucq(db, q)

    def test_join(self):
        db = TableDatabase.single(CTable("R", 2, [(1, x), (y, 2)]))
        q = UCQQuery(
            [cq(atom("Q", "A", "C"), atom("R", "A", "B"), atom("R", "B", "C"))]
        )
        assert_rep_commutes_ucq(db, q)

    def test_union_of_rules(self):
        db = TableDatabase.single(CTable("R", 2, [(1, x)]))
        q = UCQQuery(
            [
                cq(atom("Q", "A"), atom("R", "A", "B")),
                cq(atom("Q", "B"), atom("R", "A", "B")),
            ]
        )
        assert_rep_commutes_ucq(db, q)

    def test_multi_relation(self):
        db = TableDatabase(
            [CTable("R", 2, [(1, x)]), CTable("S", 1, [(x,), (2,)])]
        )
        q = UCQQuery([cq(atom("Q", "A"), atom("R", "A", "B"), atom("S", "B"))])
        assert_rep_commutes_ucq(db, q)

    def test_with_local_conditions(self):
        db = TableDatabase.single(
            c_table("R", 2, [((1, "?x"), "x != 0"), ((2, 3),)])
        )
        q = UCQQuery([cq(atom("Q", "B"), atom("R", "A", "B"))])
        assert_rep_commutes_ucq(db, q)

    def test_with_global_condition(self):
        table = CTable("R", 2, [(x, y)], Conjunction([Neq(x, y)]))
        db = TableDatabase.single(table)
        q = UCQQuery([cq(atom("Q", "A"), atom("R", "A", "B"))])
        assert_rep_commutes_ucq(db, q)

    def test_inequality_side_condition(self):
        db = TableDatabase.single(CTable("R", 2, [(1, x)]))
        q = UCQQuery(
            [cq(atom("Q", "B"), atom("R", "A", "B"), where=[Neq(Variable("B"), 0)])]
        )
        assert_rep_commutes_ucq(db, q)

    def test_head_constants(self):
        db = TableDatabase.single(CTable("R", 1, [(x,)]))
        q = UCQQuery([cq(atom("Q", 1), atom("R", "A"), where=[Eq(Variable("A"), 0)])])
        assert_rep_commutes_ucq(db, q)

    def test_random_tables_random_small(self, rng):
        q = UCQQuery(
            [cq(atom("Q", "A", "C"), atom("R", "A", "B"), atom("R", "C", "B"))]
        )
        for kind in ("codd", "e", "c"):
            for _ in range(5):
                table = random_table(
                    rng, kind, name="R", rows=2, num_constants=2, **(
                        {"num_variables": 2} if kind != "codd" else {}
                    )
                )
                assert_rep_commutes_ucq(TableDatabase.single(table), q)

    def test_polynomial_size(self):
        """The folded table grows polynomially for a fixed query."""
        q = UCQQuery([cq(atom("Q", "A"), atom("R", "A", "B"))])
        for n in (2, 4, 8):
            rows = [(i, Variable(f"v{i}")) for i in range(n)]
            db = TableDatabase.single(CTable("R", 2, rows))
            folded = apply_ucq(q, db)
            assert folded["Q"].arity == 1
            assert len(folded["Q"].rows) == n  # linear here


def _operator_commutes(op_ct, op_ra, db):
    """Check one lifted operator against the instance-level evaluator."""
    extra = sorted(db.constants(), key=Constant.sort_key)
    folded = TableDatabase.single(op_ct)
    lhs = set(enumerate_worlds(folded, extra_constants=extra))
    rhs = {
        Instance({op_ct.name: evaluate_to_relation(op_ra, world)})
        for world in enumerate_worlds(db, extra_constants=extra)
    }
    assert _canon(lhs, extra) == _canon(rhs, extra)


class TestLiftedOperators:
    def _db(self):
        return TableDatabase(
            [
                c_table("R", 2, [((1, "?x"),), (("?y", 2), "y != 0")]),
                CTable("S", 2, [(1, x), (3, 4)]),
            ]
        )

    def test_select_col_eq_const(self):
        db = self._db()
        expr = Select(Scan("R", 2), [ColEqConst(1, 2)])
        _operator_commutes(
            select_ct(db["R"], [ColEqConst(1, 2)], name="V"),
            expr,
            db,
        )

    def test_select_col_eq_col(self):
        db = self._db()
        _operator_commutes(
            select_ct(db["R"], [ColEq(0, 1)], name="V"),
            Select(Scan("R", 2), [ColEq(0, 1)]),
            db,
        )

    def test_select_negative_predicate(self):
        db = self._db()
        _operator_commutes(
            select_ct(db["R"], [ColNeqConst(0, 1)], name="V"),
            Select(Scan("R", 2), [ColNeqConst(0, 1)]),
            db,
        )

    def test_project(self):
        db = self._db()
        _operator_commutes(
            project_ct(db["R"], [1], name="V"),
            Project(Scan("R", 2), [1]),
            db,
        )

    def test_product(self):
        db = self._db()
        _operator_commutes(
            product_ct(db["R"], db["S"], name="V"),
            Product(Scan("R", 2), Scan("S", 2)),
            db,
        )

    def test_union(self):
        db = self._db()
        _operator_commutes(
            union_ct(db["R"], db["S"], name="V"),
            Union(Scan("R", 2), Scan("S", 2)),
            db,
        )

    def test_intersect(self):
        db = self._db()
        _operator_commutes(
            intersect_ct(db["R"], db["S"], name="V"),
            Intersect(Scan("R", 2), Scan("S", 2)),
            db,
        )

    def test_difference(self):
        db = self._db()
        _operator_commutes(
            difference_ct(db["R"], db["S"], name="V"),
            Difference(Scan("R", 2), Scan("S", 2)),
            db,
        )

    def test_difference_with_conditions_both_sides(self):
        db = TableDatabase(
            [
                c_table("R", 1, [((1,), "u = 0"), ((2,),)]),
                c_table("S", 1, [((1,),), ((2,), "u != 0")]),
            ]
        )
        _operator_commutes(
            difference_ct(db["R"], db["S"], name="V"),
            Difference(Scan("R", 1), Scan("S", 1)),
            db,
        )

    def test_arity_mismatch_raises(self):
        db = self._db()
        with pytest.raises(ValueError):
            union_ct(db["R"], project_ct(db["S"], [0]))


class TestRAEvaluation:
    def test_composed_expression(self):
        db = TableDatabase.single(c_table("R", 2, [((1, "?x"),), ((2, "?y"),)]))
        extra = sorted(db.constants(), key=Constant.sort_key)
        expr = Project(Select(Scan("R", 2), [ColEqConst(0, 1)]), [1])
        view = evaluate_ct(expr, db, name="V")
        lhs = set(enumerate_worlds(TableDatabase.single(view), extra_constants=extra))
        rhs = {
            Instance({"V": evaluate_to_relation(expr, world)})
            for world in enumerate_worlds(db, extra_constants=extra)
        }
        assert _canon(lhs, extra) == _canon(rhs, extra)

    def test_positive_expression_preserves_conjunctive_conditions(self):
        db = TableDatabase.single(CTable("R", 2, [(1, x)]))
        expr = Select(Scan("R", 2), [ColEqConst(1, 5)])
        view = evaluate_ct(expr, db)
        assert len(view.rows) == 1
        assert view.rows[0].condition_dnf() == (
            Conjunction([Eq(x, 5)]),
        )


class TestConstantFastPaths:
    """``select_ct`` decides a column-vs-constant predicate on a constant
    cell, and ``join_ct`` a join column between two constants, without
    building the atom; the atom path (``tests/oracles.py``) is the
    reference.  Cells mix ``Constant(1)`` with ``Constant("1")`` and
    ``Constant(True)``: equal in Python (``True == 1``) or by string, and
    ``hash(True) == hash(1)``, yet three distinct constants.  Local
    conditions use inequalities only, so no condition pins a join term
    and the pairwise join is row-identical to the hashed one."""

    CELLS = (Constant(1), Constant("1"), Constant(True), Constant(2), x, y)
    CONSTANTS = (Constant(1), Constant("1"), Constant(True))

    def _table(self, rng, name, rows):
        built = []
        for _ in range(rows):
            terms = tuple(rng.choice(self.CELLS) for _ in range(2))
            variables = [t for t in terms if isinstance(t, Variable)]
            if variables and rng.random() < 0.5:
                atom = Neq(variables[0], rng.choice(self.CONSTANTS))
                built.append((terms, Conjunction([atom])))
            else:
                built.append((terms,))
        return c_table(name, 2, built)

    def _predicates(self, rng):
        preds = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice((ColEqConst, ColNeqConst, ColEq, ColNeq))
            if kind in (ColEq, ColNeq):
                preds.append(kind(0, 1))
            else:
                preds.append(kind(rng.randint(0, 1), rng.choice(self.CONSTANTS)))
        return preds

    @pytest.mark.parametrize("seed", range(40))
    def test_select_matches_the_atom_path(self, seed):
        rng = random.Random(seed)
        table = self._table(rng, "R", 6)
        preds = self._predicates(rng)
        assert select_ct(table, preds, name="V") == select_ct_atoms(table, preds, name="V")

    @pytest.mark.parametrize("seed", range(40))
    def test_join_matches_the_pairwise_atom_path(self, seed):
        rng = random.Random(1000 + seed)
        left, right = self._table(rng, "L", 5), self._table(rng, "R", 5)
        on = rng.choice(([(0, 0)], [(1, 0)], [(0, 0), (1, 1)], [(0, 1), (1, 0)]))
        hashed = join_ct(left, right, on, name="J")
        pairwise = join_ct_pairwise(left, right, on, name="J")
        assert len(hashed) == len(pairwise)
        assert set(hashed.rows) == set(pairwise.rows)

    def test_one_true_and_string_one_are_distinct_cells(self):
        table = CTable("R", 1, [(Constant(1),), (Constant("1"),), (Constant(True),)])
        for constant in self.CONSTANTS:
            kept = select_ct(table, [ColEqConst(0, constant)])
            assert [row.terms for row in kept.rows] == [(constant,)]
            dropped = select_ct(table, [ColNeqConst(0, constant)])
            assert len(dropped) == 2 and (constant,) not in [r.terms for r in dropped.rows]
        # A wild row (a variable in the second join column) pairs with
        # every right row; the first column's constants decide the pair.
        left = CTable("L", 2, [(Constant(1), x)])
        right = CTable("R", 2, [(c, Constant(5)) for c in self.CONSTANTS])
        joined = join_ct(left, right, [(0, 0), (1, 1)], name="J")
        assert [row.terms[2] for row in joined.rows] == [Constant(1)]
        assert set(joined.rows) == set(join_ct_pairwise(left, right, [(0, 0), (1, 1)], name="J").rows)
