"""Differential tests: hash-partitioned intersect/difference vs pairwise.

``intersect_ct`` and ``difference_ct`` now bucket constant-ground rows by
their full term tuple and only pair variable-bearing rows against the
whole other side.  The pairwise O(|L| x |R|) originals are kept as
``intersect_ct_pairwise`` / ``difference_ct_pairwise`` in
``tests/oracles.py`` and used here as oracles: on every random (left, right) pair the partitioned operator must
represent exactly the same set of worlds.  Hand-picked cases cover the
partition boundaries — all-ground, all-variable and mixed tables, dead
rows, and rows whose match is decided purely by conditions.
"""

from __future__ import annotations

import random

import pytest

from repro.core.conditions import Conjunction, Neq
from repro.core.tables import CTable, TableDatabase, c_table
from repro.core.terms import Constant, Variable
from repro.core.worlds import enumerate_worlds, strong_canonicalize
from repro.ctalgebra.operators import difference_ct, intersect_ct
from repro.workloads import random_table

from oracles import difference_ct_pairwise, intersect_ct_pairwise

x, y = Variable("x"), Variable("y")

OPERATORS = [
    pytest.param(intersect_ct, intersect_ct_pairwise, id="intersect"),
    pytest.param(difference_ct, difference_ct_pairwise, id="difference"),
]


def _rep(table, extra):
    worlds = enumerate_worlds(TableDatabase.single(table), extra_constants=extra)
    return {strong_canonicalize(w, extra) for w in worlds}


def assert_partitioned_matches_pairwise(partitioned, pairwise, left, right):
    fast = partitioned(left, right, name="V")
    slow = pairwise(left, right, name="V")
    assert fast.arity == slow.arity
    extra = sorted(
        TableDatabase([left, right]).constants(), key=Constant.sort_key
    ) or [Constant(0)]
    assert _rep(fast, extra) == _rep(slow, extra)


@pytest.mark.parametrize("partitioned,pairwise", OPERATORS)
class TestHandPickedBoundaries:
    def test_all_ground_tables(self, partitioned, pairwise):
        left = CTable("R", 2, [(1, 2), (3, 4), (5, 6)])
        right = CTable("S", 2, [(1, 2), (5, 6), (7, 8)])
        assert_partitioned_matches_pairwise(partitioned, pairwise, left, right)

    def test_ground_rows_use_buckets_only(self, partitioned, pairwise):
        # No shared tuples and no variables: the partitioned operator must
        # behave like the pairwise one even when every bucket probe misses.
        left = CTable("R", 1, [(1,), (2,)])
        right = CTable("S", 1, [(3,), (4,)])
        assert_partitioned_matches_pairwise(partitioned, pairwise, left, right)

    def test_variable_only_tables(self, partitioned, pairwise):
        left = CTable("R", 1, [(x,)])
        right = CTable("S", 1, [(y,)])
        assert_partitioned_matches_pairwise(partitioned, pairwise, left, right)

    def test_mixed_ground_and_variable_rows(self, partitioned, pairwise):
        left = CTable("R", 2, [(1, 2), (x, 2), (3, y)])
        right = CTable("S", 2, [(1, 2), (x, x), (3, 0)])
        assert_partitioned_matches_pairwise(partitioned, pairwise, left, right)

    def test_wild_left_row_sees_every_right_row(self, partitioned, pairwise):
        left = CTable("R", 1, [(x,)])
        right = CTable("S", 1, [(1,), (2,), (3,)])
        assert_partitioned_matches_pairwise(partitioned, pairwise, left, right)

    def test_wild_right_row_reaches_ground_left_rows(self, partitioned, pairwise):
        left = CTable("R", 1, [(1,), (2,)])
        right = CTable("S", 1, [(y,)])
        assert_partitioned_matches_pairwise(partitioned, pairwise, left, right)

    def test_dead_rows_are_inert(self, partitioned, pairwise):
        left = c_table("R", 1, [((1,), "x != x"), ((2,),)])
        right = c_table("S", 1, [((2,), "y != y"), ((1,),)])
        assert_partitioned_matches_pairwise(partitioned, pairwise, left, right)

    def test_condition_bearing_matches(self, partitioned, pairwise):
        left = c_table("R", 1, [((1,), "x = 0"), ((2,),)])
        right = c_table("S", 1, [((1,), "x != 1"), ((2,), "y = 2")])
        assert_partitioned_matches_pairwise(partitioned, pairwise, left, right)

    def test_global_conditions_conjoined(self, partitioned, pairwise):
        left = CTable("R", 1, [(x,)], Conjunction([Neq(x, 0)]))
        right = CTable("S", 1, [(1,)], Conjunction([Neq(x, 2)]))
        fast = partitioned(left, right)
        assert fast.global_condition == Conjunction([Neq(x, 0), Neq(x, 2)])
        assert_partitioned_matches_pairwise(partitioned, pairwise, left, right)

    def test_empty_sides(self, partitioned, pairwise):
        empty = CTable("R", 2, [])
        full = CTable("S", 2, [(1, 2)])
        assert_partitioned_matches_pairwise(partitioned, pairwise, empty, full)
        assert_partitioned_matches_pairwise(partitioned, pairwise, full, empty)

    def test_arity_mismatch_raises(self, partitioned, pairwise):
        with pytest.raises(ValueError):
            partitioned(CTable("R", 1, [(1,)]), CTable("S", 2, [(1, 2)]))


@pytest.mark.parametrize("partitioned,pairwise", OPERATORS)
class TestRandomizedDifferential:
    def test_random_tables_all_kinds(self, partitioned, pairwise):
        # 30 seeds x 3 kinds = 90 cases per operator (180 total), spanning
        # ground-only Codd tables through condition-bearing c-tables.
        for seed in range(30):
            rng = random.Random(0x5E7 + seed)
            for kind in ("codd", "e", "c"):
                kwargs = {} if kind == "codd" else {"num_variables": 2}
                left = random_table(
                    rng, kind, name="R", rows=3, arity=2, num_constants=3, **kwargs
                )
                right = random_table(
                    rng, kind, name="S", rows=3, arity=2, num_constants=3, **kwargs
                )
                assert_partitioned_matches_pairwise(
                    partitioned, pairwise, left, right
                )

    def test_ground_heavy_tables_share_tuples(self, partitioned, pairwise):
        # Draw both sides from a tiny constant pool so bucket hits happen.
        for seed in range(20):
            rng = random.Random(0xA11 + seed)
            rows = lambda: [
                (rng.randrange(2), rng.randrange(2)) for _ in range(4)
            ]
            left = CTable("R", 2, rows())
            right = CTable("S", 2, rows())
            assert_partitioned_matches_pairwise(partitioned, pairwise, left, right)
