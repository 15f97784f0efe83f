"""Plan-equivalence property harness for the cost-based join orderers.

The contract (ISSUEs 2 and 3): for every n-way join expression ``e`` and
c-table database ``D``, all four evaluation paths agree on the
represented set of worlds::

    rep(evaluate_ct(e, D))                 # naive select-over-product
    == rep(evaluate_ct_optimized(e, D))    # rewrite-planned, input order
    == rep(evaluate_ct_optimized(order_joins(plan(e), stats), D))  # greedy
    == rep(evaluate_ct_ordered(e, D))      # Selinger DP, bushy

checked through the world-enumeration oracle on 300+ randomized 2-6-way
join expressions (connected random join graphs, occasionally cyclic) over
random c-tables, in ground, variable-bearing and locally-conditioned
variants.  Worlds are compared after ``strong_canonicalize`` because the
paths may keep different dead rows and hence different variable sets.

Structural properties of the ordering passes ride along: both are pure
reassociations (same scans, same arity, original column order restored),
both are deterministic, the DP orderer picks genuinely bushy shapes on
snowflake graphs and falls back to the greedy orderer above its leaf
threshold.  The greedy orderer runs in the planner only as that
fallback, so the harness orders its greedy arm directly, and an 11-atom
chain query drives the fallback through the whole query pipeline.
"""

from __future__ import annotations

import random

import pytest

from repro.core.tables import TableDatabase
from repro.core.terms import Constant
from repro.core.worlds import enumerate_worlds, strong_canonicalize
from repro.ctalgebra import evaluate_ct, evaluate_ct_optimized, evaluate_ct_ordered
from repro.queries.prepared import execute, prepare
from repro.relational import (
    DP_LEAF_THRESHOLD,
    Join,
    Product,
    Scan,
    Statistics,
    order_joins,
    order_joins_dp,
    plan,
)
from repro.workloads import (
    random_join_query,
    random_nway_join_database,
    snowflake_join_database,
    snowflake_join_expression,
    star_join_database,
    star_join_expression,
)


def _rep(table, extra):
    worlds = enumerate_worlds(TableDatabase.single(table), extra_constants=extra)
    return {strong_canonicalize(w, extra) for w in worlds}


def assert_all_paths_agree(expression, db):
    naive = evaluate_ct(expression, db, name="V")
    planned = evaluate_ct_optimized(expression, db, name="V")
    greedy = evaluate_ct_optimized(
        order_joins(plan(expression), Statistics.collect(db)), db, name="V"
    )
    dp = evaluate_ct_ordered(expression, db, name="V")
    assert naive.arity == planned.arity == greedy.arity == dp.arity
    extra = sorted(db.constants(), key=Constant.sort_key)
    rep_naive = _rep(naive, extra)
    assert rep_naive == _rep(planned, extra), repr(expression)
    assert rep_naive == _rep(greedy, extra), repr(expression)
    assert rep_naive == _rep(dp, extra), repr(expression)


#: Join widths x seeds; each case runs a ground variant and a
#: variable/condition-bearing variant.  6-way graphs get fewer seeds —
#: their world enumeration dominates the harness's runtime.
CASES = [(n, seed) for n in (2, 3, 4, 5) for seed in range(40)]
CASES += [(6, seed) for seed in range(15)]


class TestPlanEquivalence:
    @pytest.mark.parametrize("num_tables,seed", CASES)
    def test_random_join_expression(self, num_tables, seed):
        rng = random.Random(0x0D0E + 1009 * num_tables + seed)
        expr = random_join_query(rng, num_tables)

        ground = random_nway_join_database(rng, num_tables, rows_per_table=2)
        assert_all_paths_agree(expr, ground)

        wild = random_nway_join_database(
            rng,
            num_tables,
            rows_per_table=2,
            var_probability=0.3,
            local_probability=0.3,
        )
        assert_all_paths_agree(expr, wild)


class TestOrderingIsAReassociation:
    def test_star_plan_restores_column_order(self):
        rng = random.Random(7)
        db = star_join_database(rng, num_dims=3, dim_rows=3, fact_rows=5)
        expr = star_join_expression(num_dims=3)
        stats = Statistics.collect(db)

        planned = plan(expr)
        ordered = plan(expr, stats=stats)
        assert planned.arity == ordered.arity == expr.arity
        assert planned.relation_names() == ordered.relation_names()

        # Cheap structural witness of equivalence on the ground star data:
        # identical row sets, in the original column order.
        left_deep = evaluate_ct_optimized(expr, db, name="V")
        cost_ordered = evaluate_ct_ordered(expr, db, name="V", stats=stats)
        assert set(left_deep.rows) == set(cost_ordered.rows)

    def test_ordering_is_deterministic(self):
        rng = random.Random(21)
        db = random_nway_join_database(rng, 4, rows_per_table=3)
        expr = random_join_query(random.Random(22), 4)
        stats = Statistics.collect(db)
        first = plan(expr, stats=stats)
        second = plan(expr, stats=stats)
        assert repr(first) == repr(second)

    def test_order_joins_moves_fact_table_off_the_tail(self):
        # Pessimal input order: dims first, fact last.  The greedy cost
        # model must place F second (right after the first, smallest
        # dimension) so no intermediate exceeds the fact cardinality.
        rng = random.Random(3)
        db = star_join_database(rng, num_dims=3, dim_rows=4, fact_rows=32)
        expr = star_join_expression(num_dims=3)
        explain: list[str] = []
        order_joins(plan(expr), Statistics.collect(db), explain)
        assert len(explain) == 1
        order = explain[0]
        assert order.startswith("join order: ")
        names = [part.split()[0] for part in order[len("join order: ") :].split(" >< ")]
        assert names[1] == "F", order
        assert names[0].startswith("D")

    def test_explain_untouched_for_two_way_join(self):
        rng = random.Random(4)
        db = random_nway_join_database(rng, 2, rows_per_table=3)
        expr = random_join_query(random.Random(5), 2)
        explain: list[str] = []
        plan(expr, stats=Statistics.collect(db), explain=explain)
        assert explain == []

    def test_order_joins_passes_scans_through(self):
        stats = Statistics()
        scan = Scan("R", 2)
        assert order_joins(scan, stats) is scan
        assert order_joins_dp(scan, stats) is scan


def _has_bushy_join(node) -> bool:
    """True when some Join's two children are both Joins (a bushy shape)."""
    if isinstance(node, Join):
        if isinstance(node.left, Join) and isinstance(node.right, Join):
            return True
    for attr in ("left", "right", "child"):
        child = getattr(node, attr, None)
        if child is not None and _has_bushy_join(child):
            return True
    return False


class TestSelingerDP:
    def _snowflake(self):
        rng = random.Random(11)
        db = snowflake_join_database(
            rng, fact_rows=60, dim_rows=60, filter_rows=30, key_spread=6
        )
        return db, snowflake_join_expression(), Statistics.collect(db)

    def test_dp_picks_a_bushy_plan_on_the_snowflake(self):
        db, expr, stats = self._snowflake()
        dp_plan = plan(expr, stats)
        greedy_plan = order_joins(plan(expr), stats)
        assert _has_bushy_join(dp_plan)
        assert not _has_bushy_join(greedy_plan)  # greedy is left-deep only

    def test_dp_plan_is_equivalent_on_the_snowflake(self):
        db, expr, stats = self._snowflake()
        left_deep = evaluate_ct_optimized(expr, db, name="V")
        dp = evaluate_ct_ordered(expr, db, name="V", stats=stats)
        assert left_deep.arity == dp.arity == expr.arity
        assert set(left_deep.rows) == set(dp.rows)

    def test_dp_explain_shows_bushy_shape_and_estimates(self):
        db, expr, stats = self._snowflake()
        explain: list[str] = []
        plan(expr, stats, explain)
        assert len(explain) == 1
        line = explain[0]
        assert line.startswith("join order: ")
        # Bushy shape: two parenthesised subjoins, each with an estimate.
        assert line.count("><") == 3 and line.count("~") == 3, line

    def test_dp_is_deterministic(self):
        db, expr, stats = self._snowflake()
        assert repr(plan(expr, stats)) == repr(plan(expr, stats))

    def test_dp_falls_back_to_greedy_above_the_leaf_threshold(self):
        db, expr, stats = self._snowflake()
        planned = plan(expr)  # rewrite only: fused joins, input order
        explain: list[str] = []
        fallback = order_joins_dp(planned, stats, explain, max_dp_leaves=2)
        assert repr(fallback) == repr(order_joins(planned, stats))
        assert any(line.startswith("dp fallback: 4 leaves > 2") for line in explain)

    def test_dp_handles_disconnected_join_graphs(self):
        # Two independent equijoins under one product: the join graph has
        # two connected components, joined by a cross product.
        rng = random.Random(13)
        db = random_nway_join_database(rng, 4, rows_per_table=2)
        from repro.relational import ColEq, Select

        expr = Select(
            Product(
                Product(Scan("R0", 2), Scan("R1", 2)),
                Product(Scan("R2", 2), Scan("R3", 2)),
            ),
            [ColEq(0, 2), ColEq(4, 6)],
        )
        assert_all_paths_agree(expr, db)


def _chain_database(length: int) -> TableDatabase:
    """``length`` two-row tables ``E0..``, each ``{(0, 0), (1, 1)}``,
    except that ``E0``'s second row starts at the null ``x`` and ``E5``'s
    holds only when ``x != 0``: the 1-path carries both to the answer."""
    from repro.io.text import loads_database

    tables = []
    for i in range(length):
        second = "?x 1" if i == 0 else "1 1 :: x != 0" if i == 5 else "1 1"
        tables.append(f"%table E{i}/2\n0 0\n{second}\n")
    return loads_database("".join(tables))


class TestGreedyFallbackThroughThePipeline:
    def test_long_chain_runs_the_greedy_fallback_and_matches_the_oracle(self):
        length = DP_LEAF_THRESHOLD + 1
        db = _chain_database(length)
        body = ", ".join(f"E{i}(X{i}, X{i + 1})" for i in range(length))
        prepared = prepare(f"Q(X0, X{length}) :- {body}.")

        planned = execute(prepared, db, explain=True)
        oracle = execute(prepared, db, naive=True)

        assert any(
            line.startswith(f"dp fallback: {length} leaves > {DP_LEAF_THRESHOLD}")
            for line in planned.explain
        ), planned.explain
        extra = sorted(db.constants(), key=Constant.sort_key)
        assert _rep(planned.table, extra) == _rep(oracle.table, extra)
