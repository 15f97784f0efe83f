"""Unit tests for the statistics subsystem and cardinality model.

Collection is checked against hand-countable tables (both c-table and
complete-instance sources), including the condition-aware treatment of
variable cells (local/global equalities pin a variable to a constant or
small domain, reclassifying the cell from "wild" to ground); histograms
are checked for their MCV/bucket lookup contract and the degenerate
shapes (empty tables, all-variable columns, single buckets, ties at the
MCV cut).  The estimator is checked for the *ordinal* properties the
join orderers rely on — selections shrink, joins with keys beat
products, wild join columns cost more than ground ones, skew flips the
DP plan — not for absolute accuracy, which the model does not promise.
The statistics memo on each table is checked for its amortisation
contract: collected once per table value, shared by identity between
database versions that share the table, and fresh for a table an
update rebuilt.  Other histogram shapes, such as the uniform model, are
built with ``TableStats.from_rows(..., buckets=N)``.
"""

from __future__ import annotations

import random

from repro.core.conditions import BoolAtom, BoolOr, Conjunction, Eq, Neq
from repro.core.tables import CTable, Row, TableDatabase
from repro.core.terms import Constant, Variable
from repro.ctalgebra import evaluate_ct_database, evaluate_ct_ordered
from repro.extensions.updates import delete_fact, insert_fact, modify_fact
from repro.relational import (
    ColEq,
    ColEqConst,
    ColNeqConst,
    Instance,
    Join,
    Product,
    Scan,
    Select,
    Statistics,
    StatsStore,
    estimate,
    evaluate_to_relation,
    plan,
)
from repro.relational.stats import DEFAULT_DISTINCT, DEFAULT_ROWS, TableStats, join_estimate
from repro.workloads import (
    random_nway_join_database,
    skewed_star_join_database,
    skewed_star_join_expression,
    star_join_database,
)

x = Variable("x")


def _shaped(table: CTable, buckets: int) -> TableStats:
    """``table``'s statistics with ``buckets`` histogram buckets per column."""
    return TableStats.from_rows(
        table.name, table.arity, table.rows, table.global_condition, buckets=buckets
    )


class TestCollection:
    def test_ctable_counts(self):
        table = CTable("R", 2, [(1, 2), (1, x), (3, 2)])
        stats = Statistics.collect(TableDatabase([table]))
        ts = stats.get("R")
        assert ts.rows == 3
        col0, col1 = ts.columns
        assert (col0.ground, col0.wild, col0.distinct) == (3, 0, 2)
        assert (col1.ground, col1.wild, col1.distinct) == (2, 1, 1)

    def test_instance_counts(self):
        instance = Instance({"R": [(1, 2), (3, 4), (3, 2)], "S": [(0,)]})
        stats = Statistics.collect(instance)
        ts = stats.get("R")
        assert ts.rows == 3
        assert ts.columns[0].distinct == 2
        assert ts.columns[0].wild == 0
        assert stats.get("S").rows == 1

    def test_unknown_relation_falls_back_to_defaults(self):
        stats = Statistics()
        est = estimate(Scan("missing", 2), stats)
        assert est.rows == DEFAULT_ROWS

    def test_arity_mismatch_falls_back_to_defaults(self):
        # Regression: statistics collected before a schema change carry an
        # arity-2 TableStats for R; estimating a scan of R at arity 3 used
        # to raise IndexError when a predicate touched column 2.
        table = CTable("R", 2, [(1, 2), (3, 4)])
        stats = Statistics.collect(TableDatabase([table]))
        est = estimate(Select(Scan("R", 3), [ColEqConst(2, 7)]), stats)
        assert est.arity == 3
        assert est.rows == DEFAULT_ROWS / DEFAULT_DISTINCT
        bare = estimate(Scan("R", 3), stats)
        assert bare.rows == DEFAULT_ROWS
        assert bare.distinct == (DEFAULT_DISTINCT,) * 3

    def test_describe_mentions_wild_columns(self):
        table = CTable("R", 1, [(x,), (1,)])
        stats = Statistics.collect(TableDatabase([table]))
        assert "wild" in stats.get("R").describe()


class TestEstimatorOrdinalProperties:
    def _stats(self):
        rng = random.Random(0)
        return Statistics.collect(star_join_database(rng, num_dims=2, dim_rows=8, fact_rows=64))

    def test_equality_selection_shrinks(self):
        stats = self._stats()
        scan = Scan("F", 2)
        selected = Select(scan, [ColEqConst(0, 3)])
        assert estimate(selected, stats).rows < estimate(scan, stats).rows

    def test_keyed_join_beats_product(self):
        stats = self._stats()
        product = Product(Scan("D0", 2), Scan("F", 2))
        keyed = Join(Scan("D0", 2), Scan("F", 2), [(0, 0)])
        assert estimate(keyed, stats).rows < estimate(product, stats).rows

    def test_wild_join_columns_cost_more(self):
        ground = CTable("G", 1, [(i,) for i in range(8)])
        wild = CTable("W", 1, [(Variable(f"w{i}"),) for i in range(4)] + [(i,) for i in range(4)])
        probe = CTable("P", 1, [(i,) for i in range(8)])
        stats = Statistics.collect(TableDatabase([ground, wild, probe]))
        ground_est = estimate(Join(Scan("G", 1), Scan("P", 1), [(0, 0)]), stats)
        wild_est = estimate(Join(Scan("W", 1), Scan("P", 1), [(0, 0)]), stats)
        assert wild_est.rows > ground_est.rows

    def test_join_estimate_is_roughly_calibrated_on_keys(self):
        # D0 keys are unique and F draws from them uniformly: the keyed
        # join really has |F| rows and the estimate should land near it.
        rng = random.Random(1)
        db = star_join_database(rng, num_dims=2, dim_rows=8, fact_rows=64)
        stats = Statistics.collect(db)
        est = join_estimate(
            estimate(Scan("D0", 2), stats), estimate(Scan("F", 2), stats), [(0, 0)]
        )
        world = Instance(
            {t.name: [[c.value for c in row.terms] for row in t.rows] for t in db}
        )
        actual = len(evaluate_to_relation(Join(Scan("D0", 2), Scan("F", 2), [(0, 0)]), world))
        assert actual / 4 <= est.rows <= actual * 4

    def test_instance_evaluator_optimize_flag_is_equivalent(self):
        rng = random.Random(9)
        db = random_nway_join_database(rng, 3, rows_per_table=4, num_constants=2)
        world = Instance(
            {t.name: [[c.value for c in row.terms] for row in t.rows] for t in db}
        )
        expr = Select(
            Product(Product(Scan("R0", 2), Scan("R1", 2)), Scan("R2", 2)),
            [ColEq(0, 2), ColEq(3, 4)],
        )
        plain = evaluate_to_relation(expr, world)
        assert plain == evaluate_to_relation(expr, world, optimize=True)


class TestStatsStore:
    """Statistics are a memo on the immutable table; the store only
    counts the memos it fills."""

    def _db(self):
        return TableDatabase(
            [
                CTable("R", 2, [(1, 2), (3, 4), (5, 6)]),
                CTable("S", 1, [(0,), (1,)]),
            ]
        )

    @staticmethod
    def _count_collections(monkeypatch) -> list:
        calls = []
        original = TableStats.from_rows

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(TableStats, "from_rows", staticmethod(counting))
        return calls

    def test_snapshot_collects_each_table_once(self, monkeypatch):
        calls = self._count_collections(monkeypatch)
        db = self._db()
        store = StatsStore()
        first = store.snapshot(db)
        second = store.snapshot(db)
        assert store.counters() == {"table_collections": 2}
        assert sorted(calls) == ["R", "S"]
        assert second.get("R") is first.get("R") is db["R"].stats()
        assert Statistics.collect(db).get("S") is first.get("S")
        assert first.get("R").rows == 3

    def test_update_operators_share_untouched_statistics(self):
        db = self._db()
        before = Statistics.collect(db)
        assert before.get("R").rows == 3

        replaced = db.replacing(CTable("R", 2, [(1, 2)]))
        assert Statistics.collect(replaced).get("S") is before.get("S")
        assert Statistics.collect(replaced).get("R").rows == 1

        updated = insert_fact(db, "R", (7, 8))
        assert not updated["R"].has_stats()  # a new table value: an empty memo
        after = Statistics.collect(updated)
        assert after.get("R").rows == 4  # fresh statistics for R...
        assert after.get("S") is before.get("S")  # ...shared ones for S
        assert Statistics.collect(db).get("R") is before.get("R")  # old version intact

        updated = delete_fact(updated, "R", (1, 2))
        assert Statistics.collect(updated).get("R").rows == 3

        updated = modify_fact(updated, "S", (0,), (9,))
        assert Statistics.collect(updated).get("S").rows == 2
        assert 9 in {c.value for row in updated["S"].rows for c in row.terms}

    def test_failed_modify_leaves_the_store_untouched(self):
        import pytest

        db = self._db()
        store = StatsStore()
        before = store.snapshot(db)
        with pytest.raises(ValueError):
            modify_fact(db, "R", (1, 2), (1, 2, 3))
        assert store.snapshot(db).get("R") is before.get("R")
        assert store.counters() == {"table_collections": 2}

    def test_evaluate_ct_database_optimize_shares_one_collection(self, monkeypatch):
        rng = random.Random(5)
        db = star_join_database(rng, num_dims=3, dim_rows=3, fact_rows=8)
        from repro.workloads import star_join_expression

        expressions = {
            "V1": star_join_expression(3),
            "V2": star_join_expression(3),
            "V3": Scan("F", 3),
        }
        calls = self._count_collections(monkeypatch)
        optimized = evaluate_ct_database(expressions, db, optimize=True)
        # One collection pass for all three views, not one per view...
        assert sorted(calls) == sorted(db.names())
        # ...and none for a second invocation over the same tables.
        evaluate_ct_database(expressions, db, optimize=True)
        assert len(calls) == len(db)
        naive = evaluate_ct_database(expressions, db)
        for name in expressions:
            assert set(optimized[name].rows) == set(naive[name].rows), name


class TestHistograms:
    def _skewed_stats(self, buckets=8):
        # Column 0: value 0 sixty times, value 1 twenty times, 100..119 once.
        rows = (
            [(0, i) for i in range(60)]
            + [(1, 200 + i) for i in range(20)]
            + [(100 + i, 300 + i) for i in range(20)]
        )
        table = CTable("R", 2, rows)
        return Statistics([_shaped(table, buckets)])

    def test_mcv_frequencies_are_exact(self):
        hist = self._skewed_stats().get("R").columns[0].hist
        assert hist.eq_fraction(Constant(0)) == 0.6
        assert hist.eq_fraction(Constant(1)) == 0.2
        assert hist.neq_fraction(Constant(0)) == 0.4

    def test_tail_values_use_bucket_average(self):
        hist = self._skewed_stats().get("R").columns[0].hist
        # Tail values each appear once among 100 rows.
        assert abs(hist.eq_fraction(Constant(105)) - 0.01) < 1e-9

    def test_absent_values_estimate_zero(self):
        hist = self._skewed_stats().get("R").columns[0].hist
        assert hist.eq_fraction(Constant(999)) == 0.0
        assert hist.neq_fraction(Constant(999)) == 1.0

    def test_selection_estimate_uses_mcv(self):
        stats = self._skewed_stats()
        hot = estimate(Select(Scan("R", 2), [ColEqConst(0, 0)]), stats)
        rare = estimate(Select(Scan("R", 2), [ColEqConst(0, 105)]), stats)
        assert abs(hot.rows - 60.0) < 1e-6
        assert rare.rows <= 2.0

    def test_neq_selection_estimate_uses_histogram(self):
        stats = self._skewed_stats()
        est = estimate(Select(Scan("R", 2), [ColNeqConst(0, 0)]), stats)
        assert abs(est.rows - 40.0) < 1e-6

    def test_buckets_zero_reproduces_constant_model(self):
        stats = self._skewed_stats(buckets=0)
        assert stats.get("R").columns[0].hist is None
        est = estimate(Select(Scan("R", 2), [ColEqConst(0, 0)]), stats)
        assert abs(est.rows - 100.0 / 22.0) < 1e-9  # 22 distinct values
        neq = estimate(Select(Scan("R", 2), [ColNeqConst(0, 0)]), stats)
        assert abs(neq.rows - 90.0) < 1e-9  # the 0.9 constant

    def test_empty_table(self):
        db = TableDatabase([CTable("E", 2, [])])
        stats = Statistics.collect(db)
        ts = stats.get("E")
        assert ts.rows == 0
        assert ts.columns[0].hist is None
        est = estimate(Select(Scan("E", 2), [ColEqConst(0, 1)]), stats)
        assert est.rows == 0.0

    def test_all_variable_column(self):
        table = CTable("W", 1, [(Variable(f"w{i}"),) for i in range(5)])
        stats = Statistics.collect(TableDatabase([table]))
        col = stats.get("W").columns[0]
        assert (col.ground, col.wild, col.distinct, col.pinned) == (0, 5, 0, 0)
        assert col.hist is None
        est = estimate(Select(Scan("W", 1), [ColEqConst(0, 3)]), stats)
        # Every row is wild: all of them may satisfy the selection.
        assert est.rows == 5.0

    def test_single_bucket_degenerate(self):
        stats = self._skewed_stats(buckets=1)
        hist = stats.get("R").columns[0].hist
        assert len(hist.buckets) == 1
        assert hist.eq_fraction(Constant(0)) == 0.6  # MCVs unaffected
        assert abs(hist.eq_fraction(Constant(105)) - 0.01) < 1e-9

    def test_mcv_ties_are_deterministic(self):
        # 14 values tied at count 3 with an mcv limit of 10: the cut must
        # fall deterministically (value order) and repeated collections
        # must agree exactly.  (Payload column keeps the rows distinct —
        # c-tables are row *sets*.)
        rows = [(v, 1000 + 3 * v + j) for v in range(14) for j in range(3)] + [
            (100 + i, 2000 + i) for i in range(60)
        ]
        db = TableDatabase([CTable("T", 2, rows)])
        first = Statistics.collect(db).get("T").columns[0].hist
        second = Statistics.collect(db).get("T").columns[0].hist
        assert list(first.mcvs) == list(second.mcvs)
        assert len(first.mcvs) == 10
        kept = sorted(v.value for v in first.mcvs)
        # Ties break by term sort key (textual), deterministically.
        assert kept == sorted(sorted(range(14), key=str)[:10])
        # A tied value dropped from the MCV list estimates via its bucket
        # at roughly the same frequency.
        assert first.eq_fraction(Constant(12)) > 0.0

    def test_stale_arity_mismatch_falls_back(self):
        # Histograms collected before a schema change must not be consulted
        # for a scan of a different arity.
        rows = [(0, i) for i in range(10)]
        stats = Statistics.collect(TableDatabase([CTable("R", 2, rows)]))
        est = estimate(Select(Scan("R", 3), [ColEqConst(2, 7)]), stats)
        assert est.arity == 3
        assert est.rows == DEFAULT_ROWS / DEFAULT_DISTINCT

    def test_uniform_columns_carry_no_mcvs(self):
        rows = [(i % 10,) for i in range(100)]
        hist = Statistics.collect(TableDatabase([CTable("U", 1, rows)])).get(
            "U"
        ).columns[0].hist
        assert hist.mcvs == {}
        assert abs(hist.eq_fraction(Constant(3)) - 0.1) < 1e-9

    def test_explain_reports_selectivity_source(self):
        stats = self._skewed_stats()
        lines: list[str] = []
        estimate(Select(Scan("R", 2), [ColEqConst(0, 0)]), stats, lines)
        assert lines and "selectivity" in lines[0] and "mcv" in lines[0]

    def test_describe_and_histogram_lines(self):
        ts = self._skewed_stats().get("R")
        assert "distinct" in ts.describe()
        lines = ts.histogram_lines()
        assert any("R.$0" in line and "mcv" in line for line in lines)


class TestConditionPinning:
    def test_local_equality_pins_a_variable(self):
        v = Variable("v")
        table = CTable(
            "R", 2, [Row((v, 10), BoolAtom(Eq(v, Constant(3)))), ((3, 11))]
        )
        col = Statistics.collect(TableDatabase([table])).get("R").columns[0]
        assert (col.ground, col.pinned, col.wild) == (1, 1, 0)
        assert col.distinct == 1  # both rows hold 3
        assert col.hist.eq_fraction(Constant(3)) == 1.0

    def test_global_condition_pins_a_variable(self):
        v = Variable("v")
        table = CTable("G", 1, [Row((v,))], Conjunction([Eq(v, Constant(5))]))
        col = Statistics.collect(TableDatabase([table])).get("G").columns[0]
        assert (col.pinned, col.wild) == (1, 0)
        assert col.hist.eq_fraction(Constant(5)) == 1.0

    def test_small_or_domain_pins_fractionally(self):
        v = Variable("v")
        condition = BoolOr(
            (BoolAtom(Eq(v, Constant(1))), BoolAtom(Eq(v, Constant(2))))
        )
        table = CTable("D", 1, [Row((v,), condition)])
        col = Statistics.collect(TableDatabase([table])).get("D").columns[0]
        assert (col.pinned, col.wild) == (1, 0)
        assert abs(col.hist.eq_fraction(Constant(1)) - 0.5) < 1e-9
        assert abs(col.hist.eq_fraction(Constant(2)) - 0.5) < 1e-9

    def test_large_or_domain_stays_wild(self):
        v = Variable("v")
        condition = BoolOr(
            tuple(BoolAtom(Eq(v, Constant(i))) for i in range(10))
        )
        table = CTable("D", 1, [Row((v,), condition)])
        col = Statistics.collect(TableDatabase([table])).get("D").columns[0]
        assert (col.pinned, col.wild) == (0, 1)

    def test_inequality_condition_stays_wild(self):
        v = Variable("v")
        table = CTable("N", 1, [Row((v,), BoolAtom(Neq(v, Constant(3))))])
        col = Statistics.collect(TableDatabase([table])).get("N").columns[0]
        assert (col.pinned, col.wild) == (0, 1)

    def test_pinned_join_column_estimates_like_ground(self):
        v = [Variable(f"p{i}") for i in range(4)]
        ground = CTable("G", 1, [(i,) for i in range(8)])
        pinned = CTable(
            "P",
            1,
            [Row((v[i],), BoolAtom(Eq(v[i], Constant(i)))) for i in range(4)]
            + [(i,) for i in range(4, 8)],
        )
        wild = CTable(
            "W",
            1,
            [(Variable(f"w{i}"),) for i in range(4)] + [(i,) for i in range(4, 8)],
        )
        probe = CTable("Q", 1, [(i,) for i in range(8)])
        stats = Statistics.collect(TableDatabase([ground, pinned, wild, probe]))
        ground_est = estimate(Join(Scan("G", 1), Scan("Q", 1), [(0, 0)]), stats)
        pinned_est = estimate(Join(Scan("P", 1), Scan("Q", 1), [(0, 0)]), stats)
        wild_est = estimate(Join(Scan("W", 1), Scan("Q", 1), [(0, 0)]), stats)
        assert pinned_est.rows < wild_est.rows
        assert abs(pinned_est.rows - ground_est.rows) < 1e-6

    def test_describe_mentions_pinned_columns(self):
        v = Variable("v")
        table = CTable("R", 1, [Row((v,), BoolAtom(Eq(v, Constant(3))))])
        stats = Statistics.collect(TableDatabase([table]))
        assert "pinned" in stats.get("R").describe()


class TestSkewFlipsPlanChoice:
    def test_histogram_costing_changes_the_dp_plan(self):
        rng = random.Random(0xAB1987)
        db = skewed_star_join_database(
            rng, num_skewed=2, dim_rows=60, fact_rows=400
        )
        expr = skewed_star_join_expression(2)
        hist_stats = Statistics.collect(db)
        const_stats = Statistics(_shaped(table, buckets=0) for table in db)
        hist_plan = plan(expr, stats=hist_stats)
        const_plan = plan(expr, stats=const_stats)
        assert repr(hist_plan) != repr(const_plan)
        # The differently-shaped plans stay equivalent.
        hist_view = evaluate_ct_ordered(expr, db, stats=hist_stats)
        const_view = evaluate_ct_ordered(expr, db, stats=const_stats)
        assert set(hist_view.rows) == set(const_view.rows)
