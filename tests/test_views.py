"""Materialized views: differential maintenance harness + unit tests.

The contract (ISSUE 5): for every registered view ``V = e(D)`` and every
update sequence applied through :mod:`repro.extensions.updates` with the
:class:`~repro.views.ViewManager` attached, the *incrementally
maintained* materialization ``rep``-equals a full re-evaluation of ``e``
over the updated database.  The maintained rows may differ
syntactically (delta rules re-emit rows instead of growing match
disjunctions; the pin-aware hash join drops semantically-dead pairs the
naive path keeps), so worlds are compared after ``strong_canonicalize``
— the randomized harness below holds the two to identical canonical
world sets across 100+ randomized update sequences, including
condition-bearing (variable/wild) deltas, difference-fallback paths and
targeted delete recomputation; the null-bearing star streams also hold
every node's bookkeeping (its seen-set and term counts) equal to its
cache after each update.

Unit tests pin the maintenance mechanics: delta vs recompute paths,
dependency tracking, subplan sharing across views, the pinned-variable
hash partitioning in ``join_ct``, the updates-module notification audit
(fresh statistics + view notification on every mutation path, including
failure atomicity), the ``update_stream`` generator, and the
``repro view`` / ``repro eval --use-views`` CLI surface, including
sidecars of the wrong shape.
"""

from __future__ import annotations

import json
import random

from collections import Counter

import pytest

from repro.core.conditions import Conjunction, Neq
from repro.core.tables import CTable, Row, TableDatabase, c_table, codd_table
from repro.core.terms import Constant, Variable
from repro.core.worlds import enumerate_worlds, strong_canonicalize
from repro.ctalgebra import evaluate_ct
from repro.ctalgebra.operators import JoinPartition, join_ct
from repro.extensions import (
    apply_update,
    delete_fact,
    insert_fact,
    maybe_database,
    maybe_table,
    modify_fact,
)
from repro.relational import (
    ColEq,
    ColEqConst,
    Difference,
    Join,
    Product,
    Project,
    Scan,
    Select,
    Union,
    plan_fingerprint,
)
from repro.queries.prepared import PreparedQuery, match_view
from repro.views import ViewError, ViewManager
from repro.workloads import (
    random_nway_join_database,
    random_ra_expression,
    star_join_database,
    star_join_expression,
    update_stream,
)


def _rep(table, extra):
    worlds = enumerate_worlds(TableDatabase.single(table), extra_constants=extra)
    return {strong_canonicalize(w, extra) for w in worlds}


def assert_view_matches(manager, name, expr, db):
    """The maintained materialization rep-equals full re-evaluation."""
    maintained = manager.get(name)
    reference = evaluate_ct(expr, db, name=name)
    assert maintained.arity == reference.arity
    extra = sorted(
        db.constants() | maintained.constants() | reference.constants(),
        key=Constant.sort_key,
    )
    assert _rep(maintained, extra) == _rep(reference, extra)


# ---------------------------------------------------------------------------
# The randomized differential harness
# ---------------------------------------------------------------------------

#: 105 sequences of randomized updates over condition-bearing databases
#: (each checked after *every* update), plus the ground star cases below.
RANDOM_CASES = list(range(105))


class TestRandomizedMaintenance:
    @pytest.mark.parametrize("seed", RANDOM_CASES)
    def test_random_expression_random_stream(self, seed):
        rng = random.Random(0x51EE + seed)
        db = random_nway_join_database(
            rng,
            3,
            rows_per_table=2,
            var_probability=0.3,
            local_probability=0.3,
            num_variables=2,
        )
        relations = {t.name: t.arity for t in db.tables()}
        expr = random_ra_expression(rng, relations, depth=2, allow_difference=True)
        manager = ViewManager(db)
        manager.define("V", expr)
        assert_view_matches(manager, "V", expr, db)
        for op in update_stream(rng, db, 3, fresh_probability=0.1):
            db = apply_update(db, op, views=manager)
            assert_view_matches(manager, "V", expr, db)

    @pytest.mark.parametrize("seed", range(12))
    def test_star_view_long_stream(self, seed):
        # The benchmark's shape, small: ground data, longer mixed streams.
        # Everything stays ground, so maintained rows must literally equal
        # the re-evaluated rows (the rep comparison's degenerate case).
        rng = random.Random(0xA11 + seed)
        db = star_join_database(rng, num_dims=3, dim_rows=4, fact_rows=12)
        expr = star_join_expression(3)
        manager = ViewManager(db)
        manager.define("V", expr)
        for op in update_stream(rng, db, 10):
            db = apply_update(db, op, views=manager)
            assert set(manager.get("V").rows) == set(
                evaluate_ct(expr, db, name="V").rows
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_null_bearing_star_stream(self, seed):
        # The views_churn shape, small: F gets two rows with a null and
        # two with a local null != constant condition, so deletes either
        # drop ground rows (removal deltas through the joins) or rewrite
        # a null row's condition (targeted recompute).  After every update
        # each node's bookkeeping must mirror its cache exactly: the
        # removal guard reads the term counts.
        rng = random.Random(0x5EED + seed)
        db = star_join_database(rng, num_dims=3, dim_rows=4, fact_rows=12)
        nulls = [Variable("n0"), Variable("n1")]
        rows = list(db["F"].rows)
        picked = rng.sample(range(len(rows)), 4)
        for i in picked[:2]:
            terms = list(rows[i].terms)
            terms[rng.randrange(3)] = rng.choice(nulls)
            rows[i] = Row(terms)
        for i in picked[2:]:
            condition = Neq(rng.choice(nulls), rng.choice(rows[i].terms))
            rows[i] = Row(rows[i].terms, Conjunction([condition]))
        db = db.replacing(CTable("F", 3, rows))
        expr = star_join_expression(3)
        manager = ViewManager(db)
        manager.define("V", expr)
        counted = False
        for op in update_stream(rng, db, 10, 0.4, 0.4, 0.2, relations=["F"]):
            db = apply_update(db, op, views=manager)
            assert_view_matches(manager, "V", expr, db)
            for node in manager._cache.nodes.values():
                assert node.seen == set(node.cache.rows)
                # Counts are built by the first removal guard that reads
                # them and maintained from then on.  Plain dict equality:
                # a zero entry left behind fails it.
                if node.counts is not None:
                    counted = True
                    assert dict(node.counts) == dict(
                        Counter(row.terms for row in node.cache.rows)
                    )
        # Every seed's stream reaches the removal path, not only the
        # recompute fallback, and its guard built some node's counts.
        assert manager.counters["removed_rows"] > 0
        assert counted

    def test_condition_bearing_deltas(self):
        # Inserts joining against variable/wild rows produce delta rows
        # carrying conditions; deletes unifying with null rows rewrite
        # conditions and must take the targeted-recompute path.
        db = TableDatabase(
            [
                c_table("R", 2, [((0, "?x"), "x != 9"), (("?y", 1),)]),
                codd_table("S", 2, [(1, 5), ("?z", 6)]),
            ]
        )
        expr = Select(Product(Scan("R", 2), Scan("S", 2)), [ColEq(1, 2)])
        manager = ViewManager(db)
        manager.define("V", expr)
        db = insert_fact(db, "S", (2, 7), views=manager)
        assert manager.counters["delta_rows"] > 0
        assert_view_matches(manager, "V", expr, db)
        db = delete_fact(db, "R", (0, 1), views=manager)  # unifies with nulls
        assert manager.counters["recomputed_nodes"] > 0
        assert_view_matches(manager, "V", expr, db)
        db = modify_fact(db, "S", (1, 5), (1, 8), views=manager)
        assert_view_matches(manager, "V", expr, db)


# ---------------------------------------------------------------------------
# Maintenance mechanics
# ---------------------------------------------------------------------------


def _star(seed=7, num_dims=3, dim_rows=5, fact_rows=20):
    rng = random.Random(seed)
    db = star_join_database(rng, num_dims=num_dims, dim_rows=dim_rows, fact_rows=fact_rows)
    return db, star_join_expression(num_dims)


class TestViewManagerBasics:
    def test_define_materializes(self):
        db, expr = _star()
        manager = ViewManager(db)
        table = manager.define("V", expr)
        assert table.name == "V"
        assert set(table.rows) == set(evaluate_ct(expr, db, name="V").rows)
        assert "V" in manager and manager.names() == ("V",)
        assert manager.relations("V") == {"F", "D0", "D1", "D2"}
        assert manager.readers("F") == ("V",)
        assert manager.readers("Zed") == ()

    def test_define_from_rule_text(self):
        db = TableDatabase(
            [codd_table("R", 2, [(0, 1), (1, 2)]), codd_table("S", 2, [(1, 5)])]
        )
        manager = ViewManager(db)
        table = manager.define("V", "V(Y) :- R(X, Y), S(X, Z).")
        assert table.arity == 1
        assert manager.relations("V") == {"R", "S"}

    def test_duplicate_define_rejected(self):
        db, expr = _star()
        manager = ViewManager(db)
        manager.define("V", expr)
        with pytest.raises(ViewError, match="already defined"):
            manager.define("V", expr)

    def test_bad_query_rejected(self):
        db, _ = _star()
        with pytest.raises(ViewError, match="cannot compile"):
            ViewManager(db).define("V", "not a rule")

    def test_drop_and_unknown(self):
        db, expr = _star()
        manager = ViewManager(db)
        manager.define("V", expr)
        manager.drop("V")
        assert len(manager) == 0
        assert manager._cache.nodes == {}  # subplan caches released
        with pytest.raises(ViewError, match="no view"):
            manager.drop("V")
        with pytest.raises(ViewError, match="no view"):
            manager.get("V")

    def test_lookup_matches_source_expression(self):
        db, expr = _star()
        manager = ViewManager(db)
        manager.define("V", expr)
        views = [(name, fp, table) for name, _q, fp, table in manager.materializations()]
        hit = match_view(PreparedQuery("ucq", "Q", expr), views)
        assert hit is not None and hit[0] == "V"
        assert hit[1].name == "Q"
        assert set(hit[1].rows) == set(manager.get("V").rows)
        assert match_view(PreparedQuery("ucq", "Q", Scan("F", 3)), views) is None

    def test_failed_define_leaves_no_orphan_subplans(self):
        # A define that fails mid-materialization (arity mismatch) must
        # not leave freshly-interned, partially-cached nodes behind: no
        # view owns them, so notifications would skip them and a later
        # define sharing a fingerprint would reuse the stale cache.
        db = TableDatabase.single(codd_table("R", 2, [(0, 1)]))
        manager = ViewManager(db)
        with pytest.raises(ValueError, match="arity"):
            manager.define("V1", Join(Scan("R", 2), Scan("R", 3), ()))
        assert manager.subplan_count == 0
        db = insert_fact(db, "R", (5, 6), views=manager)  # no dependents yet
        table = manager.define("V2", Project(Scan("R", 2), [0, 1]))
        assert set(table.rows) == set(db["R"].rows)

    def test_modify_log_keeps_both_halves(self):
        db, expr = _star()
        manager = ViewManager(db)
        manager.define("V", expr)
        db = modify_fact(db, "F", tuple(db["F"].rows[0].terms), (0, 0, 0), views=manager)
        joined = "\n".join(manager.last_maintenance)
        assert "delete from F" in joined and "insert into F" in joined

    def test_refresh_rebinds_a_replaced_database(self):
        db, expr = _star()
        manager = ViewManager(db)
        manager.define("V", expr)
        replaced = insert_fact(db, "F", (0, 0, 0))  # manager NOT notified
        manager.refresh(db=replaced)
        assert set(manager.get("V").rows) == set(
            evaluate_ct(expr, replaced, name="V").rows
        )

    def test_refresh_rejects_single_view_against_a_new_database(self):
        # Rebinding the database while refreshing only one view would
        # leave every other view permanently inconsistent.
        db, expr = _star()
        manager = ViewManager(db)
        manager.define("V", expr)
        replaced = insert_fact(db, "F", (0, 0, 0))
        with pytest.raises(ViewError, match="stale against the new database"):
            manager.refresh("V", db=replaced)


class TestDeltaVsRecompute:
    def test_insert_takes_the_delta_path(self):
        db, expr = _star()
        manager = ViewManager(db)
        manager.define("V", expr)
        db = insert_fact(db, "F", (1, 1, 1), views=manager)
        assert manager.counters["delta_nodes"] > 0
        assert manager.counters["recomputed_nodes"] == 0
        assert any("delta node" in line for line in manager.last_maintenance)

    def test_idempotent_reinsert_propagates_nothing(self):
        db, expr = _star()
        manager = ViewManager(db)
        manager.define("V", expr)
        db = insert_fact(db, "F", (2, 2, 2), views=manager)
        rows_after_first = dict(manager.counters)["delta_rows"]
        db = insert_fact(db, "F", (2, 2, 2), views=manager)
        assert manager.counters["delta_rows"] == rows_after_first

    def test_ground_delete_takes_the_removal_path(self):
        # Deleting a fact that matches ground rows only removes rows —
        # the removal delta subtracts from caches, no recompute at all.
        db, expr = _star()
        manager = ViewManager(db)
        manager.define("V", expr)
        db = delete_fact(db, "D1", (0, 2000), views=manager)
        assert manager.counters["recomputed_nodes"] == 0
        assert manager.counters["removed_rows"] > 0
        assert set(manager.get("V").rows) == set(
            evaluate_ct(expr, db, name="V").rows
        )

    def test_ground_delete_on_a_conditioned_table_takes_the_removal_path(self):
        # One F row holds a null and another a local condition.  The join
        # guard reads exact term counts, so a ground delete and a modify
        # still maintain every node by delta.
        db, expr = _star()
        facts = [tuple(term.value for term in row.terms) for row in db["F"].rows]
        null_row, conditioned = ("?n",) + facts[0][1:], facts[1]
        fact_table = c_table(
            "F", 3, [(null_row,), (conditioned, "n != 0")] + facts[2:]
        )
        db = db.replacing(fact_table)
        manager = ViewManager(db)
        manager.define("V", expr)
        # Neither fact unifies with the null row: both updates only drop rows.
        old, gone = [f for f in facts[2:] if f[1:] != null_row[1:]][:2]
        db = delete_fact(db, "F", gone, views=manager)
        assert manager.counters["removed_rows"] > 0
        assert manager.counters["recomputed_nodes"] == 0
        assert_view_matches(manager, "V", expr, db)
        db = modify_fact(db, "F", old, (4, 4, 4), views=manager)
        assert manager.counters["recomputed_nodes"] == 0
        assert_view_matches(manager, "V", expr, db)

    def test_join_guard_refuses_when_removed_terms_survive(self):
        # The union keeps a row with the removed row's terms but another
        # condition, so the product output (1, 5) if (x != 1 & y != 2) is
        # derived from both: subtracting the removed row's outputs would
        # lose it.  The guard sees the surviving count and recomputes.
        db = TableDatabase(
            [
                c_table("A", 1, [((1,), "x != 1")]),
                c_table("B", 1, [((1,), "x != 1 & y != 2"), (3,)]),
                c_table("S", 1, [((5,), "y != 2"), (5,)]),
            ]
        )
        expr = Product(Union(Scan("A", 1), Scan("B", 1)), Scan("S", 1))
        manager = ViewManager(db)
        manager.define("V", expr)
        db = delete_fact(db, "A", (1,), views=manager)
        assert manager.counters["recomputed_nodes"] == 1
        assert set(manager.get("V").rows) == set(evaluate_ct(expr, db).rows)

    def test_null_unifying_delete_recomputes_only_the_affected_subtree(self):
        # A delete unifying with a variable row rewrites its condition:
        # the affected subtree recomputes, siblings keep their caches.
        db, expr = _star()
        tables = [
            t if t.name != "D1" else t.with_rows(list(t.rows) + [Row(("?u", 77))])
            for t in db.tables()
        ]
        db = TableDatabase(tables)
        manager = ViewManager(db)
        manager.define("V", expr)
        total_nodes = len(manager._cache.nodes)
        db = delete_fact(db, "D1", (3, 77), views=manager)
        recomputed = manager.counters["recomputed_nodes"]
        assert 0 < recomputed < total_nodes
        assert any("reused" in line for line in manager.last_maintenance)
        assert_view_matches(manager, "V", expr, db)

    def test_noop_delete_recomputes_nothing(self):
        db, expr = _star()
        manager = ViewManager(db)
        manager.define("V", expr)
        db = delete_fact(db, "F", (999, 999, 999), views=manager)
        assert manager.counters["recomputed_nodes"] == 0

    def test_unrelated_update_is_free(self):
        db, expr = _star()
        db = TableDatabase(list(db.tables()) + [codd_table("Z", 1, [(1,)])])
        manager = ViewManager(db)
        manager.define("V", expr)
        db = insert_fact(db, "Z", (2,), views=manager)
        assert manager.counters["skipped_updates"] == 1
        assert manager.counters["delta_nodes"] == 0
        assert manager.counters["recomputed_nodes"] == 0

    def test_difference_right_insert_falls_back(self):
        db = TableDatabase(
            [codd_table("R", 1, [(0,), (1,)]), codd_table("S", 1, [(1,)])]
        )
        expr = Difference(Scan("R", 1), Scan("S", 1))
        manager = ViewManager(db)
        manager.define("V", expr)
        db = insert_fact(db, "S", (0,), views=manager)
        assert manager.counters["difference_fallbacks"] == 1
        assert_view_matches(manager, "V", expr, db)
        # Left-side inserts stay additive.
        db = insert_fact(db, "R", (5,), views=manager)
        assert manager.counters["difference_fallbacks"] == 1
        assert manager.counters["delta_rows"] > 0
        assert_view_matches(manager, "V", expr, db)

    def test_union_and_intersect_deltas(self):
        db = TableDatabase(
            [codd_table("R", 1, [(0,)]), codd_table("S", 1, [(0,), (2,)])]
        )
        union = Union(Scan("R", 1), Scan("S", 1))
        intersect = Project(
            Select(Product(Scan("R", 1), Scan("S", 1)), [ColEq(0, 1)]), [0]
        )
        manager = ViewManager(db)
        manager.define("U", union)
        manager.define("I", intersect)
        for fact, relation in [((2,), "R"), ((7,), "S"), ((7,), "R")]:
            db = insert_fact(db, relation, fact, views=manager)
            assert_view_matches(manager, "U", union, db)
            assert_view_matches(manager, "I", intersect, db)
        assert manager.counters["recomputed_nodes"] == 0


class TestSharedSubplans:
    def test_views_share_join_subtrees(self):
        db = TableDatabase(
            [
                codd_table("R", 2, [(0, 1), (1, 2)]),
                codd_table("S", 2, [(1, 5), (2, 6)]),
            ]
        )
        join = Join(Scan("R", 2), Scan("S", 2), [(1, 0)])
        manager = ViewManager(db)
        manager.define("V1", join)
        manager.define("V2", Project(join, [0, 3]))
        # V2's tree reuses V1's nodes: only the Project root is new.
        fingerprints = set(manager._cache.nodes)
        assert plan_fingerprint(manager._views["V1"].planned) in fingerprints
        assert len(fingerprints) == 4  # scan R, scan S, join, project
        shared = manager._views["V1"].root
        assert shared is manager._views["V2"].root.children[0]

    def test_shared_node_maintained_once_per_update(self):
        db = TableDatabase(
            [
                codd_table("R", 2, [(0, 1), (1, 2)]),
                codd_table("S", 2, [(1, 5), (2, 6)]),
            ]
        )
        join = Join(Scan("R", 2), Scan("S", 2), [(1, 0)])
        manager = ViewManager(db)
        manager.define("V1", join)
        manager.define("V2", Project(join, [0, 3]))
        db = insert_fact(db, "R", (5, 1), views=manager)
        # The shared join and V2's project each count once (scan caches
        # are replaced, not delta-appended); a per-view walk would have
        # counted the join twice.
        assert manager.counters["delta_nodes"] == 2
        assert set(manager.get("V1").rows) == set(
            evaluate_ct(join, db, name="V1").rows
        )
        assert set(manager.get("V2").rows) == set(
            evaluate_ct(Project(join, [0, 3]), db, name="V2").rows
        )


# ---------------------------------------------------------------------------
# updates.py / maybe.py audit: every mutation path gives the touched
# table fresh statistics and notifies the view manager.
# ---------------------------------------------------------------------------


class TestUpdateNotificationAudit:
    def _setup(self):
        db = TableDatabase.single(codd_table("R", 2, [(0, 1), (1, 2)]))
        db["R"].stats()
        manager = ViewManager(db)
        manager.define("V", Scan("R", 2))
        return db, manager

    @pytest.mark.parametrize("op", ["insert", "delete", "modify"])
    def test_every_mutation_invalidates_and_notifies(self, op):
        db, manager = self._setup()
        if op == "insert":
            out = insert_fact(db, "R", (7, 7), views=manager)
        elif op == "delete":
            out = delete_fact(db, "R", (0, 1), views=manager)
        else:
            out = modify_fact(db, "R", (0, 1), (7, 7), views=manager)
        assert not out["R"].has_stats()  # a new table value: fresh statistics
        assert out["R"].stats().rows == len(out["R"])
        assert manager.database is out  # manager rebound
        assert set(manager.get("V").rows) == set(out["R"].rows)

    @pytest.mark.parametrize(
        "bad_call",
        [
            lambda db, v: insert_fact(db, "R", (1,), views=v),
            lambda db, v: delete_fact(db, "R", (1, 2, 3), views=v),
            lambda db, v: modify_fact(db, "R", (0, 1), (1,), views=v),
            lambda db, v: modify_fact(db, "X", (0, 1), (1, 1), views=v),
        ],
    )
    def test_failed_update_leaves_store_and_views_untouched(self, bad_call):
        db, manager = self._setup()
        memo = db["R"].stats()
        before = set(manager.get("V").rows)
        with pytest.raises((ValueError, KeyError)):
            bad_call(db, manager)
        assert db["R"].stats() is memo  # statistics intact
        assert manager.database is db
        assert set(manager.get("V").rows) == before

    def test_maybe_encoded_databases_ride_the_same_contract(self):
        # maybe.py itself has no mutation entry points (encoding builds a
        # fresh c-table database); the audit outcome is that its output
        # flows through the same updates/views contract unchanged.
        db = maybe_database(
            [maybe_table("R", 1, sure=[(0,)], maybe=[(1,), (2,)])]
        )
        manager = ViewManager(db)
        expr = Scan("R", 1)
        manager.define("V", expr)
        out = insert_fact(db, "R", (5,), views=manager)
        assert_view_matches(manager, "V", expr, out)
        out2 = delete_fact(out, "R", (1,), views=manager)
        assert manager.database is out2
        assert_view_matches(manager, "V", expr, out2)


# ---------------------------------------------------------------------------
# ISSUE satellite: pinned variables hash in join_ct
# ---------------------------------------------------------------------------


class TestPinnedJoinPartition:
    def test_locally_pinned_key_is_bucketed(self):
        table = c_table(
            "R", 2, [((Variable("p"), 10), "p = 3"), ((4, 11),), (("?w", 12),)]
        )
        partition = JoinPartition(table, [0])
        assert len(partition.alive) == 3
        assert [row.terms[1] for row in partition.wild] == [(Constant(12))]
        assert {key for key in partition.buckets} == {(Constant(3),), (Constant(4),)}

    def test_globally_pinned_key_is_bucketed(self):
        table = c_table("R", 2, [(("?g", 10),)], "g = 5")
        partition = JoinPartition(table, [0])
        assert partition.wild == []
        assert (Constant(5),) in partition.buckets

    def test_domain_pins_stay_wild(self):
        table = c_table("R", 1, [(("?d",), "d = 1 | d = 2")])
        partition = JoinPartition(table, [0])
        assert partition.buckets == {} and len(partition.wild) == 1

    def test_pinned_join_is_rep_equivalent_and_smaller(self):
        left = c_table("L", 2, [((Variable("p"), 0), "p = 1"), ((2, 1),)])
        right = codd_table("R", 2, [(1, 8), (2, 9), (3, 10)])
        hashed = join_ct(left, right, [(0, 0)], name="J")
        naive = evaluate_ct(
            Select(Product(Scan("L", 2), Scan("R", 2)), [ColEq(0, 2)]),
            TableDatabase([left, right]),
            name="J",
        )
        # The hash path drops the contradictory p=1 & p=2 / p=3 pairs.
        assert len(hashed) < len(naive)
        extra = sorted(
            left.constants() | right.constants(), key=Constant.sort_key
        )
        assert _rep(hashed, extra) == _rep(naive, extra)


class TestPersistentJoinPartition:
    """A maintained ``JoinPartition``: built once, synced with
    add/remove, handed back to ``join_ct``."""

    def sample_table(self):
        return c_table(
            "R", 2, [((Variable("p"), 10), "p = 3"), ((4, 11),), (("?w", 12),)]
        )

    def test_matches_one_shot_partition(self):
        # The classification join_ct partitions with, row by row.
        table = self.sample_table()
        pinned, ground, wild = table.rows
        partition = JoinPartition(table, [0])
        assert partition.buckets == {(Constant(3),): [pinned], (Constant(4),): [ground]}
        assert partition.wild == [wild]
        assert partition.alive == [pinned, ground, wild]

    def test_add_and_remove_keep_classification_in_sync(self):
        table = self.sample_table()
        partition = JoinPartition(table, [0])
        extra = (Row((Constant(4), Constant(13))), Row((Variable("q"), Constant(14))))
        partition.add_rows(extra)
        assert len(partition.alive) == 5
        assert len(partition.buckets[(Constant(4),)]) == 2
        assert len(partition.wild) == 2
        partition.remove_rows(extra)
        reference = JoinPartition(table, [0])
        assert partition.buckets.keys() == reference.buckets.keys()
        assert partition.wild == reference.wild
        assert sorted(partition.alive, key=repr) == sorted(
            reference.alive, key=repr
        )

    def test_removing_the_last_bucket_row_drops_the_bucket(self):
        table = codd_table("R", 2, [(1, 8), (2, 9)])
        partition = JoinPartition(table, [0])
        partition.remove_rows([Row((Constant(1), Constant(8)))])
        assert (Constant(1),) not in partition.buckets
        assert len(partition.alive) == 1

    def test_join_with_supplied_partition_matches_plain_join(self):
        left = self.sample_table()
        right = codd_table("S", 2, [(3, 0), (4, 1), (5, 2)])
        plain = join_ct(left, right, [(0, 0)], name="J")
        partitioned = join_ct(
            left, right, [(0, 0)], name="J",
            left_partition=JoinPartition(left, [0]),
        )
        assert set(partitioned.rows) == set(plain.rows)
        both = join_ct(
            left, right, [(0, 0)], name="J",
            left_partition=JoinPartition(left, [0]),
            right_partition=JoinPartition(right, [0]),
        )
        assert set(both.rows) == set(plain.rows)

    def test_mismatched_partition_columns_are_rejected(self):
        left = self.sample_table()
        right = codd_table("S", 2, [(3, 0)])
        with pytest.raises(ValueError, match="columns"):
            join_ct(
                left, right, [(0, 0)], name="J",
                left_partition=JoinPartition(left, [1]),
            )

    def test_manager_reuses_partitions_across_inserts(self):
        """A stream of fact-side inserts against a star view: the big
        dimension-side partitions are built once and reused, not rebuilt
        per update."""
        db, expr = _star(seed=11, num_dims=2, dim_rows=6, fact_rows=24)
        manager = ViewManager(db)
        manager.define("V", expr)
        assert manager.counters["partition_builds"] == 0
        fresh = [(i % 6, (i + 1) % 6) for i in range(6)]
        for fact in fresh:
            db = insert_fact(db, "F", fact, views=manager)
            assert set(manager.get("V").rows) == set(
                evaluate_ct(expr, db, name="V").rows
            )
        builds = manager.counters["partition_builds"]
        reuses = manager.counters["partition_reuses"]
        assert builds > 0
        assert reuses > builds, (builds, reuses)
        # More inserts: reuse keeps growing, builds stay flat.
        for fact in [(i % 6, (i + 2) % 6) for i in range(6)]:
            db = insert_fact(db, "F", fact, views=manager)
        assert manager.counters["partition_builds"] == builds
        assert manager.counters["partition_reuses"] > reuses

    def test_add_rows_returns_the_added_rows_partition(self):
        table = c_table("R", 2, [((4, 11),)], "g = 3")
        partition = JoinPartition(table, [0])
        extra = (
            Row((Constant(4), Constant(13))),
            Row((Variable("g"), Constant(14))),  # pinned by the table's global
            Row((Variable("q"), Constant(15))),
        )
        added = partition.add_rows(extra)
        assert added.columns == partition.columns
        assert added.alive == list(extra)
        assert added.buckets == {(Constant(4),): [extra[0]], (Constant(3),): [extra[1]]}
        assert added.wild == [extra[2]]
        assert partition.buckets[(Constant(4),)] == [table.rows[0], extra[0]]
        reference = JoinPartition(table.extended(extra), [0])
        assert (partition.buckets, partition.wild, partition.alive) == (
            reference.buckets, reference.wild, reference.alive
        )

    def test_each_delta_row_is_classified_once(self, monkeypatch):
        """Once a join keeps a partition of a child, a delta row of that
        child is classified into it once: the delta join takes the
        partition of the added rows instead of classifying them again."""
        db, expr = _star(seed=11, num_dims=2, dim_rows=6, fact_rows=24)
        manager = ViewManager(db)
        manager.define("V", expr)
        inserts = [("D0", (7, 0)), ("D1", (7, 1)), ("F", (1, 2)), ("F", (2, 3))]
        for relation, fact in inserts:  # every join builds its partitions
            db = insert_fact(db, relation, fact, views=manager)
        classified = Counter()
        original = JoinPartition._classify

        def counting(partition, row):
            classified[partition.columns, row] += 1
            return original(partition, row)

        monkeypatch.setattr(JoinPartition, "_classify", counting)
        for relation, fact in [("F", (3, 4)), ("D0", (8, 0)), ("F", (4, 5)), ("D1", (8, 1))]:
            db = insert_fact(db, relation, fact, views=manager)
        assert_view_matches(manager, "V", expr, db)
        assert classified and max(classified.values()) == 1

    def test_published_partition_memos_are_never_mutated(self):
        """join_ct memoises a partition on each table it reads; view
        maintenance keeps its own partitions and never touches those."""
        db, expr = _star(seed=13, num_dims=2, dim_rows=5, fact_rows=20)
        manager = ViewManager(db)
        manager.define("V", expr)
        base = list(db)

        def shape(table):
            return {
                columns: (
                    {key: list(rows) for key, rows in part.buckets.items()},
                    list(part.wild),
                    list(part.alive),
                )
                for columns, part in getattr(table, "_partitions", {}).items()
            }

        before = [shape(table) for table in base]
        assert any(before), "define should memoise partitions on the base tables"
        facts = [tuple(t.value for t in row.terms) for row in db["F"].rows]
        for fact in facts[:3]:
            db = delete_fact(db, "F", fact, views=manager)
        for relation, fact in [("F", (0, 1)), ("D0", (9, 9)), ("F", (2, 9)), ("D1", (9, 8))]:
            db = insert_fact(db, relation, fact, views=manager)
        db = delete_fact(db, "D0", (9, 9), views=manager)
        assert_view_matches(manager, "V", expr, db)
        assert [shape(table) for table in base] == before

    def test_manager_partitions_survive_deletes(self):
        db, expr = _star(seed=13, num_dims=2, dim_rows=5, fact_rows=20)
        manager = ViewManager(db)
        manager.define("V", expr)
        facts = [tuple(t.value for t in row.terms) for row in db["F"].rows]
        for fact in facts[:4]:
            db = delete_fact(db, "F", fact, views=manager)
            assert set(manager.get("V").rows) == set(
                evaluate_ct(expr, db, name="V").rows
            )
        for fact in [(i % 5, (i + 3) % 5) for i in range(3)]:
            db = insert_fact(db, "F", fact, views=manager)
            assert set(manager.get("V").rows) == set(
                evaluate_ct(expr, db, name="V").rows
            )


# ---------------------------------------------------------------------------
# ISSUE satellite: the update_stream generator
# ---------------------------------------------------------------------------


class TestUpdateStream:
    def test_reproducible(self):
        db, _ = _star()
        first = update_stream(random.Random(5), db, 30)
        second = update_stream(random.Random(5), db, 30)
        assert first == second

    def test_shapes_and_weights(self):
        db, _ = _star()
        ops = update_stream(
            random.Random(5), db, 200, insert_weight=1, delete_weight=1, modify_weight=0
        )
        kinds = {op[0] for op in ops}
        assert kinds <= {"insert", "delete"}
        inserts = sum(1 for op in ops if op[0] == "insert")
        assert 60 <= inserts <= 140  # ~half, with slack for the fallback

    def test_relations_filter_and_applicability(self):
        db, _ = _star()
        ops = update_stream(random.Random(6), db, 25, relations=["F", "D0"])
        assert {op[1] for op in ops} <= {"F", "D0"}
        for op in ops:
            db = apply_update(db, op)  # arities all line up

    def test_deletes_mostly_hit_existing_facts(self):
        db, _ = _star(fact_rows=40)
        ops = update_stream(
            random.Random(7), db, 120, insert_weight=0.2, delete_weight=0.8,
            modify_weight=0.0,
        )
        current = db
        hits = misses = 0
        for op in ops:
            if op[0] == "delete":
                before = current[op[1]].rows
                current = apply_update(current, op)
                if current[op[1]].rows != before:
                    hits += 1
                else:
                    misses += 1
            else:
                current = apply_update(current, op)
        assert hits > misses

    def test_bad_arguments(self):
        db, _ = _star()
        with pytest.raises(ValueError, match="at least one relation"):
            update_stream(random.Random(0), db, 5, relations=[])
        with pytest.raises(ValueError, match="positive weight"):
            update_stream(
                random.Random(0), db, 5,
                insert_weight=0, delete_weight=0, modify_weight=0,
            )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestPlanFingerprint:
    def test_predicate_order_is_canonical(self):
        a = Select(Scan("R", 2), [ColEq(0, 1), ColEqConst(0, 3)])
        b = Select(Scan("R", 2), [ColEqConst(0, 3), ColEq(0, 1)])
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_distinct_expressions_differ(self):
        assert plan_fingerprint(Scan("R", 2)) != plan_fingerprint(Scan("R", 3))
        assert plan_fingerprint(
            Union(Scan("R", 1), Scan("S", 1))
        ) != plan_fingerprint(Union(Scan("S", 1), Scan("R", 1)))
        assert plan_fingerprint(
            Select(Scan("R", 2), [ColEqConst(0, 1)])
        ) != plan_fingerprint(Select(Scan("R", 2), [ColEqConst(0, "1")]))


# ---------------------------------------------------------------------------
# The CLI surface
# ---------------------------------------------------------------------------


@pytest.fixture
def view_db_file(tmp_path):
    from repro.io import dumps_database

    db = TableDatabase(
        [
            codd_table("R", 2, [(0, 1), (0, 2), (1, 3)]),
            codd_table("S", 2, [(0, 5), (1, 6)]),
        ]
    )
    path = tmp_path / "db.pwt"
    path.write_text(dumps_database(db))
    return str(path)


QUERY = "V(Y) :- R(X, Y), S(X, Z)."


class TestViewCli:
    def _main(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_define_list_eval_drop_roundtrip(self, view_db_file, capsys):
        assert self._main("view", "define", view_db_file, QUERY) == 0
        assert "defined view V/1" in capsys.readouterr().out
        assert self._main("view", "list", view_db_file) == 0
        assert "fresh" in capsys.readouterr().out
        assert self._main("eval", view_db_file, QUERY, "--use-views", "--explain") == 0
        out = capsys.readouterr().out
        assert "answered by materialized view 'V'" in out
        assert "V/1" in out
        assert self._main("view", "drop", view_db_file, "V") == 0
        capsys.readouterr()
        assert self._main("eval", view_db_file, QUERY, "--use-views", "--explain") == 0
        assert "no views registered" in capsys.readouterr().out

    def test_stale_view_is_not_used_until_refreshed(self, view_db_file, capsys):
        assert self._main("view", "define", view_db_file, QUERY) == 0
        with open(view_db_file, "a", encoding="utf-8") as fp:
            fp.write("9 9\n")  # appended to the last table: S
        capsys.readouterr()
        assert self._main("eval", view_db_file, QUERY, "--use-views", "--explain") == 0
        assert "stale" in capsys.readouterr().out
        assert self._main("view", "list", view_db_file) == 0
        assert "stale" in capsys.readouterr().out
        assert self._main("view", "refresh", view_db_file) == 0
        assert "refreshed view V" in capsys.readouterr().out
        assert self._main("eval", view_db_file, QUERY, "--use-views", "--explain") == 0
        assert "answered by materialized view" in capsys.readouterr().out

    def test_view_answer_matches_direct_evaluation(self, view_db_file, capsys):
        assert self._main("eval", view_db_file, QUERY) == 0
        direct = capsys.readouterr().out.splitlines()[-3:]
        assert self._main("view", "define", view_db_file, QUERY) == 0
        capsys.readouterr()
        assert self._main("eval", view_db_file, QUERY, "--use-views") == 0
        via_view = capsys.readouterr().out.splitlines()[-3:]
        assert sorted(direct) == sorted(via_view)

    def test_duplicate_define_and_missing_drop(self, view_db_file, capsys):
        assert self._main("view", "define", view_db_file, QUERY) == 0
        assert self._main("view", "define", view_db_file, QUERY) == 2
        assert "already defined" in capsys.readouterr().err
        assert self._main("view", "drop", view_db_file, "W") == 1

    def test_bad_queries_are_clean_cli_errors(self, view_db_file, capsys):
        # Parse errors, unknown relations and arity mismatches must all
        # exit 2 with a `repro: view:` message, never a traceback.
        for query in (
            "V(X :- R(X, Y.",  # unparsable
            "V(X) :- Zed(X, Y).",  # unknown relation
            "V(X) :- R(X, Y, Z).",  # arity mismatch
        ):
            assert self._main("view", "define", view_db_file, query) == 2
            err = capsys.readouterr().err
            assert "repro: view:" in err

    def test_refresh_with_nothing_registered(self, view_db_file, capsys):
        assert self._main("view", "refresh", view_db_file) == 0
        assert "no views registered" in capsys.readouterr().out
        assert self._main("view", "list", view_db_file) == 0
        assert "no views registered" in capsys.readouterr().out

    def test_refresh_unknown_name(self, view_db_file, capsys):
        assert self._main("view", "define", view_db_file, QUERY) == 0
        assert self._main("view", "refresh", view_db_file, "W") == 1


#: Sidecars that parse as JSON but are not view registries.
WRONG_SHAPES = {
    "top-level-list": [],
    "entry-not-object": {"kind": "view-registry", "views": {"V": "oops"}},
    "query-not-string": {"kind": "view-registry", "views": {"V": {"query": 5}}},
}


class TestWrongShapeSidecar:
    """A sidecar of the wrong shape ends in the defined registry error on
    every reader: exit 2 naming the sidecar on the CLI, ``SessionError``
    when a server opens the database."""

    @staticmethod
    def _write(view_db_file, shape):
        with open(view_db_file + ".views.json", "w", encoding="utf-8") as fp:
            json.dump(WRONG_SHAPES[shape], fp)

    @pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
    def test_view_list(self, view_db_file, shape, capsys):
        from repro.cli import main

        self._write(view_db_file, shape)
        assert main(["view", "list", view_db_file]) == 2
        assert f"{view_db_file}.views.json" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
    def test_eval_use_views(self, view_db_file, shape, capsys):
        from repro.cli import main

        self._write(view_db_file, shape)
        assert main(["eval", view_db_file, QUERY, "--use-views"]) == 2
        assert f"{view_db_file}.views.json" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
    def test_open_file(self, view_db_file, shape):
        from repro.server import SessionError, SessionRegistry

        self._write(view_db_file, shape)
        with pytest.raises(SessionError, match="views.json"):
            SessionRegistry().open_file("g", view_db_file)

    def test_mangled_table_is_skipped_not_fatal(self, view_db_file, capsys):
        from repro.cli import main

        assert main(["view", "define", view_db_file, QUERY]) == 0
        path = view_db_file + ".views.json"
        with open(path, encoding="utf-8") as fp:
            registry = json.load(fp)
        registry["views"]["V"]["table"] = {"kind": "ctable", "rows": 5}
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(registry, fp)
        capsys.readouterr()
        assert main(["view", "list", view_db_file]) == 0
        assert "V/?: ? rows" in capsys.readouterr().out
        assert main(["eval", view_db_file, QUERY, "--use-views", "--explain"]) == 0
        assert "no registered view matches" in capsys.readouterr().out
