"""Recursive (Datalog) materialized views under update streams.

The contract: a recursive view registered through
:meth:`~repro.views.ViewManager.define_datalog` and maintained through
the update notifications must ``rep``-equal a full fixpoint recomputed
from scratch over the updated database after *every* operation of a
mixed insert/delete/modify stream.  Inserts must take the incremental
path (re-fixpoint from the inserted delta over the standing
:class:`~repro.queries.fixpoint.FixpointEvaluation` — asserted via the
``refixpoint_rounds`` / ``refixpoint_recomputes`` counters), while
deletes and modifies fall back to a full re-fixpoint (no sound removal
delta exists for a fixpoint: a removed base row invalidates every
round that consumed it).

Also here: the ``define_datalog`` / ``define_text`` manager surface,
view matching by Datalog fingerprint, sidecar persistence round-trips
for recursive views, and the CLI + HTTP server surfaces
(``repro eval --datalog``, ``repro view define`` with recursive text,
``POST /dbs/{db}/query`` with ``"datalog": true``).
"""

from __future__ import annotations

import random

import pytest

from repro.core.tables import CTable, Row, TableDatabase, codd_table
from repro.core.terms import Constant, Variable
from repro.core.worlds import enumerate_worlds, strong_canonicalize
from repro.extensions import apply_update
from repro.queries.fixpoint import CTFixpoint, datalog_fingerprint
from repro.queries.prepared import match_view, prepare
from repro.relational.parser import parse_datalog
from repro.views import ViewError, ViewManager
from repro.views.persist import manager_from_registry, manager_to_registry
from repro.workloads import (
    layered_uncertain_graph,
    transitive_closure_program,
    uncertain_graph_database,
    update_stream,
)

TC = transitive_closure_program()


def _world_set(db, extra):
    worlds = enumerate_worlds(db, extra_constants=extra)
    return {strong_canonicalize(w, extra) for w in worlds}


def assert_view_matches(manager, name, text, db):
    """The maintained recursive view rep-equals a from-scratch fixpoint."""
    maintained = manager.get(name)
    program = CTFixpoint(parse_datalog(text), name=name)
    reference = program.run(db)[program.outputs[0]]
    extra = sorted(
        db.constants() | maintained.constants() | reference.constants(),
        key=Constant.sort_key,
    )
    left = _world_set(TableDatabase.single(maintained), extra)
    right = _world_set(TableDatabase.single(reference), extra)
    assert left == right


# ---------------------------------------------------------------------------
# The randomized maintenance harness
# ---------------------------------------------------------------------------


class TestMaintainedRecursiveViews:
    @pytest.mark.parametrize("seed", range(20))
    def test_mixed_stream_matches_recompute(self, seed):
        rng = random.Random(0x2EC + seed)
        db = uncertain_graph_database(
            rng,
            num_nodes=4,
            num_edges=rng.randint(2, 5),
            num_variables=2,
            var_probability=0.2,
            cond_probability=0.3,
        )
        manager = ViewManager(db)
        manager.define_datalog("TC", TC)
        assert_view_matches(manager, "TC", TC, db)
        for op in update_stream(rng, db, 4, fresh_probability=0.1):
            db = apply_update(db, op, views=manager)
            assert_view_matches(manager, "TC", TC, db)

    def test_insert_only_stream_stays_incremental(self):
        rng = random.Random(0x1C5)
        db = TableDatabase(
            [codd_table("edge", 2, [(0, 1), (1, 2), (2, 3)])]
        )
        manager = ViewManager(db)
        manager.define_datalog("TC", TC)
        ops = update_stream(
            rng, db, 8, insert_weight=1, delete_weight=0, modify_weight=0
        )
        for op in ops:
            db = apply_update(db, op, views=manager)
            assert_view_matches(manager, "TC", TC, db)
        assert manager.counters["refixpoint_recomputes"] == 0
        assert manager.counters["refixpoint_rounds"] > 0

    def test_delete_falls_back_to_recompute(self):
        db = TableDatabase([codd_table("edge", 2, [(0, 1), (1, 2)])])
        manager = ViewManager(db)
        manager.define_datalog("TC", TC)
        db = apply_update(db, ("delete", "edge", (Constant(1), Constant(2))), views=manager)
        assert manager.counters["refixpoint_recomputes"] == 1
        assert_view_matches(manager, "TC", TC, db)
        assert {r.terms for r in manager.get("TC").rows} == {(Constant(0), Constant(1))}

    def test_modify_recomputes_then_reinserts(self):
        db = TableDatabase([codd_table("edge", 2, [(0, 1), (1, 2)])])
        manager = ViewManager(db)
        manager.define_datalog("TC", TC)
        db = apply_update(
            db,
            ("modify", "edge", (Constant(1), Constant(2)), (Constant(1), Constant(0))),
            views=manager,
        )
        assert manager.counters["refixpoint_recomputes"] >= 1
        assert_view_matches(manager, "TC", TC, db)

    def test_insert_joining_conditional_edge(self):
        # The inserted ground edge chains through a condition-bearing
        # one: the derived closure rows must inherit the condition.
        v = Variable("v")
        db = TableDatabase(
            [
                CTable(
                    "edge",
                    2,
                    [Row((Constant(1), Constant(2)), conditions([v]))],
                )
            ]
        )
        manager = ViewManager(db)
        manager.define_datalog("TC", TC)
        db = apply_update(db, ("insert", "edge", (Constant(0), Constant(1))), views=manager)
        assert_view_matches(manager, "TC", TC, db)
        long_rows = [
            r
            for r in manager.get("TC").rows
            if r.terms == (Constant(0), Constant(2))
        ]
        assert long_rows and all(r.has_local_condition() for r in long_rows)


class TestStandingEvaluation:
    """A standing view's evaluation across incremental inserts."""

    LAYERS, WIDTH = 4, 3

    def _standing(self):
        db = layered_uncertain_graph(random.Random(3), layers=self.LAYERS, width=self.WIDTH)
        present = {tuple(t.value for t in row.terms) for row in db["edge"].rows}
        fresh = [
            (layer * self.WIDTH + s, (layer + 1) * self.WIDTH + d)
            for layer in range(self.LAYERS - 1)
            for s in range(self.WIDTH)
            for d in range(self.WIDTH)
        ]
        fresh = [edge for edge in fresh if edge not in present][:6]
        manager = ViewManager(db)
        manager.define_datalog("TC", TC)
        return db, manager, [tuple(Constant(v) for v in edge) for edge in fresh]

    def test_round_stats_record_only_the_initial_run(self):
        db, manager, edges = self._standing()
        evaluation = manager._views["TC"].evaluation
        defined = len(evaluation.round_stats)
        assert defined == evaluation.rounds > 0
        for edge in edges:
            db = apply_update(db, ("insert", "edge", edge), views=manager)
        assert manager._views["TC"].evaluation is evaluation
        assert manager.counters["refixpoint_rounds"] > 0
        assert len(evaluation.round_stats) == defined
        # ``rounds`` stays cumulative.
        assert evaluation.rounds == defined + manager.counters["refixpoint_rounds"]
        assert_view_matches(manager, "TC", TC, db)

    def test_join_partitions_survive_inserts(self):
        db, manager, edges = self._standing()
        evaluation = manager._views["TC"].evaluation
        counters = evaluation.cache.counters
        builds = counters["partition_builds"]
        assert builds > 0
        for edge in edges:
            reuses = counters["partition_reuses"]
            db = apply_update(db, ("insert", "edge", edge), views=manager)
            assert counters["partition_builds"] == builds
            assert counters["partition_reuses"] > reuses
        assert manager.counters["refixpoint_recomputes"] == 0
        assert_view_matches(manager, "TC", TC, db)


def conditions(variables):
    from repro.core.conditions import Conjunction, Eq

    return Conjunction([Eq(variables[0], Constant(7))])


# ---------------------------------------------------------------------------
# Manager surface
# ---------------------------------------------------------------------------


class TestDefineSurface:
    def _db(self):
        return TableDatabase([codd_table("edge", 2, [(0, 1), (1, 2)])])

    def test_define_datalog_accepts_text_program_and_fixpoint(self):
        for form in (TC, parse_datalog(TC), CTFixpoint(parse_datalog(TC))):
            manager = ViewManager(self._db())
            table = manager.define_datalog("TC", form)
            assert table.name == "TC"
            assert len(table) == 3

    def test_output_must_be_idb(self):
        manager = ViewManager(self._db())
        with pytest.raises(ViewError, match="edge"):
            manager.define_datalog("TC", TC, output="edge")

    def test_text_is_recursive_dispatch(self):
        assert ViewManager.text_is_recursive(TC)
        assert not ViewManager.text_is_recursive("V(X) :- edge(X, Y).")
        manager = ViewManager(self._db())
        manager.define_text("TC", TC)
        manager.define_text("V", "V(X) :- edge(X, Y).")
        assert len(manager.get("TC")) == 3
        assert len(manager.get("V")) == 2

    def test_lookup_datalog_by_fingerprint(self):
        manager = ViewManager(self._db())
        manager.define_text("TC", TC)
        views = [(name, fp, table) for name, _q, fp, table in manager.materializations()]
        reordered = "TC(X,Z) :- TC(X,Y), edge(Y,Z). TC(X,Y) :- edge(X,Y)."
        name, table = match_view(prepare(reordered, datalog=True), views)
        assert name == "TC" and len(table) == 3
        assert match_view(prepare("P(X,Y) :- edge(X,Y).", datalog=True), views) is None

    def test_drop_and_refresh(self):
        manager = ViewManager(self._db())
        manager.define_text("TC", TC)
        manager.refresh("TC")
        assert manager.counters["refixpoint_recomputes"] == 1
        manager.drop("TC")
        with pytest.raises(ViewError):
            manager.get("TC")

    def test_materializations_carry_datalog_fingerprint(self):
        manager = ViewManager(self._db())
        manager.define_text("TC", TC)
        ((name, query_text, fingerprint, table),) = manager.materializations()
        assert name == "TC" and query_text == TC
        assert fingerprint == datalog_fingerprint(parse_datalog(TC))
        assert len(table) == 3

    def test_persist_roundtrip(self):
        db = self._db()
        manager = ViewManager(db)
        manager.define_text("TC", TC)
        registry = manager_to_registry(manager, digest="d0")
        rebuilt, stale = manager_from_registry(registry, db, digest="d0")
        assert not stale
        assert {r.terms for r in rebuilt.get("TC").rows} == {
            r.terms for r in manager.get("TC").rows
        }


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


@pytest.fixture
def graph_db_file(tmp_path):
    from repro.io import dumps_database

    db = TableDatabase([codd_table("edge", 2, [(1, 2), (2, 3), (3, 4)])])
    path = tmp_path / "graph.pwt"
    path.write_text(dumps_database(db))
    return str(path)


class TestDatalogCli:
    def _main(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_eval_datalog(self, graph_db_file, capsys):
        assert self._main("eval", graph_db_file, TC, "--datalog", "--explain") == 0
        out = capsys.readouterr().out
        assert "TC/2" in out and "6 rows" in out
        assert "round 1" in out

    def test_eval_datalog_naive_agrees(self, graph_db_file, capsys):
        assert self._main("eval", graph_db_file, TC, "--datalog") == 0
        semi = sorted(capsys.readouterr().out.splitlines())
        assert self._main("eval", graph_db_file, TC, "--datalog", "--naive") == 0
        naive = sorted(capsys.readouterr().out.splitlines())
        assert semi == naive

    def test_eval_rejects_recursion_without_flag(self, graph_db_file, capsys):
        assert self._main("eval", graph_db_file, TC) == 2
        assert "recursi" in capsys.readouterr().err

    def test_recursive_view_roundtrip(self, graph_db_file, capsys):
        assert self._main("view", "define", graph_db_file, TC) == 0
        assert "defined view TC/2" in capsys.readouterr().out
        assert self._main("view", "list", graph_db_file) == 0
        assert "fresh" in capsys.readouterr().out
        assert (
            self._main(
                "eval", graph_db_file, TC, "--datalog", "--use-views", "--explain"
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "answered by materialized view 'TC'" in out
        assert self._main("view", "drop", graph_db_file, "TC") == 0


# ---------------------------------------------------------------------------
# Server surface
# ---------------------------------------------------------------------------


class TestDatalogServer:
    @pytest.fixture
    def server(self):
        from repro.server.app import make_server, start_in_thread

        server = make_server(workers=0)
        start_in_thread(server)
        yield server
        server.server_close()

    @pytest.fixture
    def client(self, server):
        from repro.io.jsonio import database_to_json
        from repro.server.client import ServerClient

        host, port = server.server_address
        client = ServerClient(f"http://{host}:{port}")
        db = TableDatabase([codd_table("edge", 2, [(1, 2), (2, 3), (3, 4)])])
        client.create_database("g", database_to_json(db))
        return client

    def test_query_fixpoint_and_cache(self, client):
        first = client.query("g", TC, datalog=True, explain=True)
        assert first["rows"] == 6 and first["served_by"] == "inline"
        assert any(line.startswith("round 1") for line in first["explain"])
        assert client.query("g", TC, datalog=True, naive=True)["rows"] == 6
        client.query("g", TC, datalog=True)
        assert client.query("g", TC, datalog=True)["served_by"] == "cache"

    def test_recursive_view_and_incremental_update(self, client):
        view = client.define_view("g", TC)
        assert view["name"] == "TC" and view["rows"] == 6
        answered = client.query("g", TC, datalog=True, use_views=True)
        assert answered["served_by"] == "view"
        assert answered["answered_by_view"] == "TC"
        client.update("g", ["insert", "edge", [4, 1]])
        after = client.query("g", TC, datalog=True, use_views=True)
        assert after["version"] == 1
        assert after["rows"] == 16  # the 4-cycle closes completely
        naive = client.query("g", TC, datalog=True, naive=True)
        assert naive["rows"] == after["rows"]

    def test_bad_datalog_is_a_client_error(self, client):
        from repro.server.client import ServerError

        with pytest.raises(ServerError, match="unknown relation"):
            client.query("g", "TC(X,Y) :- nosuch(X,Y).", datalog=True)
