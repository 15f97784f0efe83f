"""Tests for repro.server: sessions, the registry, the HTTP API, the client.

The concurrency-specific tests (stress, lock discipline, snapshot
isolation under contention) live in ``tests/test_concurrency.py``; this
file covers the serving layer's *functional* contract — versioned
snapshots, update semantics, view handling, sidecar round trips and the
HTTP surface — mostly single-threaded so failures localize well.
"""

from __future__ import annotations

import json
import re
import threading

import pytest

from repro.core.tables import TableDatabase, c_table, codd_table
from repro.core.terms import Constant
from repro.io.files import DatabaseFileError, load_database_file
from repro.io.jsonio import database_to_json, table_from_json
from repro.io.text import dumps_database
from repro.server import (
    DatabaseSession,
    ServerClient,
    ServerError,
    SessionError,
    SessionRegistry,
    make_server,
    start_in_thread,
)


def graph_db(*edges):
    return TableDatabase.single(codd_table("R", 2, list(edges)))


def row_values(table):
    """The ground rows of a table as a set of value tuples."""
    return {tuple(t.value for t in row.terms) for row in table.rows}


PATH_QUERY = "Q(X, Z) :- R(X, Y), R(Y, Z)."


# ---------------------------------------------------------------------------
# DatabaseSession
# ---------------------------------------------------------------------------


class TestDatabaseSession:
    def test_query_answers_at_version_zero(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        result = session.query(PATH_QUERY)
        assert result.version == 0
        assert row_values(result.table) == {("a", "c")}
        assert result.answered_by_view is None

    def test_apply_bumps_version_and_new_queries_see_it(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        version = session.apply([("insert", "R", ("c", "d"))])
        assert version == 1
        result = session.query(PATH_QUERY)
        assert result.version == 1
        assert row_values(result.table) == {("a", "c"), ("b", "d")}

    def test_old_snapshot_is_pinned_across_updates(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        old = session.snapshot()
        session.apply([("insert", "R", ("c", "d"))])
        # The old snapshot still holds the version-0 database unchanged.
        assert old.version == 0
        assert row_values(old.db["R"]) == {("a", "b"), ("b", "c")}
        assert session.snapshot().version == 1

    def test_batch_applies_one_version_per_op(self):
        session = DatabaseSession("g", graph_db(("a", "b")))
        version = session.apply(
            [
                ("insert", "R", ("b", "c")),
                ("insert", "R", ("c", "d")),
                ("delete", "R", ("a", "b")),
            ]
        )
        assert version == 3
        assert row_values(session.snapshot().db["R"]) == {("b", "c"), ("c", "d")}

    def test_modify_op(self):
        session = DatabaseSession("g", graph_db(("a", "b")))
        session.apply([("modify", "R", ("a", "b"), ("a", "z"))])
        assert row_values(session.snapshot().db["R"]) == {("a", "z")}

    def test_bad_op_shapes_are_rejected_before_any_state_change(self):
        session = DatabaseSession("g", graph_db(("a", "b")))
        for bad in (
            ("upsert", "R", ("a", "b")),          # unknown kind
            ("insert", "R"),                        # missing fact
            ("insert", "R", ("a", "b"), ("c",)),  # too many args
            ("modify", "R", ("a", "b")),           # modify wants old and new
            ("insert", "R", "ab"),                 # fact not a sequence
            "insert",                                # not an op at all
        ):
            with pytest.raises(SessionError):
                session.apply([("insert", "R", ("x", "y")), bad])
            # Validation happens before application: nothing was applied.
            assert session.version == 0

    def test_unknown_relation_rejects_the_whole_batch(self):
        # A batch is all or nothing: the failing op is found before the
        # valid ops ahead of it are applied.
        session = DatabaseSession("g", graph_db(("a", "b")))
        before = session.snapshot()
        with pytest.raises(SessionError, match="unknown relation"):
            session.apply(
                [("insert", "R", ("b", "c")), ("insert", "Nope", ("x", "y"))]
            )
        assert session.version == 0
        assert session.snapshot() is before
        assert row_values(session.snapshot().db["R"]) == {("a", "b")}

    @pytest.mark.parametrize("value", ["?x", [1]], ids=["variable", "nested-list"])
    @pytest.mark.parametrize("kind", ["insert", "delete", "modify-old", "modify-new"])
    def test_non_constant_fact_values_are_session_errors(self, kind, value):
        session = DatabaseSession("g", graph_db(("a", "b")))
        bad = (value, "b")
        op = {
            "insert": ("insert", "R", bad),
            "delete": ("delete", "R", bad),
            "modify-old": ("modify", "R", bad, ("c", "d")),
            "modify-new": ("modify", "R", ("a", "b"), bad),
        }[kind]
        with pytest.raises(SessionError, match="constant"):
            session.apply([("insert", "R", ("b", "c")), op])
        assert session.version == 0
        assert row_values(session.snapshot().db["R"]) == {("a", "b")}

    def test_batch_publishes_once(self):
        session = DatabaseSession("g", graph_db(("a", "b")))
        published = []
        publish = session._publish
        session._publish = lambda db, version: published.append(version) or publish(db, version)
        assert session.apply([("insert", "R", ("b", "c")), ("delete", "R", ("a", "b"))]) == 2
        assert published == [2]

    def test_no_op_updates_keep_the_database(self):
        # Deleting a fact no row unifies with, and re-inserting a fact held
        # as an unconditional row, change nothing: the version advances
        # (versions count ops) but the database, its statistics memos and
        # the recursive view's fixpoint stay as they are.
        session = DatabaseSession("g", graph_db(("a", "b")))
        session.define_view("T(X, Y) :- R(X, Y). T(X, Z) :- T(X, Y), R(Y, Z).")
        db = session.snapshot().db
        collections = session.store.counters()["table_collections"]
        for version, op in enumerate(
            [("delete", "R", ("x", "y")), ("insert", "R", ("a", "b"))], start=1
        ):
            assert session.apply([op]) == version
            assert session.snapshot().version == version
            assert session.snapshot().db is db
            assert session.store.counters()["table_collections"] == collections
            assert session.views.counters["refixpoint_recomputes"] == 0
        assert row_values(session.snapshot().view_table("T")) == {("a", "b")}

    def test_bad_query_raises_session_error(self):
        session = DatabaseSession("g", graph_db(("a", "b")))
        with pytest.raises(SessionError, match="query"):
            session.query("garbage((")
        with pytest.raises(SessionError, match="unknown relation"):
            session.query("Q(X) :- Missing(X, Y).")

    def test_naive_and_ordered_agree(self):
        session = DatabaseSession(
            "g", graph_db(("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"))
        )
        planned = session.query(PATH_QUERY)
        naive = session.query(PATH_QUERY, naive=True)
        assert row_values(planned.table) == row_values(naive.table)

    def test_explain_lines_present(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        result = session.query(PATH_QUERY, explain=True)
        assert isinstance(result.explain, list)

    def test_non_ground_database_is_served_too(self):
        table = c_table("R", 2, [(("a", "?x"),), ((("?x", "c")), "?x != b")])
        session = DatabaseSession("g", TableDatabase.single(table))
        result = session.query(PATH_QUERY)
        assert result.table.arity == 2

    def test_info_shape(self):
        session = DatabaseSession("g", graph_db(("a", "b")))
        info = session.info()
        assert info["name"] == "g"
        assert info["version"] == 0
        assert info["tables"] == [{"name": "R", "arity": 2, "rows": 1}]
        assert info["views"] == []
        # info() is JSON-ready by contract.
        json.dumps(info)


class TestSessionViews:
    def test_define_view_and_answer_from_it(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        table = session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")
        assert row_values(table) == {("a", "c")}
        result = session.query("W(X, Z) :- R(X, Y), R(Y, Z).", use_views=True)
        assert result.answered_by_view == "V"
        assert result.table.name == "W"
        assert row_values(result.table) == {("a", "c")}

    def test_views_are_maintained_through_updates(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")
        session.apply([("insert", "R", ("c", "d"))])
        result = session.query("W(X, Z) :- R(X, Y), R(Y, Z).", use_views=True)
        assert result.answered_by_view == "V"
        assert row_values(result.table) == {("a", "c"), ("b", "d")}

    def test_snapshot_view_cut_is_pinned(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")
        old = session.snapshot()
        session.apply([("insert", "R", ("c", "d"))])
        assert row_values(old.view_table("V")) == {("a", "c")}
        assert row_values(session.snapshot().view_table("V")) == {
            ("a", "c"),
            ("b", "d"),
        }

    def test_drop_view(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")
        session.drop_view("V")
        result = session.query("W(X, Z) :- R(X, Y), R(Y, Z).", use_views=True)
        assert result.answered_by_view is None
        with pytest.raises(SessionError):
            session.drop_view("V")

    def test_use_views_without_a_match_evaluates_from_base(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")
        result = session.query("W(X) :- R(X, Y).", use_views=True)
        assert result.answered_by_view is None
        assert row_values(result.table) == {("a",), ("b",)}

    @pytest.mark.parametrize(
        "query, datalog, rows",
        [
            ("V(X, Z) :- R(X, Y), R(Y, Z).", False, {("a", "c")}),
            ("V(X, Y) :- R(X, Y). V(X, Z) :- V(X, Y), R(Y, Z).", True,
             {("a", "b"), ("b", "c"), ("a", "c")}),
        ],
    )
    def test_naive_never_answers_from_a_view(self, query, datalog, rows):
        # The naive evaluator is the oracle: it evaluates even when a
        # matching view exists and use_views is set.
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        session.define_view(query)
        assert session.query(query, use_views=True, datalog=datalog).answered_by_view == "V"
        result = session.query(query, use_views=True, naive=True, datalog=datalog)
        assert result.answered_by_view is None
        assert row_values(result.table) == rows


class TestSessionPersistence:
    def make_file(self, tmp_path, text=True):
        db = graph_db(("a", "b"), ("b", "c"))
        path = tmp_path / ("db.pwt" if text else "db.json")
        if text:
            path.write_text(dumps_database(db), encoding="utf-8")
        else:
            path.write_text(json.dumps(database_to_json(db)), encoding="utf-8")
        return str(path)

    def test_persist_requires_file_backing(self):
        session = DatabaseSession("g", graph_db(("a", "b")))
        with pytest.raises(SessionError, match="not file-backed"):
            session.persist()

    @pytest.mark.parametrize("text", [True, False], ids=["text", "json"])
    def test_persist_round_trips_in_original_notation(self, tmp_path, text):
        registry = SessionRegistry()
        path = self.make_file(tmp_path, text=text)
        session, stale = registry.open_file("g", path)
        assert stale == ()
        session.apply([("insert", "R", ("c", "d"))])
        session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")
        assert session.persist() == path

        # A fresh process (registry) sees the served state, views fresh.
        other = SessionRegistry()
        reloaded, stale = other.open_file("g2", path)
        assert stale == ()
        assert row_values(reloaded.snapshot().db["R"]) == {
            ("a", "b"),
            ("b", "c"),
            ("c", "d"),
        }
        result = reloaded.query("W(X, Z) :- R(X, Y), R(Y, Z).", use_views=True)
        assert result.answered_by_view == "V"

    def test_stale_sidecar_refresh_policy_rematerializes(self, tmp_path):
        registry = SessionRegistry()
        path = self.make_file(tmp_path)
        session, _ = registry.open_file("g", path)
        session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")
        session.persist()
        # The database file changes behind the sidecar's back.
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('"c" "d"\n')
        reloaded, stale = SessionRegistry().open_file("g", path)
        assert stale == ("V",)
        # Re-materialized over the *current* file, not the stale table.
        assert row_values(reloaded.snapshot().view_table("V")) == {
            ("a", "c"),
            ("b", "d"),
        }


class TestSessionRegistry:
    def test_add_get_drop(self):
        registry = SessionRegistry()
        registry.add("a", graph_db(("a", "b")))
        assert "a" in registry
        assert registry.names() == ("a",)
        assert registry.get("a").name == "a"
        registry.drop("a")
        assert len(registry) == 0

    def test_duplicate_and_missing_names(self):
        registry = SessionRegistry()
        registry.add("a", graph_db(("a", "b")))
        with pytest.raises(SessionError, match="already exists"):
            registry.add("a", graph_db(("x", "y")))
        with pytest.raises(SessionError, match="no database named"):
            registry.get("b")
        with pytest.raises(SessionError, match="no database named"):
            registry.drop("b")

    def test_load_database_file_autodetects(self, tmp_path):
        db = graph_db(("a", "b"))
        text_path = tmp_path / "db.pwt"
        text_path.write_text(dumps_database(db), encoding="utf-8")
        json_path = tmp_path / "db.json"
        json_path.write_text(json.dumps(database_to_json(db)), encoding="utf-8")
        loaded, fmt = load_database_file(str(text_path))
        assert fmt == "text" and row_values(loaded["R"]) == {("a", "b")}
        loaded, fmt = load_database_file(str(json_path))
        assert fmt == "json" and row_values(loaded["R"]) == {("a", "b")}
        missing = str(tmp_path / "missing.pwt")
        with pytest.raises(DatabaseFileError, match="cannot read"):
            load_database_file(missing)
        # The server maps the loader's error to its own type.
        with pytest.raises(SessionError, match=f"cannot read {re.escape(missing)}: "):
            SessionRegistry().open_file("g", missing)


# ---------------------------------------------------------------------------
# The HTTP API and its client
# ---------------------------------------------------------------------------


@pytest.fixture
def server_client():
    server = make_server(port=0)
    start_in_thread(server)
    host, port = server.server_address[:2]
    client = ServerClient(f"http://{host}:{port}")
    try:
        yield server, client
    finally:
        server.shutdown()
        server.server_close()


def create_graph(client, name="g", *extra_edges):
    edges = [("a", "b"), ("b", "c"), *extra_edges]
    return client.create_database(name, database_to_json(graph_db(*edges)))


class TestHttpApi:
    def test_health_and_listing(self, server_client):
        _, client = server_client
        assert client.health() == {"ok": True, "databases": 0}
        create_graph(client)
        listing = client.databases()
        assert listing == [{"name": "g", "version": 0, "tables": 1, "views": 0}]

    def test_create_conflict_is_409(self, server_client):
        _, client = server_client
        create_graph(client)
        with pytest.raises(ServerError) as excinfo:
            create_graph(client)
        assert excinfo.value.status == 409

    def test_missing_database_is_404(self, server_client):
        _, client = server_client
        with pytest.raises(ServerError) as excinfo:
            client.query("nope", PATH_QUERY)
        assert excinfo.value.status == 404

    def test_query_update_roundtrip(self, server_client):
        _, client = server_client
        create_graph(client)
        response = client.query("g", PATH_QUERY)
        assert response["version"] == 0
        assert response["rows"] == 1
        assert row_values(table_from_json(response["table"])) == {("a", "c")}

        applied = client.update("g", ["insert", "R", ["c", "d"]])
        assert applied == {"version": 1, "applied": 1}
        response = client.query("g", PATH_QUERY)
        assert response["version"] == 1
        assert row_values(table_from_json(response["table"])) == {
            ("a", "c"),
            ("b", "d"),
        }

    def test_update_batch_and_bad_ops(self, server_client):
        _, client = server_client
        create_graph(client)
        applied = client.update(
            "g", ["insert", "R", ["c", "d"]], ["delete", "R", ["a", "b"]]
        )
        assert applied == {"version": 2, "applied": 2}
        with pytest.raises(ServerError) as excinfo:
            client.update("g", ["upsert", "R", ["a", "b"]])
        assert excinfo.value.status == 400

    def test_failing_batch_publishes_nothing(self, server_client):
        _, client = server_client
        create_graph(client)
        with pytest.raises(ServerError) as excinfo:
            client.update("g", ["insert", "R", ["c", "d"]], ["insert", "Nope", ["x", "y"]])
        assert excinfo.value.status == 400
        response = client.query("g", "Q(X, Y) :- R(X, Y).")
        assert response["version"] == 0
        assert row_values(table_from_json(response["table"])) == {("a", "b"), ("b", "c")}

    def test_recreated_database_does_not_answer_from_the_old_cache(self, server_client):
        _, client = server_client
        create_graph(client)
        query = "Q(X, Y) :- R(X, Y)."
        assert row_values(table_from_json(client.query("g", query)["table"])) == {
            ("a", "b"), ("b", "c"),
        }
        client.drop_database("g")
        client.create_database("g", database_to_json(graph_db(("x", "y"))))
        response = client.query("g", query)
        assert response["version"] == 0
        assert row_values(table_from_json(response["table"])) == {("x", "y")}

    @pytest.mark.parametrize("value", ["?x", [1]], ids=["variable", "nested-list"])
    def test_non_constant_fact_value_is_400(self, server_client, value):
        _, client = server_client
        create_graph(client)
        with pytest.raises(ServerError) as excinfo:
            client.update("g", ["insert", "R", [value, "b"]])
        assert excinfo.value.status == 400
        assert "constant" in str(excinfo.value)
        assert client.databases()[0]["version"] == 0

    def test_views_over_http(self, server_client):
        _, client = server_client
        create_graph(client)
        defined = client.define_view("g", "V(X, Z) :- R(X, Y), R(Y, Z).")
        assert defined["name"] == "V" and defined["rows"] == 1
        response = client.query("g", "W(X, Z) :- R(X, Y), R(Y, Z).", use_views=True)
        assert response["answered_by_view"] == "V"
        assert [v["name"] for v in client.views("g")] == ["V"]
        client.drop_view("g", "V")
        assert client.views("g") == []

    def test_naive_request_is_not_served_by_a_view(self, server_client):
        _, client = server_client
        create_graph(client)
        client.define_view("g", "V(X, Z) :- R(X, Y), R(Y, Z).")
        query = "W(X, Z) :- R(X, Y), R(Y, Z)."
        assert client.query("g", query, use_views=True)["served_by"] == "view"
        response = client.query("g", query, use_views=True, naive=True)
        assert response["served_by"] == "inline"
        assert "answered_by_view" not in response
        table = table_from_json(response["table"])
        assert row_values(table) == {("a", "c")}

    def test_explain_and_snapshot_download(self, server_client):
        _, client = server_client
        create_graph(client)
        response = client.query("g", PATH_QUERY, explain=True)
        assert "explain" in response
        snap = client.snapshot("g")
        assert snap["version"] == 0
        assert [t["name"] for t in snap["database"]["tables"]] == ["R"]

    @pytest.mark.parametrize(
        "flag,value", [("naive", "false"), ("explain", "no"), ("use_views", 1)]
    )
    def test_query_flag_must_be_a_json_boolean(self, server_client, flag, value):
        _, client = server_client
        create_graph(client)
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/dbs/g/query", {"query": PATH_QUERY, flag: value})
        assert excinfo.value.status == 400
        assert repr(flag) in str(excinfo.value)

    @pytest.mark.parametrize("field", ["ordering", "odering"])
    def test_unknown_query_field_is_400(self, server_client, field):
        _, client = server_client
        create_graph(client)
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/dbs/g/query", {"query": PATH_QUERY, field: "dp"})
        assert excinfo.value.status == 400
        assert repr(field) in str(excinfo.value)
        body = {"query": PATH_QUERY, "naive": False, "explain": True}
        assert "explain" in client._request("POST", "/dbs/g/query", body)

    def test_persist_without_file_backing_is_400(self, server_client):
        _, client = server_client
        create_graph(client)
        with pytest.raises(ServerError) as excinfo:
            client.persist("g")
        assert excinfo.value.status == 400

    def test_drop_database(self, server_client):
        _, client = server_client
        create_graph(client)
        assert client.drop_database("g") == {"dropped": "g"}
        assert client.health()["databases"] == 0

    def test_bad_route_and_bad_json(self, server_client):
        _, client = server_client
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServerError) as excinfo:
            client._request("PUT", "/health")
        assert excinfo.value.status in (405, 501)
        import urllib.request

        req = urllib.request.Request(
            client.base_url + "/dbs/g/query",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req)
        assert excinfo.value.code == 400

    def test_unreachable_server(self):
        client = ServerClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServerError, match="cannot reach"):
            client.health()

    def test_served_by_field(self, server_client):
        _, client = server_client
        create_graph(client)
        first = client.query("g", PATH_QUERY)
        assert first["served_by"] == "inline"
        second = client.query("g", PATH_QUERY)
        assert second["served_by"] == "cache"
        assert second["table"] == first["table"]

    def test_stats_endpoint(self, server_client):
        _, client = server_client
        create_graph(client)
        client.query("g", PATH_QUERY)
        client.query("g", PATH_QUERY)
        stats = client.stats()
        assert set(stats) == {
            "queries",
            "cache",
            "pool",
            "latency",
            "slow_queries",
            "databases",
        }
        assert stats["queries"]["queries"] == 2
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["pool"]["enabled"] is False
        assert stats["latency"]["count"] == 2
        assert stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"] >= 0.0

    def test_large_responses_are_chunked(self, server_client):
        from repro.server.app import CHUNK_THRESHOLD

        _, client = server_client
        rows = [(f"left-{i:06d}", f"right-{i:06d}") for i in range(3000)]
        client.create_database("big", database_to_json(graph_db(*rows)))
        import urllib.request

        with urllib.request.urlopen(client.base_url + "/dbs/big/database") as resp:
            assert resp.headers.get("Transfer-Encoding") == "chunked"
            assert resp.headers.get("Content-Length") is None
            body = resp.read()
        assert len(body) > CHUNK_THRESHOLD
        payload = json.loads(body)
        assert len(payload["database"]["tables"][0]["rows"]) == 3000
        # The client decodes the same framing transparently.
        snap = client.snapshot("big")
        assert len(snap["database"]["tables"][0]["rows"]) == 3000

    def test_body_fed_in_two_writes_is_read_whole(self, server_client):
        """Regression: a request body arriving in several packets used to
        be truncated by a single ``rfile.read(length)`` short read; the
        handler must loop until Content-Length bytes arrive."""
        import socket

        server, client = server_client
        create_graph(client)
        body = json.dumps({"query": PATH_QUERY}).encode("utf-8")
        split = len(body) // 2
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10.0) as sock:
            # TCP_NODELAY so each sendall goes out as its own segment
            # instead of coalescing in the kernel.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            header = (
                b"POST /dbs/g/query HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n"
                b"Connection: close\r\n\r\n" % len(body)
            )
            sock.sendall(header + body[:split])
            threading.Event().wait(0.2)  # let the server's read run dry
            sock.sendall(body[split:])
            response = b""
            while True:
                piece = sock.recv(65536)
                if not piece:
                    break
                response += piece
        status = response.split(b"\r\n", 1)[0]
        assert b"200" in status, response[:200]
        payload = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert row_values(table_from_json(payload["table"])) == {("a", "c")}

    def test_keep_alive_requests_are_not_delayed(self, server_client):
        """Regression: a reply's header and body go out in two sends, and
        with Nagle's algorithm on the body waited for the client's delayed
        ACK, about 40 ms per request on a reused connection."""
        import http.client
        import statistics
        import time

        server, _ = server_client
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        times = []
        try:
            for _ in range(10):
                start = time.perf_counter()
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                times.append((time.perf_counter() - start) * 1e3)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(times) < 20.0, times

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400_and_closes(self, server_client, length):
        """Regression: ``abc`` answered 500 and ``-5`` answered 400
        "malformed JSON body" with the body bytes left unread on the
        connection.  Both must answer 400 and close the connection."""
        import socket

        server, client = server_client
        host, port = server.server_address[:2]
        body = json.dumps({"database": database_to_json(graph_db(("a", "b")))}).encode()
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(
                b"POST /dbs/g HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %s\r\n\r\n" % length.encode() + body
            )
            response = b""
            while True:  # the server must close the connection: read to EOF
                piece = sock.recv(65536)
                if not piece:
                    break
                response += piece
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0].split()[1] == b"400", response[:200]
        assert json.loads(payload) == {"error": "bad Content-Length"}
        assert client.databases() == []

    def test_many_clients_share_one_server(self, server_client):
        # A light concurrency smoke (the real stress lives in
        # test_concurrency.py): parallel creates and queries all land.
        _, client = server_client
        create_graph(client)
        errors = []

        def reader():
            try:
                for _ in range(5):
                    response = client.query("g", PATH_QUERY)
                    assert response["rows"] >= 1
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestHttpWithWorkerPool:
    """The HTTP surface with the multi-process read pool enabled."""

    @pytest.fixture
    def pooled(self):
        server = make_server(port=0, workers=1)
        start_in_thread(server)
        host, port = server.server_address[:2]
        client = ServerClient(f"http://{host}:{port}")
        try:
            yield server, client
        finally:
            server.shutdown()
            server.server_close()

    def test_pool_serves_http_queries(self, pooled):
        server, client = pooled
        create_graph(client)
        response = client.query("g", PATH_QUERY)
        assert response["served_by"] == "pool"
        assert row_values(table_from_json(response["table"])) == {("a", "c")}

        client.update("g", ["insert", "R", ["c", "d"]])
        response = client.query("g", PATH_QUERY)
        assert response["served_by"] == "pool"
        assert response["version"] == 1
        assert row_values(table_from_json(response["table"])) == {
            ("a", "c"),
            ("b", "d"),
        }
        stats = client.stats()
        assert stats["pool"]["enabled"] is True
        assert stats["pool"]["alive"] == 1
        assert stats["pool"]["full_ships"] == 1
        assert stats["pool"]["delta_ships"] == 1

    def test_worker_errors_surface_as_http_errors(self, pooled):
        _, client = pooled
        create_graph(client)
        with pytest.raises(ServerError) as excinfo:
            client.query("g", "Q(X) :- Missing(X, Y).")
        assert excinfo.value.status == 400

    def test_server_close_stops_the_pool(self):
        server = make_server(port=0, workers=1)
        start_in_thread(server)
        pool = server.dispatcher.pool
        assert pool.alive_workers() == 1
        server.shutdown()
        server.server_close()
        for slot in pool._slots:
            slot.process.join(timeout=5.0)
        assert pool.alive_workers() == 0
