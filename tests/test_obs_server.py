"""Server-surface tests for the observability layer: ``GET /metrics``,
the enriched ``/stats``, trace-id propagation over HTTP and the worker
pool, the ``analyze`` query flag and the slow-query log.

The library-level pieces (metric families, tracing, EXPLAIN ANALYZE
walker) are covered in ``tests/test_obs.py``.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.request

import pytest

from repro.core.tables import TableDatabase, codd_table
from repro.io.jsonio import database_to_json, table_from_json
from repro.obs.tracing import TRACE_HEADER
from repro.server import DatabaseSession, ServerClient, make_server, start_in_thread


def graph_db(*edges):
    return TableDatabase.single(codd_table("R", 2, list(edges)))


def row_values(table):
    return {tuple(t.value for t in row.terms) for row in table.rows}


PATH_QUERY = "Q(X, Z) :- R(X, Y), R(Y, Z)."

#: A Prometheus text-format sample line: name{labels} value
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[0-9eE+.-]+)$"
)


def _make(**kwargs):
    server = make_server(port=0, **kwargs)
    start_in_thread(server)
    host, port = server.server_address[:2]
    return server, ServerClient(f"http://{host}:{port}")


@pytest.fixture
def served():
    server, client = _make()
    try:
        yield server, client
    finally:
        server.shutdown()
        server.server_close()


def create_graph(client, name="g", *extra_edges):
    edges = [("a", "b"), ("b", "c"), *extra_edges]
    return client.create_database(name, database_to_json(graph_db(*edges)))


# ---------------------------------------------------------------------------
# GET /metrics
# ---------------------------------------------------------------------------


class TestMetricsEndpoint:
    def test_metrics_serves_prometheus_text(self, served):
        server, client = served
        create_graph(client)
        client.query("g", PATH_QUERY)
        host, port = server.server_address[:2]
        with urllib.request.urlopen(f"http://{host}:{port}/metrics") as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            body = resp.read().decode("utf-8")
        for line in body.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# HELP") or line.startswith("# TYPE"), line
            else:
                assert _SAMPLE_RE.match(line), line
        assert "repro_queries_total" in body
        assert "repro_request_latency_seconds" in body
        assert 'repro_db_version{db="g"}' in body

    def test_counters_move_with_traffic(self, served):
        _, client = served
        create_graph(client)

        def outcome_total(text):
            total = 0
            for line in text.splitlines():
                if line.startswith("repro_queries_total{"):
                    total += float(line.rsplit(" ", 1)[1])
            return total

        before = outcome_total(client.metrics())
        for _ in range(3):
            client.query("g", PATH_QUERY)
        after = outcome_total(client.metrics())
        assert after >= before + 3 * 2  # each query bumps queries + one rung

    def test_metrics_exposition_families_and_labels(self):
        # Every family: a pooled server with the request cache and the
        # slow-query log on, after a query, a write and a query.
        server, client = _make(workers=1, slow_query_ms=0.0)
        try:
            create_graph(client)
            client.query("g", PATH_QUERY)
            client.update("g", ["insert", "R", ["c", "d"]])
            client.query("g", PATH_QUERY)
            text = client.metrics()
        finally:
            server.shutdown()
            server.server_close()
        types = []
        labels: dict[str, set] = {}
        for line in text.strip().splitlines():
            if line.startswith("# TYPE "):
                types.append(line)
                labels[line.split()[2]] = set()
            elif not line.startswith("#"):
                family = types[-1].split()[2]
                assert line.startswith(family), line
                labels[family] |= set(re.findall(r'(\w+)="', line))
        assert types == [
            "# TYPE repro_queries_total counter",
            "# TYPE repro_request_cache_total counter",
            "# TYPE repro_request_cache_entries gauge",
            "# TYPE repro_pool_events_total counter",
            "# TYPE repro_pool_workers gauge",
            "# TYPE repro_request_latency_seconds summary",
            "# TYPE repro_slow_queries_total counter",
            "# TYPE repro_db_version gauge",
            "# TYPE repro_db_tables gauge",
            "# TYPE repro_db_views gauge",
            "# TYPE repro_view_maintenance_total counter",
            "# TYPE repro_stats_store gauge",
        ]
        assert labels == {
            "repro_queries_total": {"outcome"},
            "repro_request_cache_total": {"result"},
            "repro_request_cache_entries": set(),
            "repro_pool_events_total": {"event"},
            "repro_pool_workers": {"state"},
            "repro_request_latency_seconds": {"quantile"},
            "repro_slow_queries_total": set(),
            "repro_db_version": {"db"},
            "repro_db_tables": {"db"},
            "repro_db_views": {"db"},
            "repro_view_maintenance_total": {"db", "key"},
            "repro_stats_store": {"db", "key"},
        }

    def test_failing_telemetry_renders_the_error_gauge(self, served, monkeypatch):
        server, client = served
        create_graph(client)

        def broken(session):
            raise RuntimeError("boom")

        monkeypatch.setattr(DatabaseSession, "telemetry", broken)
        host, port = server.server_address[:2]
        with urllib.request.urlopen(f"http://{host}:{port}/metrics") as resp:
            assert resp.status == 200
            body = resp.read().decode("utf-8")
        assert "# TYPE repro_metrics_collector_errors gauge" in body
        assert "repro_metrics_collector_errors 1" in body

    def test_metrics_keep_healthy_families_when_one_session_raises(self, served):
        server, client = served
        create_graph(client, "healthy")
        create_graph(client, "broken")
        client.query("healthy", PATH_QUERY)

        def broken():
            raise RuntimeError("boom")

        # One session instance fails; the dispatcher and the other session
        # still render, and the failing one is left out of every family.
        server.registry.get("broken").telemetry = broken
        host, port = server.server_address[:2]
        with urllib.request.urlopen(f"http://{host}:{port}/metrics") as resp:
            assert resp.status == 200
            body = resp.read().decode("utf-8")
        samples = [line for line in body.splitlines() if not line.startswith("#")]
        assert any(line.startswith("repro_queries_total{") for line in samples)
        assert any(line.startswith('repro_db_version{db="healthy"}') for line in samples)
        assert not any('db="broken"' in line for line in samples)
        assert "repro_metrics_collector_errors 1" in samples

    def test_client_metrics_helper_returns_text(self, served):
        _, client = served
        assert "# TYPE" in client.metrics()

    def test_metrics_parse_under_concurrent_load(self, served):
        _, client = served
        create_graph(client)
        errors = []
        stop = threading.Event()

        def querier():
            while not stop.is_set():
                try:
                    client.query("g", PATH_QUERY)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        def scraper():
            for _ in range(10):
                try:
                    text = client.metrics()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return
                for line in text.strip().splitlines():
                    if not line.startswith("#") and not _SAMPLE_RE.match(line):
                        errors.append(AssertionError(line))
                        return

        threads = [threading.Thread(target=querier) for _ in range(3)]
        threads += [threading.Thread(target=scraper) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads[3:]:
            t.join()
        stop.set()
        for t in threads[:3]:
            t.join()
        assert not errors


# ---------------------------------------------------------------------------
# GET /stats enrichment
# ---------------------------------------------------------------------------


class TestStatsEnrichment:
    def test_stats_carries_per_db_telemetry(self, served):
        _, client = served
        create_graph(client)
        client.define_view("g", PATH_QUERY.replace("Q(", "V("))
        client.update("g", ["insert", "R", ["c", "d"]])
        client.query("g", PATH_QUERY)
        stats = client.stats()
        assert "slow_queries" in stats
        g = stats["databases"]["g"]
        assert g["version"] >= 1  # the insert bumped the snapshot version
        assert g["tables"] == 1
        assert g["views"]["count"] == 1
        assert "delta_rows" in g["views"]["counters"]
        assert isinstance(g["views"]["last_maintenance"], list)
        assert g["stats_store"]["table_collections"] >= 1

    def test_latency_summary_shape_is_unchanged(self, served):
        _, client = served
        create_graph(client)
        client.query("g", PATH_QUERY)
        latency = client.stats()["latency"]
        assert set(latency) == {"count", "window", "mean_ms", "p50_ms", "p99_ms"}
        assert latency["count"] >= 1


# ---------------------------------------------------------------------------
# Trace-id propagation
# ---------------------------------------------------------------------------


class TestTraceIds:
    def _raw_query(self, client, db, query, headers=None):
        payload = json.dumps({"query": query}).encode("utf-8")
        request = urllib.request.Request(
            client.base_url + f"/dbs/{db}/query",
            data=payload,
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST",
        )
        with urllib.request.urlopen(request) as resp:
            return resp.headers, json.loads(resp.read())

    def test_server_mints_an_id_when_absent(self, served):
        _, client = served
        create_graph(client)
        headers, body = self._raw_query(client, "g", PATH_QUERY)
        assert re.match(r"^[0-9a-f]{16}$", body["trace_id"])
        assert headers[TRACE_HEADER] == body["trace_id"]

    def test_client_id_is_echoed(self, served):
        _, client = served
        create_graph(client)
        headers, body = self._raw_query(
            client, "g", PATH_QUERY, headers={TRACE_HEADER: "my-trace.001"}
        )
        assert body["trace_id"] == "my-trace.001"
        assert headers[TRACE_HEADER] == "my-trace.001"

    def test_malformed_id_is_replaced(self, served):
        _, client = served
        create_graph(client)
        _, body = self._raw_query(
            client, "g", PATH_QUERY, headers={TRACE_HEADER: "bad id with spaces"}
        )
        assert body["trace_id"] != "bad id with spaces"
        assert re.match(r"^[0-9a-f]{16}$", body["trace_id"])

    def test_server_client_passes_trace_id(self, served):
        _, client = served
        create_graph(client)
        response = client.query("g", PATH_QUERY, trace_id="client-abc")
        assert response["trace_id"] == "client-abc"

    def test_concurrent_queries_never_cross_contaminate(self, served):
        _, client = served
        create_graph(client)
        results = {}
        errors = []

        def worker(i):
            try:
                for j in range(5):
                    wanted = f"t{i}-{j}"
                    response = client.query("g", PATH_QUERY, trace_id=wanted)
                    if response["trace_id"] != wanted:
                        errors.append((wanted, response["trace_id"]))
                results[i] = True
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 6


class TestTraceIdsOverWorkerPool:
    @pytest.fixture
    def pooled(self):
        server, client = _make(workers=1, cache_size=0)
        try:
            yield server, client
        finally:
            server.shutdown()
            server.server_close()

    def test_pool_round_trips_the_trace_id(self, pooled):
        _, client = pooled
        create_graph(client)
        response = client.query("g", PATH_QUERY, trace_id="pool-trace-1")
        assert response["served_by"] == "pool"
        assert response["trace_id"] == "pool-trace-1"
        assert row_values(table_from_json(response["table"])) == {("a", "c")}


# ---------------------------------------------------------------------------
# The analyze flag over HTTP
# ---------------------------------------------------------------------------


class TestAnalyzeFlag:
    def test_analyze_payload_matches_result(self, served):
        _, client = served
        create_graph(client)
        response = client.query("g", PATH_QUERY, analyze=True)
        assert response["served_by"] == "inline"
        analyze = response["analyze"]
        assert analyze["kind"] == "plan"
        assert analyze["root"]["actual_rows"] == response["rows"]
        assert analyze["root"]["est_rows"] is not None
        assert analyze["total_ms"] >= 0.0

    def test_analyze_is_never_cached(self, served):
        _, client = served
        create_graph(client)
        first = client.query("g", PATH_QUERY, analyze=True)
        second = client.query("g", PATH_QUERY, analyze=True)
        assert first["served_by"] == "inline"
        assert second["served_by"] == "inline"  # not "cache"
        # ...and analyze traffic does not poison the cache for normal queries
        plain = client.query("g", PATH_QUERY)
        assert plain["served_by"] in ("inline", "cache")
        assert "analyze" not in plain

    def test_datalog_analyze_reports_rounds(self, served):
        _, client = served
        create_graph(client, "g", ("c", "d"))
        response = client.query(
            "g",
            "T(X, Y) :- R(X, Y). T(X, Z) :- T(X, Y), R(Y, Z).",
            datalog=True,
            analyze=True,
        )
        analyze = response["analyze"]
        assert analyze["kind"] == "datalog"
        assert [r["round"] for r in analyze["rounds"]] == list(
            range(1, len(analyze["rounds"]) + 1)
        )
        assert all(r["ms"] >= 0.0 for r in analyze["rounds"])


# ---------------------------------------------------------------------------
# The slow-query log over HTTP
# ---------------------------------------------------------------------------


class TestSlowQueryLog:
    @pytest.fixture
    def slow_served(self):
        server, client = _make(slow_query_ms=0.0)
        try:
            yield server, client
        finally:
            server.shutdown()
            server.server_close()

    def test_threshold_zero_logs_everything(self, slow_served, capfd):
        _, client = slow_served
        create_graph(client)
        response = client.query("g", PATH_QUERY, trace_id="slow-1")
        slow = client.stats()["slow_queries"]
        assert slow["enabled"] is True
        assert slow["threshold_ms"] == 0.0
        assert slow["total"] >= 1
        entry = slow["recent"][0]
        assert entry["db"] == "g"
        assert entry["served_by"] == response["served_by"]
        assert entry["trace_id"] == "slow-1"
        assert "slow query" in capfd.readouterr().err

    def test_disabled_by_default(self, served):
        _, client = served
        create_graph(client)
        client.query("g", PATH_QUERY)
        slow = client.stats()["slow_queries"]
        assert slow["enabled"] is False
        assert slow["total"] == 0
