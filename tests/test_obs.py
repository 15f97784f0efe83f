"""Tests for repro.obs: metric families and their Prometheus rendering,
structured tracing and EXPLAIN ANALYZE instrumentation.

These are the library-level tests (no HTTP); the server surfaces —
``/metrics``, trace-id headers, the ``analyze`` query flag — are covered
in ``tests/test_obs_server.py``.
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.core.tables import TableDatabase, codd_table
from repro.ctalgebra.evaluate import evaluate_ct_analyzed, evaluate_ct_ordered
from repro.obs.analyze import NodeAnalysis, PlanAnalysis, render_analysis
from repro.obs.metrics import (
    CounterGroup,
    Histogram,
    MetricFamily,
    counter_family,
    gauge_family,
    render_families,
)
from repro.obs.tracing import (
    SlowQueryLog,
    Trace,
    current_trace,
    new_trace_id,
    sanitize_trace_id,
    span,
    start_trace,
)
from repro.relational.stats import resolve_stats
from repro.workloads import skewed_star_join_database, skewed_star_join_expression


# ---------------------------------------------------------------------------
# Histogram quantile edge cases
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_empty_window_quantiles_are_zero(self):
        h = Histogram(window=8)
        assert h.quantile(0.5) == 0.0
        assert h.quantile(0.99) == 0.0
        assert h.summary() == {"count": 0, "window": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0}

    def test_single_sample_is_every_quantile(self):
        h = Histogram(window=8)
        h.record(7.0)
        for fraction in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert h.quantile(fraction) == 7.0
        assert h.summary()["p50"] == 7.0
        assert h.summary()["p99"] == 7.0

    def test_fraction_is_clamped(self):
        h = Histogram(window=8)
        for value in (1.0, 2.0, 3.0):
            h.record(value)
        assert h.quantile(-1.0) == 1.0
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 3.0
        assert h.quantile(5.0) == 3.0

    def test_window_boundary_evicts_oldest(self):
        h = Histogram(window=3)
        for value in (100.0, 1.0, 2.0, 3.0):
            h.record(value)
        # The 100.0 sample fell out of the window: max is now 3.0.
        assert h.quantile(1.0) == 3.0
        assert h.summary()["window"] == 3
        assert h.count == 4  # lifetime count keeps going

    def test_window_minus_one_boundary(self):
        h = Histogram(window=4)
        for seconds in (0.003, 0.001, 0.002):  # one under capacity
            h.record(seconds)
        assert h.quantile(1.0) == 0.003
        h.record(0.004)  # exactly at capacity
        assert h.quantile(1.0) == 0.004
        h.record(0.005)  # 0.003 evicted
        assert h.quantile(0.0) == 0.001
        assert h.summary()["window"] == 4

    def test_nearest_rank_exact(self):
        h = Histogram(window=200)
        for value in range(1, 101):
            h.record(float(value))
        assert h.quantile(0.50) == 50.0
        assert h.quantile(0.99) == 99.0
        assert h.quantile(1.0) == 100.0

    def test_lifetime_mean_vs_window(self):
        h = Histogram(window=2)
        for value in (1.0, 2.0, 3.0, 4.0):
            h.record(value)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["window"] == 2
        assert summary["mean"] == pytest.approx(2.5)  # lifetime, not window

    def test_collect_renders_as_summary_family(self):
        h = Histogram(window=8, name="test_hist_seconds", help="help text")
        h.record(0.5)
        text = render_families([h.collect()])
        assert "# TYPE test_hist_seconds summary" in text
        assert 'test_hist_seconds{quantile="0.5"} 0.5' in text
        assert "test_hist_seconds_count 1" in text


# ---------------------------------------------------------------------------
# CounterGroup
# ---------------------------------------------------------------------------


class TestCounterGroup:
    def test_is_a_dict(self):
        group = CounterGroup(("a", "b"))
        assert dict(group) == {"a": 0, "b": 0}
        group["a"] = 5
        assert group["a"] == 5
        assert json.loads(json.dumps(group)) == {"a": 5, "b": 0}

    def test_bump_and_snapshot(self):
        group = CounterGroup(("hits",))
        group.bump("hits")
        group.bump("hits", 3)
        group.bump("new_key")
        assert group.snapshot() == {"hits": 4, "new_key": 1}

    def test_concurrent_bumps_do_not_lose_updates(self):
        group = CounterGroup(("n",))

        def worker():
            for _ in range(1000):
                group.bump("n")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert group["n"] == 8000


# ---------------------------------------------------------------------------
# Prometheus text rendering
# ---------------------------------------------------------------------------


class TestPrometheusText:
    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricFamily("bad name!", "counter")

    def test_render_counter_gauge_histogram(self):
        hist = Histogram(window=4, name="repro_lat_seconds", help="latency")
        hist.record(0.5)
        text = render_families([
            counter_family("repro_events_total", "events", {"a": 3}),
            gauge_family("repro_depth", "depth", [({}, 7)]),
            hist.collect(),
        ])
        assert "# HELP repro_events_total events" in text
        assert "# TYPE repro_events_total counter" in text
        assert 'repro_events_total{key="a"} 3' in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 7" in text
        assert "# TYPE repro_lat_seconds summary" in text

    def test_every_sample_line_parses(self):
        import re

        weird = 'we"ird\nname'
        text = render_families([
            MetricFamily(
                "repro_multi_total",
                "counter",
                "per-key",
                [({"db": weird, "key": "a"}, 1), ({"db": weird, "key": "b"}, 2)],
            )
        ])
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9eE+.NaInf-]+$"
        )
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            assert line_re.match(line), line


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_no_active_trace_by_default(self):
        assert current_trace() is None
        with span("anything"):  # must be a cheap no-op, not an error
            pass
        assert current_trace() is None

    def test_start_trace_activates_and_restores(self):
        with start_trace(trace_id="abc123") as trace:
            assert current_trace() is trace
            assert trace.trace_id == "abc123"
            with span("step", key="v"):
                pass
        assert current_trace() is None
        assert [s.name for s in trace.spans] == ["step"]
        assert trace.spans[0].attrs == {"key": "v"}

    def test_span_nesting_depths(self):
        with start_trace() as trace:
            with span("outer"):
                with span("inner"):
                    pass
        # Spans complete innermost-first.
        by_name = {s.name: s.depth for s in trace.spans}
        assert by_name == {"outer": 0, "inner": 1}

    def test_span_records_error(self):
        with start_trace() as trace:
            with pytest.raises(ValueError):
                with span("bad"):
                    raise ValueError("x")
        assert trace.spans[0].attrs["error"] == "ValueError"

    def test_threads_do_not_share_traces(self):
        seen = {}

        def worker(name):
            with start_trace(trace_id=name) as trace:
                with span("work"):
                    pass
                seen[name] = (current_trace().trace_id, len(trace.spans))

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {f"t{i}": (f"t{i}", 1) for i in range(4)}
        assert current_trace() is None

    def test_trace_to_json(self):
        with start_trace(trace_id="deadbeef") as trace:
            trace.add("external", 1.5, rows=3)
        data = trace.to_json()
        assert data["trace_id"] == "deadbeef"
        assert data["spans"][0]["name"] == "external"
        assert data["spans"][0]["attrs"] == {"rows": 3}

    def test_sanitize_trace_id(self):
        assert sanitize_trace_id("abc-123.X_z") == "abc-123.X_z"
        assert sanitize_trace_id(new_trace_id()) is not None
        assert sanitize_trace_id("") is None
        assert sanitize_trace_id("bad id") is None
        assert sanitize_trace_id("x" * 65) is None
        assert sanitize_trace_id(None) is None
        assert sanitize_trace_id(42) is None

    def test_new_ids_are_distinct(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64


class TestSlowQueryLog:
    def test_disabled_by_default(self):
        log = SlowQueryLog()
        assert not log.enabled
        assert not log.record("db", "Q(X) :- R(X, X).", 1000.0, "inline")
        assert log.stats()["total"] == 0

    def test_threshold_and_entries(self):
        lines = []
        log = SlowQueryLog(threshold_ms=5.0, emit=lines.append)
        assert not log.record("db", "fast", 4.9, "cache", "t1")
        assert log.record("db", "slow", 5.0, "inline", "t2")
        entries = log.stats()["recent"]
        assert len(entries) == 1
        assert entries[0]["db"] == "db"
        assert entries[0]["ms"] == 5.0
        assert entries[0]["served_by"] == "inline"
        assert entries[0]["trace_id"] == "t2"
        assert len(lines) == 1 and "t2" in lines[0]

    def test_bounded_and_truncated(self):
        log = SlowQueryLog(threshold_ms=0.0, emit=lambda line: None)
        long_query = "Q(X) :- " + "R(X, X), " * 100
        for _ in range(SlowQueryLog.LIMIT + 10):
            log.record("db", long_query, 1.0, "inline")
        stats = log.stats()
        assert stats["total"] == SlowQueryLog.LIMIT + 10
        assert len(stats["recent"]) == SlowQueryLog.LIMIT
        assert len(stats["recent"][0]["query"]) <= SlowQueryLog.QUERY_LIMIT + 3


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


def star_db_and_expr():
    rng = random.Random(7)
    db = skewed_star_join_database(rng, dim_rows=8, fact_rows=60)
    return db, skewed_star_join_expression()


class TestEvaluateAnalyzed:
    def test_same_result_as_ordered(self):
        db, expr = star_db_and_expr()
        stats = resolve_stats(None, db)
        expected = evaluate_ct_ordered(expr, db, name="V", stats=stats)
        table, analysis = evaluate_ct_analyzed(expr, db, name="V", stats=stats)
        assert table.arity == expected.arity
        assert set(table.rows) == set(expected.rows)
        assert isinstance(analysis, PlanAnalysis)

    def test_root_actual_rows_matches_result(self):
        db, expr = star_db_and_expr()
        table, analysis = evaluate_ct_analyzed(expr, db, name="V")
        assert analysis.root.actual_rows == len(table)

    def test_estimates_and_join_extras_present(self):
        db, expr = star_db_and_expr()
        _, analysis = evaluate_ct_analyzed(expr, db, name="V")

        joins = []

        def walk(node):
            if node.label.startswith("Join"):
                joins.append(node)
            for child in node.children:
                walk(child)

        walk(analysis.root)
        assert joins, "planned star join should contain Join nodes"
        for node in joins:
            assert node.est_rows is not None
            assert node.actual_rows >= 0
            assert node.ms >= 0.0
            assert "left_buckets" in node.extras
            assert "right_buckets" in node.extras

    def test_to_json_shape_and_rendering(self):
        db, expr = star_db_and_expr()
        _, analysis = evaluate_ct_analyzed(expr, db, name="V")
        data = analysis.to_json()
        assert data["kind"] == "plan"
        assert data["total_ms"] >= data["plan_ms"] >= 0.0
        assert data["root"]["op"]
        json.dumps(data)  # JSON-ready all the way down
        lines = analysis.lines()
        assert any("est=" in line and "actual=" in line for line in lines)
        # render_analysis over the JSON round-trip gives the same lines
        assert render_analysis(data) == lines

    def test_analyzed_ops_land_on_active_trace(self):
        db, expr = star_db_and_expr()
        with start_trace() as trace:
            evaluate_ct_analyzed(expr, db, name="V")
        op_spans = [s for s in trace.spans if s.name.startswith("op:")]
        assert op_spans
        assert all("rows" in s.attrs for s in op_spans)

    def test_node_analysis_json(self):
        node = NodeAnalysis("Scan(R)", 4.0, 4, 0.12345)
        data = node.to_json()
        assert data == {"op": "Scan(R)", "est_rows": 4.0, "actual_rows": 4, "ms": 0.123}

    def test_datalog_render(self):
        payload = {
            "kind": "datalog",
            "rounds": [
                {"round": 1, "deltas": {"R": 4}, "ms": 0.5},
                {"round": 2, "deltas": {"T": 2}, "ms": 0.25},
            ],
            "total_ms": 0.75,
        }
        lines = render_analysis(payload)
        assert any("round 1" in line for line in lines)
        assert any("dT=2" in line for line in lines)


class TestFixpointRoundStats:
    def test_round_stats_match_trace(self):
        from repro.queries.fixpoint import CTFixpoint
        from repro.relational.parser import parse_datalog

        db = TableDatabase.single(
            codd_table("R", 2, [("a", "b"), ("b", "c"), ("c", "d")])
        )
        program = CTFixpoint(
            parse_datalog("T(X, Y) :- R(X, Y). T(X, Z) :- T(X, Y), R(Y, Z).")
        )
        evaluation = program.evaluation(db)
        evaluation.database()
        rounds = evaluation.round_stats
        assert len(rounds) == evaluation.rounds
        assert [r["round"] for r in rounds] == list(range(1, evaluation.rounds + 1))
        for entry in rounds:
            assert entry["ms"] >= 0.0
            assert all(size > 0 for size in entry["deltas"].values())

    def test_fixpoint_rounds_land_on_active_trace(self):
        from repro.queries.fixpoint import CTFixpoint
        from repro.relational.parser import parse_datalog

        db = TableDatabase.single(codd_table("R", 2, [("a", "b"), ("b", "c")]))
        program = CTFixpoint(
            parse_datalog("T(X, Y) :- R(X, Y). T(X, Z) :- T(X, Y), R(Y, Z).")
        )
        with start_trace() as trace:
            evaluation = program.evaluation(db)
        round_spans = [s for s in trace.spans if s.name.startswith("fixpoint.round:")]
        assert len(round_spans) == len(evaluation.round_stats)
        assert round_spans
