"""Tests for repro.server.pool: the worker pool, request cache,
request-latency readout and the query dispatcher's degradation ladder.

The pool pieces are exercised directly (not over HTTP — that surface is
covered in ``tests/test_server.py``) so failures localize to the
dispatch layer.  Worker processes use the ``spawn`` start method, so
each pool-backed test pays a process startup; the suite keeps pools
small (one or two workers) and reuses them within a test.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.conditions import Conjunction, Neq
from repro.core.tables import TableDatabase, codd_table
from repro.core.terms import Variable
from repro.server import DatabaseSession, SessionError
from repro.server.pool import QueryDispatcher, RequestCache, WorkerPool


def graph_db(*edges):
    return TableDatabase.single(codd_table("R", 2, list(edges)))


def row_values(table):
    return {tuple(t.value for t in row.terms) for row in table.rows}


PATH_QUERY = "Q(X, Z) :- R(X, Y), R(Y, Z)."


# ---------------------------------------------------------------------------
# Request latency: the dispatcher's histogram, read in ms by /stats
# ---------------------------------------------------------------------------


class TestRequestLatency:
    def test_empty_summary(self):
        assert QueryDispatcher().stats()["latency"] == {
            "count": 0,
            "window": 0,
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
        }

    def test_nearest_rank_percentiles(self):
        dispatcher = QueryDispatcher()
        # 1ms .. 100ms: nearest-rank p50 is the 50th sample, p99 the 99th.
        for i in range(1, 101):
            dispatcher.latency.record(i / 1000.0)
        assert dispatcher.latency.quantile(0.50) == pytest.approx(0.050)
        assert dispatcher.latency.quantile(0.99) == pytest.approx(0.099)
        assert dispatcher.latency.quantile(1.00) == pytest.approx(0.100)
        summary = dispatcher.stats()["latency"]
        assert summary["count"] == 100
        assert summary["p50_ms"] == pytest.approx(50.0)
        assert summary["p99_ms"] == pytest.approx(99.0)
        assert summary["mean_ms"] == pytest.approx(50.5)

    def test_window_bounds_percentiles_but_not_count(self):
        dispatcher = QueryDispatcher()
        for i in range(3000):
            dispatcher.latency.record(float(i))
        summary = dispatcher.stats()["latency"]
        assert summary["count"] == 3000
        assert summary["window"] == 2048
        # Only the last 2048 samples (952..2999) inform the percentiles.
        assert summary["p50_ms"] == pytest.approx((952 + 1023) * 1000.0)


# ---------------------------------------------------------------------------
# RequestCache
# ---------------------------------------------------------------------------


class TestRequestCache:
    def test_hand_computed_hit_miss_sequence(self):
        cache = RequestCache(capacity=4)
        assert cache.get("a") is None          # miss
        cache.put("a", 1)
        assert cache.get("a") == 1             # hit
        assert cache.get("b") is None          # miss
        cache.put("b", 2)
        assert cache.get("a") == 1             # hit
        assert cache.get("b") == 2             # hit
        assert cache.get("c") is None          # miss
        counters = cache.counters()
        assert counters["hits"] == 3
        assert counters["misses"] == 3
        assert counters["entries"] == 2

    def test_lru_eviction_order(self):
        cache = RequestCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1    # refresh "a": "b" is now oldest
        cache.put("c", 3)             # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.counters()["entries"] == 2

    def test_put_overwrites_in_place(self):
        cache = RequestCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 9)
        assert cache.get("a") == 9
        assert cache.counters()["entries"] == 1


# ---------------------------------------------------------------------------
# WorkerPool
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_disabled_pool_returns_none(self):
        pool = WorkerPool(0)
        session = DatabaseSession("g", graph_db(("a", "b")))
        assert not pool.enabled
        assert pool.query("g", session.snapshot(), PATH_QUERY) is None
        pool.close()

    def test_pool_answers_match_inline_and_ships_deltas(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        pool = WorkerPool(1, timeout=60.0)
        try:
            # First contact: the whole database crosses the pipe.
            result = pool.query("g", session.snapshot(), PATH_QUERY)
            assert row_values(result.table) == {("a", "c")}
            assert result.version == 0
            assert pool.counters["full_ships"] == 1

            # Same snapshot again: nothing ships, the worker's cache serves.
            result = pool.query("g", session.snapshot(), PATH_QUERY)
            assert row_values(result.table) == {("a", "c")}
            assert pool.counters["cached_ships"] == 1

            # One table changed: exactly that table ships as a delta.
            session.apply([("insert", "R", ("c", "d"))])
            result = pool.query("g", session.snapshot(), PATH_QUERY)
            assert result.version == 1
            assert row_values(result.table) == {("a", "c"), ("b", "d")}
            assert pool.counters["delta_ships"] == 1
            assert pool.counters["delta_tables"] == 1
            assert pool.counters["dispatched"] == 3
        finally:
            pool.close()

    def test_one_changed_table_ships_one_table(self):
        session = DatabaseSession("g", TableDatabase([
            codd_table("R", 2, [("a", "b")]),
            codd_table("S", 2, [("b", "c")]),
        ]))
        query = "Q(X, Z) :- R(X, Y), S(Y, Z)."
        pool = WorkerPool(1, timeout=60.0)
        try:
            pool.query("g", session.snapshot(), query)
            session.apply([("insert", "R", ("x", "b"))])
            result = pool.query("g", session.snapshot(), query)
            assert row_values(result.table) == {("a", "c"), ("x", "c")}
            # R is a new object, S the very one the worker holds.
            assert pool.counters["delta_ships"] == 1
            assert pool.counters["delta_tables"] == 1
        finally:
            pool.close()

    def test_schema_change_ships_the_full_database(self):
        # A database dropped and re-created under the same name with
        # other tables: the worker's copy cannot be patched.
        pool = WorkerPool(1, timeout=60.0)
        try:
            first = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
            pool.query("g", first.snapshot(), PATH_QUERY)
            second = DatabaseSession("g", TableDatabase([
                codd_table("R", 2, [("a", "b"), ("b", "d")]),
                codd_table("S", 1, [("a",)]),
            ]))
            result = pool.query("g", second.snapshot(), PATH_QUERY)
            assert row_values(result.table) == {("a", "d")}
            assert pool.counters["full_ships"] == 2
            assert pool.counters["delta_ships"] == 0
        finally:
            pool.close()

    def test_extra_condition_change_ships_the_full_database(self):
        x = Variable("x")
        table = codd_table("R", 2, [("a", x), ("b", "c")])
        plain = DatabaseSession("g", TableDatabase([table]))
        conditioned = DatabaseSession(
            "g", TableDatabase([table], extra_condition=Conjunction([Neq(x, "b")]))
        )
        pool = WorkerPool(1, timeout=60.0)
        try:
            pool.query("g", plain.snapshot(), PATH_QUERY)
            # Same table object, other extra condition: not a delta.
            assert pool.query("g", conditioned.snapshot(), PATH_QUERY) is not None
            assert pool.counters["full_ships"] == 2
            assert pool.counters["delta_ships"] == 0
        finally:
            pool.close()

    def test_worker_session_errors_propagate(self):
        session = DatabaseSession("g", graph_db(("a", "b")))
        pool = WorkerPool(1, timeout=60.0)
        try:
            with pytest.raises(SessionError, match="unknown relation"):
                pool.query("g", session.snapshot(), "Q(X) :- Missing(X, Y).")
            with pytest.raises(SessionError, match="query"):
                pool.query("g", session.snapshot(), "garbage((")
        finally:
            pool.close()

    def test_dead_worker_degrades_and_respawns(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        pool = WorkerPool(1, timeout=60.0)
        try:
            assert pool.query("g", session.snapshot(), PATH_QUERY) is not None
            pool._slots[0].process.kill()
            pool._slots[0].process.join()
            # The dead worker is detected, the request degrades (None),
            # and the slot is respawned to keep the pool at full size.
            assert pool.query("g", session.snapshot(), PATH_QUERY) is None
            assert pool.counters["worker_failures"] == 1
            assert pool.counters["respawns"] == 1
            assert pool.alive_workers() == 1
            # The respawned worker serves again, with a fresh full ship
            # (its snapshot cache died with its predecessor).
            result = pool.query("g", session.snapshot(), PATH_QUERY)
            assert row_values(result.table) == {("a", "c")}
            assert pool.counters["full_ships"] == 2
        finally:
            pool.close()

    def test_unpicklable_payload_degrades_without_killing_the_worker(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        pool = WorkerPool(1, timeout=60.0)
        try:
            slot = pool._slots[0]
            original_send = slot.conn.send

            def refusing_send(obj):
                raise pickle.PicklingError("cannot pickle this payload")

            slot.conn.send = refusing_send
            assert pool.query("g", session.snapshot(), PATH_QUERY) is None
            assert pool.counters["pickle_failures"] == 1
            assert pool.counters["respawns"] == 0

            # The pipe never saw a byte, so the same worker still serves.
            slot.conn.send = original_send
            result = pool.query("g", session.snapshot(), PATH_QUERY)
            assert row_values(result.table) == {("a", "c")}
        finally:
            pool.close()

    def test_closed_pool_refuses_work(self):
        session = DatabaseSession("g", graph_db(("a", "b")))
        pool = WorkerPool(1, timeout=60.0)
        pool.close()
        assert pool.query("g", session.snapshot(), PATH_QUERY) is None
        pool.close()  # idempotent


# ---------------------------------------------------------------------------
# QueryDispatcher: the degradation ladder
# ---------------------------------------------------------------------------


class TestQueryDispatcher:
    def test_cache_hits_and_never_serves_across_versions(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        dispatcher = QueryDispatcher(workers=0, cache_size=16)
        try:
            r1, how1 = dispatcher.query(session, PATH_QUERY)
            assert how1 == "inline" and r1.version == 0
            r2, how2 = dispatcher.query(session, PATH_QUERY)
            assert how2 == "cache" and r2 is r1

            # A version bump must *never* surface the cached answer.
            session.apply([("insert", "R", ("c", "d"))])
            r3, how3 = dispatcher.query(session, PATH_QUERY)
            assert how3 == "inline"
            assert r3.version == 1
            assert row_values(r3.table) == {("a", "c"), ("b", "d")}
            # ... but the old version's entry is still keyed separately.
            r4, how4 = dispatcher.query(session, PATH_QUERY)
            assert how4 == "cache" and r4.version == 1

            counters = dispatcher.cache.counters()
            assert counters["hits"] == 2
            assert counters["misses"] == 2
        finally:
            dispatcher.close()

    def test_hand_computed_counter_sequence(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        other_query = "P(X) :- R(X, Y)."
        dispatcher = QueryDispatcher(workers=0, cache_size=16)
        try:
            dispatcher.query(session, PATH_QUERY)      # miss
            dispatcher.query(session, PATH_QUERY)      # hit
            dispatcher.query(session, other_query)     # miss
            session.apply([("insert", "R", ("c", "d"))])
            dispatcher.query(session, PATH_QUERY)      # miss (new version)
            dispatcher.query(session, PATH_QUERY)      # hit
            dispatcher.query(session, other_query)     # miss (new version)
            counters = dispatcher.cache.counters()
            assert counters["hits"] == 2
            assert counters["misses"] == 4
            assert dispatcher.counters["queries"] == 6
            assert dispatcher.counters["cache_answers"] == 2
            assert dispatcher.counters["inline_answers"] == 4
        finally:
            dispatcher.close()

    def test_option_variations_do_not_share_cache_entries(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        dispatcher = QueryDispatcher(workers=0, cache_size=16)
        try:
            _, how1 = dispatcher.query(session, PATH_QUERY)
            _, how2 = dispatcher.query(session, PATH_QUERY, naive=True)
            _, how3 = dispatcher.query(session, PATH_QUERY, use_views=True)
            assert (how1, how2, how3) == ("inline", "inline", "inline")
            _, how4 = dispatcher.query(session, PATH_QUERY, naive=True)
            _, how5 = dispatcher.query(session, PATH_QUERY, use_views=True)
            assert (how4, how5) == ("cache", "cache")
        finally:
            dispatcher.close()

    def test_explain_bypasses_the_cache(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        dispatcher = QueryDispatcher(workers=0, cache_size=16)
        try:
            r1, how1 = dispatcher.query(session, PATH_QUERY, explain=True)
            r2, how2 = dispatcher.query(session, PATH_QUERY, explain=True)
            assert how1 == how2 == "inline"
            assert isinstance(r1.explain, list) and isinstance(r2.explain, list)
            assert dispatcher.cache.counters()["entries"] == 0
        finally:
            dispatcher.close()

    def test_view_answers_rank_above_evaluation(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")
        dispatcher = QueryDispatcher(workers=0, cache_size=16)
        try:
            result, how = dispatcher.query(
                session, "W(X, Z) :- R(X, Y), R(Y, Z).", use_views=True
            )
            assert how == "view"
            assert result.answered_by_view == "V"
            assert result.table.name == "W"
            # The view answer is cached under the use_views key.
            _, how2 = dispatcher.query(
                session, "W(X, Z) :- R(X, Y), R(Y, Z).", use_views=True
            )
            assert how2 == "cache"
            # The same text without use_views evaluates from base.
            _, how3 = dispatcher.query(session, "W(X, Z) :- R(X, Y), R(Y, Z).")
            assert how3 == "inline"
        finally:
            dispatcher.close()

    def test_cache_disabled(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        dispatcher = QueryDispatcher(workers=0, cache_size=0)
        try:
            assert dispatcher.cache is None
            _, how1 = dispatcher.query(session, PATH_QUERY)
            _, how2 = dispatcher.query(session, PATH_QUERY)
            assert how1 == how2 == "inline"
        finally:
            dispatcher.close()

    def test_bad_query_counts_as_error(self):
        session = DatabaseSession("g", graph_db(("a", "b")))
        dispatcher = QueryDispatcher(workers=0, cache_size=16)
        try:
            with pytest.raises(SessionError):
                dispatcher.query(session, "garbage((")
            assert dispatcher.counters["errors"] == 1
            assert dispatcher.latency.summary()["count"] == 1
        finally:
            dispatcher.close()

    def test_write_mid_dispatch_answers_at_the_dispatch_version(self, monkeypatch):
        """Every rung answers from the snapshot the dispatch read: a write
        published mid-dispatch leaves the answer and its cache key at the
        dispatch version, and the next query misses at the new version."""
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        dispatcher = QueryDispatcher(workers=0, cache_size=16)
        original_rung = DatabaseSession.answer_from_view
        raced = {"done": False}

        def racing_view_rung(*args, **kwargs):
            # The view rung runs after the dispatch read its snapshot and
            # before the inline rung evaluates: publish a write in between.
            if not raced["done"]:
                raced["done"] = True
                session.apply([("insert", "R", ("c", "d"))])
            return original_rung(*args, **kwargs)

        monkeypatch.setattr(DatabaseSession, "answer_from_view", staticmethod(racing_view_rung))
        try:
            result, how = dispatcher.query(session, PATH_QUERY)
            assert how == "inline"
            assert session.version == 1  # the write landed mid-dispatch
            assert result.version == 0
            assert row_values(result.table) == {("a", "c")}
            assert [key[:2] for key in dispatcher.cache._data] == [(session.serial, 0)]
            fresh, how2 = dispatcher.query(session, PATH_QUERY)
            assert how2 == "inline" and fresh.version == 1
            assert row_values(fresh.table) == {("a", "c"), ("b", "d")}
            hit, how3 = dispatcher.query(session, PATH_QUERY)
            assert how3 == "cache" and hit is fresh
        finally:
            dispatcher.close()

    @pytest.mark.parametrize("workers", [0, 1])
    def test_naive_request_is_never_served_by_a_view(self, workers):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        session.define_view("V(X, Z) :- R(X, Y), R(Y, Z).")
        dispatcher = QueryDispatcher(workers=workers, cache_size=16)
        query = "W(X, Z) :- R(X, Y), R(Y, Z)."
        try:
            _, how = dispatcher.query(session, query, use_views=True)
            assert how == "view"
            for _ in range(2):  # evaluated, then its own cache entry
                result, how = dispatcher.query(session, query, use_views=True, naive=True)
                assert how != "view"
                assert result.answered_by_view is None
                assert row_values(result.table) == {("a", "c")}
            assert how == "cache"
        finally:
            dispatcher.close()

    def test_pool_rung_feeds_the_cache(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        dispatcher = QueryDispatcher(workers=1, cache_size=16)
        try:
            r1, how1 = dispatcher.query(session, PATH_QUERY)
            assert how1 == "pool"
            assert row_values(r1.table) == {("a", "c")}
            _, how2 = dispatcher.query(session, PATH_QUERY)
            assert how2 == "cache"
            session.apply([("insert", "R", ("c", "d"))])
            r3, how3 = dispatcher.query(session, PATH_QUERY)
            assert how3 == "pool" and r3.version == 1
            assert dispatcher.counters["pool_answers"] == 2
        finally:
            dispatcher.close()

    def test_stats_shape(self):
        session = DatabaseSession("g", graph_db(("a", "b"), ("b", "c")))
        dispatcher = QueryDispatcher(workers=0, cache_size=16)
        try:
            dispatcher.query(session, PATH_QUERY)
            stats = dispatcher.stats()
            assert set(stats) == {"queries", "cache", "pool", "latency", "slow_queries"}
            assert stats["queries"]["queries"] == 1
            assert stats["cache"]["enabled"] is True
            assert stats["pool"] == {"enabled": False, "workers": 0}
            assert stats["latency"]["count"] == 1
            assert stats["latency"]["p50_ms"] >= 0.0
            import json

            json.dumps(stats)  # JSON-ready by contract (the /stats body)
        finally:
            dispatcher.close()
