"""Wiring the serving layer into the metrics registry.

:func:`build_metrics_registry` is the one place that knows which live
objects back ``GET /metrics``: it registers a single collector that, at
scrape time, walks the server's dispatcher (query counters, request
cache, worker pool, latency window, slow-query log) and every registered
database session (version, table/view counts, view-maintenance counters,
statistics-store collection counts).  Nothing is copied per update — the
instruments the hot path touches are the same ``CounterGroup``/``Histogram``
objects the serving layer already bumps, and the registry only reads them
when a scraper asks.

Per-database families carry a ``db`` label, per-counter families a
``key`` label; everything renders through
:func:`repro.obs.metrics.render_families` in the Prometheus text
exposition format.
"""

from __future__ import annotations

from ..obs.metrics import MetricFamily, MetricsRegistry, counter_family, gauge_family

__all__ = ["build_metrics_registry"]


def _dispatcher_families(dispatcher):
    stats = dispatcher.stats()
    families = [
        counter_family(
            "repro_queries_total",
            "Dispatched queries by outcome (ladder rung or error).",
            stats["queries"],
            label="outcome",
        ),
    ]
    cache = stats["cache"]
    if cache.get("enabled"):
        families.append(
            counter_family(
                "repro_request_cache_total",
                "Request-cache lookups by result.",
                {"hits": cache["hits"], "misses": cache["misses"]},
                label="result",
            )
        )
        families.append(
            gauge_family(
                "repro_request_cache_entries",
                "Entries currently held by the request cache.",
                [({}, cache["entries"])],
            )
        )
    pool = stats["pool"]
    if pool.get("enabled"):
        counters = {
            key: value
            for key, value in pool.items()
            if key not in ("enabled", "workers", "alive")
        }
        families.append(
            counter_family(
                "repro_pool_events_total",
                "Worker-pool events (ships, dispatches, failures, respawns).",
                counters,
                label="event",
            )
        )
        families.append(
            gauge_family(
                "repro_pool_workers",
                "Worker processes by liveness.",
                [
                    ({"state": "configured"}, pool["workers"]),
                    ({"state": "alive"}, pool["alive"]),
                ],
            )
        )
    families.append(dispatcher.latency.collect())
    slow = stats["slow_queries"]
    families.append(
        gauge_family(
            "repro_slow_queries_total",
            "Requests over the slow-query threshold since startup.",
            [({}, slow["total"])],
        )
    )
    return families


def _session_families(registry):
    versions = []
    tables = []
    view_counts = []
    view_counters = []
    stats_counters = []
    for session in registry.sessions():
        telemetry = session.telemetry()
        label = {"db": session.name}
        versions.append((label, telemetry["version"]))
        tables.append((label, telemetry["tables"]))
        view_counts.append((label, telemetry["views"]["count"]))
        for key, value in sorted(telemetry["views"]["counters"].items()):
            view_counters.append(({"db": session.name, "key": key}, value))
        for key, value in sorted(telemetry["stats_store"].items()):
            stats_counters.append(({"db": session.name, "key": key}, value))
    return [
        gauge_family(
            "repro_db_version",
            "Published snapshot version per database.",
            versions,
        ),
        gauge_family(
            "repro_db_tables", "Tables in the current snapshot per database.", tables
        ),
        gauge_family(
            "repro_db_views", "Registered views per database.", view_counts
        ),
        MetricFamily(
            "repro_view_maintenance_total",
            "counter",
            "Incremental view-maintenance counters per database.",
            view_counters,
        ),
        gauge_family(
            "repro_stats_store",
            "Statistics-store collection counters per database.",
            stats_counters,
        ),
    ]


def build_metrics_registry(server) -> MetricsRegistry:
    """The registry behind ``GET /metrics`` for one :class:`ReproServer`.

    Everything is collector-based (read at scrape time from the live
    dispatcher and sessions), so building the registry costs nothing on
    the request path.
    """
    registry = MetricsRegistry()

    def collect():
        families = _dispatcher_families(server.dispatcher)
        families.extend(_session_families(server.registry))
        return families

    registry.register_collector(collect)
    return registry
