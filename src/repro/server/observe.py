"""``GET /metrics``: the server's telemetry in the Prometheus text format.

:func:`render_metrics` is the one place that knows which live objects
back the endpoint.  At scrape time it reads the server's dispatcher
(query counters, request cache, worker pool, latency window, slow-query
log) and every registered database session (version, table/view counts,
view-maintenance counters, statistics-store collection counts).  Nothing
is copied per update: the hot path bumps the serving layer's own
``CounterGroup``/``Histogram`` objects, and only a scrape reads them.

Per-database families carry a ``db`` label, per-counter families a
``key`` label; everything renders through
:func:`repro.obs.metrics.render_families`.
"""

from __future__ import annotations

from ..obs.metrics import MetricFamily, counter_family, gauge_family, render_families

__all__ = ["render_metrics"]


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
    families.append(
        MetricFamily(
            "repro_slow_queries_total",
            "counter",
            "Requests over the slow-query threshold since startup.",
            [({}, stats["slow_queries"]["total"])],
        )
    )
    return families


def _session_families(registry):
    """The per-database families, and how many sessions raised reading
    their telemetry (those sessions are left out of every family)."""
    versions = []
    tables = []
    view_counts = []
    view_counters = []
    stats_counters = []
    errors = 0
    for session in registry.sessions():
        try:
            telemetry = session.telemetry()
        except Exception:  # noqa: BLE001 - a failing reader must not kill a scrape
            errors += 1
            continue
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
    ], errors


def render_metrics(server) -> str:
    """The ``GET /metrics`` body for one :class:`ReproServer`.

    The dispatcher and each session are read under their own guard, so
    a source that raises loses only its own samples: the scrape keeps
    every healthy family and adds the ``repro_metrics_collector_errors``
    gauge, the number of sources that raised.  A clean scrape has no
    such gauge.
    """
    try:
        families = _dispatcher_families(server.dispatcher)
        errors = 0
    except Exception:  # noqa: BLE001 - a failing reader must not kill a scrape
        families, errors = [], 1
    session_families, session_errors = _session_families(server.registry)
    families.extend(session_families)
    errors += session_errors
    if errors:
        families.append(
            MetricFamily(
                "repro_metrics_collector_errors",
                "gauge",
                "Sources (the dispatcher, each database session) whose reading "
                "raised during this scrape.",
                [({}, errors)],
            )
        )
    return render_families(families)
