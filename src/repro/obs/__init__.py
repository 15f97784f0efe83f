"""Unified observability: metric families, structured tracing, EXPLAIN ANALYZE.

Three small, dependency-free submodules (see each for the design):

* :mod:`repro.obs.metrics` — metric families and their Prometheus text
  rendering (the server builds ``/metrics`` from them in one function,
  :func:`repro.server.observe.render_metrics`), a bounded histogram
  with nearest-rank quantiles and a thread-safe counter dict;
* :mod:`repro.obs.tracing` — a contextvar-scoped :class:`Trace` of
  :class:`Span` records with a wire-safe trace id, plus the slow-query
  log; near-zero cost when no trace is active;
* :mod:`repro.obs.analyze` — the per-operator estimated-vs-actual
  records behind ``repro eval --analyze`` and the server's
  ``"analyze"`` query flag.
"""

from .metrics import (
    CounterGroup,
    Histogram,
    MetricFamily,
    counter_family,
    gauge_family,
    render_families,
)
from .tracing import (
    TRACE_HEADER,
    SlowQueryLog,
    Span,
    Trace,
    current_trace,
    new_trace_id,
    sanitize_trace_id,
    span,
    start_trace,
)
from .analyze import NodeAnalysis, PlanAnalysis, node_label, render_analysis

__all__ = [
    "CounterGroup",
    "Histogram",
    "MetricFamily",
    "NodeAnalysis",
    "PlanAnalysis",
    "SlowQueryLog",
    "Span",
    "TRACE_HEADER",
    "Trace",
    "counter_family",
    "current_trace",
    "gauge_family",
    "new_trace_id",
    "node_label",
    "render_analysis",
    "render_families",
    "sanitize_trace_id",
    "span",
    "start_trace",
]
