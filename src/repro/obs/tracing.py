"""Structured tracing: a trace id threaded through the query lifecycle.

A :class:`Trace` is one logical request: a stable ``trace_id`` plus the
flat list of :class:`Span` records produced while it was active.  The
active trace rides a :class:`contextvars.ContextVar`, so it follows the
request across function calls within one server thread and never leaks
between the threads (or worker processes) of concurrent requests.

The overhead contract (enforced by ``benchmarks/bench_observability.py``):
when no trace is active — the CLI's direct evaluation paths, library
use — every instrumentation point costs exactly one ``ContextVar.get``
returning ``None``.  The engine's hot per-row loops carry **no** hooks
at all; spans mark phases (compile, evaluate, fixpoint rounds) and, in
EXPLAIN ANALYZE mode only, per-operator executions.

The trace id crosses process boundaries as plain text: the
``X-Repro-Trace-Id`` HTTP header (:data:`TRACE_HEADER`), the query
response's ``trace_id`` field and the worker pool's wire options.  Ids
from the outside are sanitized (:func:`sanitize_trace_id`) so an
arbitrary header can never corrupt a log line or a metrics label.

:class:`SlowQueryLog` lives here too: a bounded log of requests over a
latency threshold, each entry stamped with the trace id that ties it
back to the client's response.
"""

from __future__ import annotations

import contextvars
import re
import sys
import threading
import time
import uuid

from collections import deque

__all__ = [
    "Span",
    "SlowQueryLog",
    "TRACE_HEADER",
    "Trace",
    "current_trace",
    "new_trace_id",
    "sanitize_trace_id",
    "span",
    "start_trace",
]

#: The HTTP request/response header carrying the trace id.
TRACE_HEADER = "X-Repro-Trace-Id"

_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

_ACTIVE: "contextvars.ContextVar[Trace | None]" = contextvars.ContextVar(
    "repro_trace", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


def sanitize_trace_id(value) -> "str | None":
    """``value`` if it is a well-formed trace id, else ``None``.

    Accepts 1-64 characters of ``[A-Za-z0-9._-]`` — permissive enough
    for any client's id scheme, strict enough to embed in headers, log
    lines and metrics labels verbatim.
    """
    if isinstance(value, str) and _TRACE_ID_RE.match(value):
        return value
    return None


class Span:
    """One timed step of a trace: name, wall milliseconds, attributes."""

    __slots__ = ("name", "ms", "depth", "attrs")

    def __init__(self, name: str, ms: float, depth: int = 0, attrs: "dict | None" = None) -> None:
        self.name = name
        self.ms = ms
        self.depth = depth
        self.attrs = attrs or {}

    def __repr__(self) -> str:
        extra = f", {self.attrs}" if self.attrs else ""
        return f"Span({self.name!r}, {self.ms:.2f}ms{extra})"

    def to_json(self) -> dict:
        payload = {"name": self.name, "ms": round(self.ms, 3), "depth": self.depth}
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload


class _SpanContext:
    """Context manager timing one span; appends to the trace on exit."""

    __slots__ = ("_trace", "_name", "_attrs", "_start", "_depth")

    def __init__(self, trace: "Trace", name: str, attrs: dict) -> None:
        self._trace = trace
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self._depth = self._trace._enter()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ms = (time.perf_counter() - self._start) * 1e3
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._trace._exit(Span(self._name, ms, self._depth, self._attrs))
        return False

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. row counts)."""
        self._attrs.update(attrs)


class _NullSpan:
    """The no-trace fast path: a reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Trace:
    """One request's trace: a stable id and the spans recorded under it.

    Spans nest lexically (``depth`` records the nesting level at entry)
    but are stored flat, in completion order — cheap to record, trivial
    to serialize.  A ``Trace`` is confined to the context (thread /
    task) that started it; concurrent requests each get their own via
    :func:`start_trace`, so spans can never cross-contaminate.
    """

    __slots__ = ("trace_id", "name", "spans", "_depth")

    def __init__(self, trace_id: "str | None" = None, name: str = "request") -> None:
        self.trace_id = trace_id or new_trace_id()
        self.name = name
        self.spans: list[Span] = []
        self._depth = 0

    def __repr__(self) -> str:
        return f"Trace({self.trace_id!r}, {len(self.spans)} spans)"

    def _enter(self) -> int:
        depth = self._depth
        self._depth += 1
        return depth

    def _exit(self, span: Span) -> None:
        self._depth -= 1
        self.spans.append(span)

    def span(self, name: str, **attrs) -> _SpanContext:
        """``with trace.span("plan"):`` — time a step of this trace."""
        return _SpanContext(self, name, attrs)

    def add(self, name: str, ms: float, **attrs) -> None:
        """Record an externally measured span (no context manager)."""
        self.spans.append(Span(name, ms, self._depth, attrs))

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "spans": [s.to_json() for s in self.spans],
        }


def current_trace() -> "Trace | None":
    """The trace active in this context, or ``None`` (the common case)."""
    return _ACTIVE.get()


class _TraceContext:
    """Context manager installing a trace as the active one."""

    __slots__ = ("_trace", "_token")

    def __init__(self, trace: Trace) -> None:
        self._trace = trace

    def __enter__(self) -> Trace:
        self._token = _ACTIVE.set(self._trace)
        return self._trace

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.reset(self._token)
        return False


def start_trace(name: str = "request", trace_id: "str | None" = None) -> _TraceContext:
    """``with start_trace(trace_id=...) as trace:`` — activate a trace.

    Restores the previous active trace (usually ``None``) on exit, so
    nested activations and thread pools behave.
    """
    return _TraceContext(Trace(trace_id=trace_id, name=name))


def span(name: str, **attrs):
    """Time a step of the *active* trace; a no-op when none is active.

    The disabled path is one ``ContextVar.get`` plus returning a shared
    null context — the near-zero-cost contract instrumented code relies
    on.
    """
    trace = _ACTIVE.get()
    if trace is None:
        return _NULL_SPAN
    return _SpanContext(trace, name, attrs)


# ---------------------------------------------------------------------------
# The slow-query log
# ---------------------------------------------------------------------------


class SlowQueryLog:
    """A bounded in-memory log of requests over a latency threshold.

    Disabled (``threshold_ms=None``) it is a single ``enabled`` check
    per request.  Enabled, an over-threshold request appends a JSON-
    ready entry — wall-clock time, database, the query text (truncated),
    elapsed milliseconds, which ladder rung served it, and the trace id
    — and mirrors one line to ``stderr`` so an operator tailing the
    server sees slow queries as they happen.
    """

    #: Most entries kept; older entries fall off the front.
    LIMIT = 128
    #: Longest query text stored per entry.
    QUERY_LIMIT = 200

    def __init__(self, threshold_ms: "float | None" = None, emit=None) -> None:
        self.threshold_ms = None if threshold_ms is None else float(threshold_ms)
        self._lock = threading.Lock()
        self._entries: "deque[dict]" = deque(maxlen=self.LIMIT)
        self.total = 0
        self._emit = emit

    @property
    def enabled(self) -> bool:
        return self.threshold_ms is not None

    def record(
        self,
        db: str,
        query_text: str,
        elapsed_ms: float,
        served_by: str,
        trace_id: "str | None" = None,
    ) -> bool:
        """Log the request if it was slow; returns whether it was."""
        if self.threshold_ms is None or elapsed_ms < self.threshold_ms:
            return False
        text = query_text.strip()
        if len(text) > self.QUERY_LIMIT:
            text = text[: self.QUERY_LIMIT] + "..."
        entry = {
            "time": time.time(),
            "db": db,
            "query": text,
            "ms": round(elapsed_ms, 3),
            "served_by": served_by,
            "trace_id": trace_id,
        }
        with self._lock:
            self._entries.append(entry)
            self.total += 1
        emit = self._emit if self._emit is not None else sys.stderr.write
        try:
            emit(
                f"repro-serve: slow query ({entry['ms']}ms >= "
                f"{self.threshold_ms}ms) db={db} served_by={served_by} "
                f"trace={trace_id} :: {text}\n"
            )
        except Exception:  # noqa: BLE001 - logging must never break serving
            pass
        return True

    def stats(self) -> dict:
        """The ``/stats`` payload section for the slow-query log."""
        with self._lock:
            recent = [dict(entry) for entry in self._entries]
            total = self.total
        return {
            "enabled": self.enabled,
            "threshold_ms": self.threshold_ms,
            "total": total,
            "recent": recent,
        }
