"""Long-lived concurrent query serving for c-table databases.

The serving layer turns the one-shot CLI pipeline into a resident
process with snapshot isolation:

- :mod:`~repro.server.session` — :class:`DatabaseSession`, the
  concurrency kernel: writers serialize on a per-database write lock
  and publish immutable :class:`Snapshot` objects; readers grab the
  current snapshot with one atomic reference read and evaluate with no
  locks at all.  Every answer names the update-stream ``version`` it
  reflects.
- :mod:`~repro.server.registry` — :class:`SessionRegistry`, the
  thread-safe name → session mapping; it opens database files (text or
  JSON, view sidecar included).
- :mod:`~repro.server.app` — the stdlib ``ThreadingHTTPServer``
  HTTP/JSON API behind ``repro serve``.
- :mod:`~repro.server.pool` — :class:`QueryDispatcher` and its parts:
  the multi-process read-worker pool (version-pinned snapshots; only the
  tables a worker does not hold are shipped), the ``(version,
  fingerprint)`` request cache, and the request-latency histogram behind
  ``/stats`` and ``/metrics``.
- :mod:`~repro.server.observe` — :func:`render_metrics`, the
  ``GET /metrics`` body.
- :mod:`~repro.server.client` — :class:`ServerClient`, a
  ``urllib``-only client used by ``repro client``, the tests and the
  throughput benchmark.
"""

from .app import ReproServer, make_server, run_server, start_in_thread
from .client import ServerClient, ServerError
from .pool import QueryDispatcher, RequestCache, WorkerPool
from .registry import SessionRegistry
from .session import DatabaseSession, QueryResult, SessionError, Snapshot

__all__ = [
    "DatabaseSession",
    "QueryDispatcher",
    "QueryResult",
    "ReproServer",
    "RequestCache",
    "WorkerPool",
    "ServerClient",
    "ServerError",
    "SessionError",
    "SessionRegistry",
    "Snapshot",
    "make_server",
    "run_server",
    "start_in_thread",
]
