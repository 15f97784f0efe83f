"""The HTTP/JSON front door of ``repro serve``.

A deliberately dependency-free serving layer: stdlib
:class:`~http.server.ThreadingHTTPServer` (one thread per in-flight
request) over the :class:`~repro.server.registry.SessionRegistry`.
Handlers never touch shared mutable state outside a session's public
API, so the concurrency story is exactly the session's: reads are
lock-free over published snapshots, writes serialize on the per-database
write lock.

Routes (all bodies and responses JSON)::

    GET    /health                         liveness + database count
    GET    /dbs                            list databases (name, version, ...)
    POST   /dbs/{db}                       create: body {"database": <db json>}
    GET    /dbs/{db}                       info (tables, views, version)
    DELETE /dbs/{db}                       drop the database
    GET    /dbs/{db}/database              full database JSON + version
    POST   /dbs/{db}/query                 {"query": "V(X) :- R(X, Y).",
                                            "naive"?, "use_views"?,
                                            "explain"?, "datalog"?,
                                            "analyze"?}
                                           flags are JSON booleans; any
                                           other key answers 400
    POST   /dbs/{db}/update                {"op": [...]} or {"ops": [[...], ...]}
                                           ops: ["insert", rel, fact],
                                           ["delete", rel, fact],
                                           ["modify", rel, old, new]
    GET    /dbs/{db}/views                 registered views
    POST   /dbs/{db}/views                 {"query": "V(X) :- R(X, Y)."}
    DELETE /dbs/{db}/views/{view}          drop a view
    POST   /dbs/{db}/persist               write db + view sidecar back to disk
    GET    /stats                          dispatcher counters, cache, pool,
                                           p50/p99 latency, slow-query log,
                                           per-database telemetry
    GET    /metrics                        Prometheus text exposition

Observability: every query response carries an ``X-Repro-Trace-Id``
header (echoing the client's, if it sent a well-formed one) and the
same id in the JSON payload, tying the response to server-side spans
and slow-query log entries.  A ``"analyze": true`` query flag runs
EXPLAIN ANALYZE — the response gains an ``"analyze"`` payload with
per-operator estimated vs actual rows and timings (per-round delta
sizes for Datalog programs).

Queries flow through a shared :class:`~repro.server.pool.QueryDispatcher`
(request cache → snapshot views → worker pool → in-process; see that
module).  Responses over ``CHUNK_THRESHOLD`` bytes are streamed with
chunked transfer encoding so a large answer table starts flowing before
it has been fully buffered per-connection.

Errors are ``{"error": message}`` with 400 (bad request), 404 (unknown
database/view) or 409 (conflict: duplicate database, stale sidecar).
Every query response carries the ``version`` it was evaluated against —
the update-stream prefix the snapshot-isolation invariant refers to.
"""

from __future__ import annotations

import json
import re
import sys
import threading

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..io.jsonio import database_from_json, database_to_json, table_to_json
from ..obs.tracing import TRACE_HEADER, new_trace_id, sanitize_trace_id
from .observe import render_metrics
from .pool import DEFAULT_CACHE_SIZE, QueryDispatcher
from .registry import SessionRegistry
from .session import SessionError

__all__ = ["ReproServer", "make_server", "run_server"]

#: Largest accepted request body (a whole database as JSON can be big,
#: but a bound keeps a stray client from ballooning the process).
MAX_BODY = 64 * 1024 * 1024

#: Responses larger than this are streamed with chunked transfer
#: encoding instead of a single Content-Length write.
CHUNK_THRESHOLD = 64 * 1024

#: The flags a query body may set next to ``"query"``.
QUERY_FLAGS = ("naive", "use_views", "explain", "datalog", "analyze")

#: Size of each chunk in a chunked response.
CHUNK_SIZE = 16 * 1024


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_ROUTES = [
    (re.compile(r"^/health$"), "health"),
    (re.compile(r"^/stats$"), "stats"),
    (re.compile(r"^/metrics$"), "metrics"),
    (re.compile(r"^/dbs$"), "dbs"),
    (re.compile(r"^/dbs/(?P<db>[^/]+)$"), "db"),
    (re.compile(r"^/dbs/(?P<db>[^/]+)/database$"), "database"),
    (re.compile(r"^/dbs/(?P<db>[^/]+)/query$"), "query"),
    (re.compile(r"^/dbs/(?P<db>[^/]+)/update$"), "update"),
    (re.compile(r"^/dbs/(?P<db>[^/]+)/views$"), "views"),
    (re.compile(r"^/dbs/(?P<db>[^/]+)/views/(?P<view>[^/]+)$"), "view"),
    (re.compile(r"^/dbs/(?P<db>[^/]+)/persist$"), "persist"),
]


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: Socket timeout: bounds the body-read loop (a stalled client gets
    #: dropped rather than pinning a handler thread forever).
    timeout = 60.0
    #: TCP_NODELAY: a reply goes out as a header send then a body send,
    #: and with Nagle's algorithm the second waits for the client's
    #: delayed ACK (~40 ms per keep-alive request).
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    @property
    def registry(self) -> SessionRegistry:
        return self.server.registry

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            sys.stderr.write(
                "repro-serve: %s - %s\n" % (self.address_string(), format % args)
            )

    def _body(self) -> dict:
        # On a rejected length the body stays unread, so the connection
        # cannot carry another request.
        text = (self.headers.get("Content-Length") or "0").strip()
        if not (text.isascii() and text.isdigit()):
            self.close_connection = True
            raise _HttpError(400, "bad Content-Length")
        length = int(text)
        if length > MAX_BODY:
            self.close_connection = True
            raise _HttpError(400, f"request body over {MAX_BODY} bytes")
        if length == 0:
            return {}
        # A single read() on a socket file may legally return fewer than
        # `length` bytes (the client writes the body in several packets);
        # loop until the advertised length arrives.  The handler-level
        # socket timeout bounds the wait on a stalled sender.
        raw = bytearray()
        while len(raw) < length:
            chunk = self.rfile.read(length - len(raw))
            if not chunk:
                raise _HttpError(
                    400, f"truncated body: got {len(raw)} of {length} bytes"
                )
            raw.extend(chunk)
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise _HttpError(400, f"malformed JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise _HttpError(400, "JSON body must be an object")
        return data

    def _reply(
        self, payload: dict, status: int = 200, headers: "dict | None" = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        if len(body) > CHUNK_THRESHOLD:
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            for start in range(0, len(body), CHUNK_SIZE):
                chunk = body[start : start + CHUNK_SIZE]
                self.wfile.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
            self.wfile.write(b"0\r\n\r\n")
        else:
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        for pattern, route in _ROUTES:
            match = pattern.match(path)
            if match is None:
                continue
            handler = getattr(self, f"_{method}_{route}", None)
            if handler is None:
                raise _HttpError(405, f"{method.upper()} not supported on {path}")
            handler(**match.groupdict())
            return
        raise _HttpError(404, f"no such route: {path}")

    def _run(self, method: str) -> None:
        try:
            self._dispatch(method)
        except _HttpError as exc:
            self._reply({"error": str(exc)}, exc.status)
        except SessionError as exc:
            message = str(exc)
            status = 404 if message.startswith("no database named") else 400
            if "already exists" in message:
                status = 409
            self._reply({"error": message}, status)
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._reply({"error": f"internal error: {exc}"}, 500)

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._run("get")

    def do_POST(self):  # noqa: N802
        self._run("post")

    def do_DELETE(self):  # noqa: N802
        self._run("delete")

    # -- routes --------------------------------------------------------------

    def _get_health(self):
        self._reply({"ok": True, "databases": len(self.registry)})

    def _get_stats(self):
        payload = self.server.dispatcher.stats()
        payload["databases"] = {
            session.name: session.telemetry()
            for session in self.registry.sessions()
        }
        self._reply(payload)

    def _get_metrics(self):
        body = render_metrics(self.server).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_dbs(self):
        self._reply(
            {
                "databases": [
                    {
                        "name": session.name,
                        "version": session.version,
                        "tables": len(session.snapshot().db),
                        "views": len(session.snapshot().views),
                    }
                    for session in self.registry.sessions()
                ]
            }
        )

    def _post_db(self, db: str):
        body = self._body()
        payload = body.get("database")
        if payload is None:
            raise _HttpError(400, 'create needs a {"database": <database json>} body')
        try:
            database = database_from_json(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad database payload: {exc}") from exc
        session = self.registry.add(db, database)
        self._reply({"name": db, "version": session.version}, 201)

    def _get_db(self, db: str):
        self._reply(self.registry.get(db).info())

    def _delete_db(self, db: str):
        self.registry.drop(db)
        self._reply({"dropped": db})

    def _get_database(self, db: str):
        snap = self.registry.get(db).snapshot()
        self._reply({"version": snap.version, "database": database_to_json(snap.db)})

    def _post_query(self, db: str):
        body = self._body()
        query_text = body.get("query")
        if not isinstance(query_text, str) or not query_text.strip():
            raise _HttpError(400, 'query needs a {"query": "V(X) :- R(X, Y)."} body')
        flags = {key: value for key, value in body.items() if key != "query"}
        for key, value in flags.items():
            if key not in QUERY_FLAGS:
                raise _HttpError(400, f"unknown query field {key!r}")
            if not isinstance(value, bool):
                raise _HttpError(400, f"query field {key!r} must be true or false")
        # The request's trace id: the client's (sanitized) header if it
        # sent one, else freshly minted here.  The response always names
        # this id, whichever rung answered (a cache hit included): the id
        # the client can correlate with the slow-query log and spans.
        trace_id = sanitize_trace_id(self.headers.get(TRACE_HEADER)) or new_trace_id()
        result, served_by = self.server.dispatcher.query(
            self.registry.get(db),
            query_text,
            trace_id=trace_id,
            **flags,
        )
        payload = {
            "version": result.version,
            "rows": len(result.table),
            "classification": result.table.classify(),
            "table": table_to_json(result.table),
            "served_by": served_by,
            "trace_id": trace_id,
        }
        if result.answered_by_view is not None:
            payload["answered_by_view"] = result.answered_by_view
        if result.explain is not None:
            payload["explain"] = result.explain
        if result.analyze is not None:
            payload["analyze"] = result.analyze
        self._reply(payload, headers={TRACE_HEADER: trace_id})

    def _post_update(self, db: str):
        body = self._body()
        if "ops" in body:
            ops = body["ops"]
            if not isinstance(ops, list):
                raise _HttpError(400, '"ops" must be a list of operations')
        elif "op" in body:
            ops = [body["op"]]
        else:
            raise _HttpError(400, 'update needs an {"op": [...]} or {"ops": [[...]]} body')
        version = self.registry.get(db).apply(ops)
        self._reply({"version": version, "applied": len(ops)})

    def _get_views(self, db: str):
        self._reply({"views": self.registry.get(db).info()["views"]})

    def _post_views(self, db: str):
        body = self._body()
        query_text = body.get("query")
        if not isinstance(query_text, str) or not query_text.strip():
            raise _HttpError(400, 'view define needs a {"query": "..."} body')
        session = self.registry.get(db)
        table = session.define_view(query_text)
        self._reply(
            {
                "name": table.name,
                "arity": table.arity,
                "rows": len(table),
                "version": session.version,
            },
            201,
        )

    def _delete_view(self, db: str, view: str):
        self.registry.get(db).drop_view(view)
        self._reply({"dropped": view})

    def _post_persist(self, db: str):
        path = self.registry.get(db).persist()
        self._reply({"persisted": path})


class ReproServer(ThreadingHTTPServer):
    """A threading HTTP server bound to a session registry.

    ``daemon_threads`` so in-flight request threads never block process
    exit; ``block_on_close=False`` keeps shutdown prompt in tests.  The
    server owns a :class:`QueryDispatcher` (and through it the optional
    worker pool); ``server_close`` shuts the pool down with the sockets.
    """

    daemon_threads = True
    block_on_close = False

    def __init__(
        self,
        address,
        registry: SessionRegistry,
        verbose: bool = False,
        dispatcher: "QueryDispatcher | None" = None,
    ):
        super().__init__(address, _Handler)
        self.registry = registry
        self.verbose = verbose
        self.dispatcher = dispatcher or QueryDispatcher()

    def server_close(self) -> None:
        super().server_close()
        self.dispatcher.close()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    registry: "SessionRegistry | None" = None,
    verbose: bool = False,
    workers: int = 0,
    cache_size: int = DEFAULT_CACHE_SIZE,
    slow_query_ms: "float | None" = None,
) -> ReproServer:
    """Build (but don't start) a server; ``port=0`` picks a free port.

    ``workers`` > 0 enables the multi-process read pool; ``cache_size``
    0 disables the request cache; ``slow_query_ms`` enables the
    slow-query log for requests over that many milliseconds.
    """
    return ReproServer(
        (host, port),
        registry or SessionRegistry(),
        verbose=verbose,
        dispatcher=QueryDispatcher(
            workers=workers, cache_size=cache_size, slow_query_ms=slow_query_ms
        ),
    )


def run_server(server: ReproServer) -> None:
    """Serve forever in the calling thread (KeyboardInterrupt stops it)."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()


def start_in_thread(server: ReproServer) -> threading.Thread:
    """Serve from a daemon thread (tests and embedders); returns it."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
