"""A thin stdlib client for the ``repro serve`` HTTP API.

Built on :mod:`urllib.request` so a client process needs nothing beyond
the standard library, mirroring the server's zero-dependency stance.
Every method maps one-to-one onto a route in
:mod:`repro.server.app`; payloads and responses are plain JSON-ready
dicts so callers (the ``repro client`` CLI, tests, benchmarks) can stay
agnostic of the wire format.  Server-side errors surface as
:class:`ServerError` carrying the HTTP status and the server's
``{"error": ...}`` message.
"""

from __future__ import annotations

import json

from urllib import error as urlerror
from urllib import request as urlrequest

__all__ = ["ServerClient", "ServerError"]


class ServerError(RuntimeError):
    """An error response (or transport failure) from a repro server."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class ServerClient:
    """Talk to a running ``repro serve`` instance at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"ServerClient({self.base_url!r})"

    # -- transport -----------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
        raw: bool = False,
    ):
        data = None
        request_headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        if headers:
            request_headers.update(headers)
        req = urlrequest.Request(
            self.base_url + path, data=data, headers=request_headers, method=method
        )
        try:
            with urlrequest.urlopen(req, timeout=self.timeout) as resp:
                # Read in a loop: large responses arrive chunked
                # (urllib decodes the framing but delivers the body in
                # pieces) and even Content-Length responses may span
                # several socket reads.
                parts = []
                while True:
                    piece = resp.read(65536)
                    if not piece:
                        break
                    parts.append(piece)
                body = b"".join(parts)
        except urlerror.HTTPError as exc:
            raw = exc.read()
            try:
                message = json.loads(raw)["error"]
            except (ValueError, KeyError, TypeError):
                message = raw.decode("utf-8", "replace") or exc.reason
            raise ServerError(message, status=exc.code) from None
        except urlerror.URLError as exc:
            raise ServerError(f"cannot reach {self.base_url}: {exc.reason}") from exc
        if raw:
            return body.decode("utf-8", "replace")
        try:
            return json.loads(body)
        except ValueError as exc:
            raise ServerError(f"non-JSON response from server: {exc}") from exc

    # -- server --------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/health")

    def stats(self) -> dict:
        """Serving-layer statistics: dispatch counters, request cache,
        worker pool, p50/p99 latency, slow-query log, per-database
        telemetry."""
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The raw Prometheus text exposition from ``GET /metrics``."""
        return self._request("GET", "/metrics", raw=True)

    def databases(self) -> list:
        return self._request("GET", "/dbs")["databases"]

    # -- databases -----------------------------------------------------------

    def create_database(self, name: str, database_json: dict) -> dict:
        return self._request("POST", f"/dbs/{name}", {"database": database_json})

    def database_info(self, name: str) -> dict:
        return self._request("GET", f"/dbs/{name}")

    def snapshot(self, name: str) -> dict:
        """Full database JSON plus the version it corresponds to."""
        return self._request("GET", f"/dbs/{name}/database")

    def drop_database(self, name: str) -> dict:
        return self._request("DELETE", f"/dbs/{name}")

    def persist(self, name: str) -> dict:
        return self._request("POST", f"/dbs/{name}/persist")

    # -- queries and updates -------------------------------------------------

    def query(
        self,
        name: str,
        query_text: str,
        *,
        naive: bool = False,
        use_views: bool = False,
        explain: bool = False,
        datalog: bool = False,
        analyze: bool = False,
        trace_id: str | None = None,
    ) -> dict:
        payload: dict = {"query": query_text}
        if naive:
            payload["naive"] = True
        if use_views:
            payload["use_views"] = True
        if explain:
            payload["explain"] = True
        if datalog:
            payload["datalog"] = True
        if analyze:
            payload["analyze"] = True
        headers = None
        if trace_id is not None:
            from ..obs.tracing import TRACE_HEADER

            headers = {TRACE_HEADER: trace_id}
        return self._request("POST", f"/dbs/{name}/query", payload, headers=headers)

    def update(self, name: str, *ops) -> dict:
        """Apply update operations, e.g. ``update("db", ["insert", "R", ["a", "b"]])``."""
        if not ops:
            raise ServerError("update needs at least one operation")
        payload = {"op": list(ops[0])} if len(ops) == 1 else {"ops": [list(op) for op in ops]}
        return self._request("POST", f"/dbs/{name}/update", payload)

    # -- views ---------------------------------------------------------------

    def views(self, name: str) -> list:
        return self._request("GET", f"/dbs/{name}/views")["views"]

    def define_view(self, name: str, query_text: str) -> dict:
        return self._request("POST", f"/dbs/{name}/views", {"query": query_text})

    def drop_view(self, name: str, view: str) -> dict:
        return self._request("DELETE", f"/dbs/{name}/views/{view}")
