"""Multi-process read scaling: worker pool, request cache, dispatcher.

The GIL caps aggregate reader throughput at roughly the single-reader
baseline for CPU-bound queries, no matter how many threads
``ThreadingHTTPServer`` spreads them over.  Snapshots, however, are
immutable picklable value objects with structural sharing
(:meth:`~repro.core.tables.TableDatabase.replacing`), which makes the
obvious fix cheap: evaluate queries in **worker processes**, each pinned
to exactly the snapshot the dispatching thread read.

Two cooperating pieces and the dispatcher composing them:

:class:`WorkerPool`
    ``multiprocessing`` reader processes connected by pipes.  Each
    worker keeps a per-database snapshot cache; the pool tracks what
    each worker holds and ships only the member tables that are not the
    objects the worker already holds (``replacing`` shares every
    untouched table by identity), or the whole database on first
    contact or when the table names or the extra condition differ.
    Each shipped table carries its statistics memo
    (:meth:`~repro.core.tables.CTable.stats`) in its pickle, so workers
    plan without collecting and nothing ships statistics separately.
    Workers use the ``spawn`` start method: the pool lives inside a
    threaded HTTP server, and forking a threaded process can clone held
    locks into the child (respawns happen mid-serving); a clean
    interpreter per worker is slower to start but cannot deadlock, and
    workers are long-lived.

:class:`RequestCache`
    A bounded LRU of query results keyed by ``(session serial, version,
    fingerprint, naive, use_views)``.  Versions are monotone per session,
    so invalidation is free: a version bump simply stops producing the
    old key.  Hit/miss counters feed ``/stats``.

:class:`QueryDispatcher`
    The read path composing them.  It records every request's latency
    in one :class:`~repro.obs.metrics.Histogram`
    (``repro_request_latency_seconds``), which ``/stats`` reads in
    milliseconds and ``/metrics`` as a Prometheus summary.

**Degradation ladder** (every rung answers at the version of the one
snapshot the dispatch read, so the snapshot-isolation invariant survives
any failure): request-cache hit → snapshot view match → worker pool →
in-process evaluation, all through the one pipeline of
:mod:`repro.queries.prepared`.  The pool rung is skipped when the pool
is disabled (``workers=0``) and degrades per-request when no worker is
idle in time, a worker dies (it is respawned in the background), the
payload refuses to pickle, or the worker fails internally — the
dispatcher then falls through to in-process evaluation.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
import time

from collections import OrderedDict

from ..core.tables import TableDatabase
from ..obs.metrics import CounterGroup, Histogram
from ..obs.tracing import SlowQueryLog, current_trace, new_trace_id, start_trace
from ..queries.prepared import QueryError, execute, prepare
from .session import DatabaseSession, QueryResult, SessionError, Snapshot

__all__ = [
    "QueryDispatcher",
    "RequestCache",
    "WorkerPool",
]

#: Default request-cache capacity (entries, LRU-evicted).
DEFAULT_CACHE_SIZE = 256

#: Seconds a dispatch waits for an idle worker / a worker reply before
#: degrading to the in-process path.
DEFAULT_POOL_TIMEOUT = 30.0


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _evaluate(db: TableDatabase, query_text: str, options: dict) -> tuple:
    """Worker-side evaluation: the in-process ``prepare`` and ``execute``
    on the query text (plans do not pickle; views are matched in the
    main process), planned from the shipped tables' statistics memos.
    The dispatcher's trace id rides ``options["trace_id"]`` and names the
    worker's trace — one id per request, across the process boundary.
    """
    try:
        with start_trace(name="worker", trace_id=options.get("trace_id")):
            prepared = prepare(query_text)
            execution = execute(
                prepared, db,
                naive=bool(options.get("naive")), explain=bool(options.get("explain")),
            )
    except QueryError as exc:
        return ("err", "session", str(exc))
    return ("ok", execution.table, execution.explain)


def _worker_main(conn) -> None:
    """Worker process loop: receive ``("query", ...)`` messages, keep a
    per-database snapshot cache, evaluate, reply.  ``None`` stops it."""
    cache: dict[str, TableDatabase] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        try:
            _kind, name, payload, query_text, options = message
            if payload[0] == "cached":
                db = cache[name]
            elif payload[0] == "delta":
                db = cache[name] = cache[name].replacing(*payload[1])
            else:  # "full"
                db = cache[name] = payload[1]
            reply = _evaluate(db, query_text, options)
        except Exception as exc:  # pragma: no cover - defensive
            reply = ("err", "internal", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            # dumps() happens before any bytes hit the pipe, so the
            # stream is still clean and an error reply can follow.
            try:
                conn.send(("err", "internal", f"result not picklable: {exc}"))
            except (OSError, ValueError):
                return
        except (OSError, ValueError, BrokenPipeError):
            return


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


class _WorkerDied(Exception):
    """Internal: the worker handling a request timed out or vanished."""


class _WorkerSlot:
    """One worker process, its pipe, and what snapshots it holds.

    ``known`` maps database name → the exact :class:`TableDatabase`
    object last shipped, the base the next changed-table delta is
    computed against.  A slot is owned by at most one dispatching
    thread at a time (ownership = holding it out of the idle queue), so
    ``known`` needs no lock.
    """

    __slots__ = ("process", "conn", "known")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.known: dict[str, TableDatabase] = {}


class WorkerPool:
    """A fixed-size pool of read-worker processes.

    ``query`` returns a :class:`QueryResult`, raises
    :class:`SessionError` for user-level errors the worker reported
    (bad query text, unknown relation), or returns ``None`` to tell the
    caller to degrade to the in-process path (pool disabled, no idle
    worker in time, worker death, non-picklable payload, internal
    worker failure).  A dead worker's slot is respawned immediately so
    the pool heals to full size.
    """

    def __init__(self, workers: int, timeout: float = DEFAULT_POOL_TIMEOUT) -> None:
        self.size = max(0, int(workers))
        self.timeout = float(timeout)
        self._context = multiprocessing.get_context("spawn")
        self._idle: "queue.Queue[_WorkerSlot]" = queue.Queue()
        self._slots: list[_WorkerSlot] = []
        self._lock = threading.Lock()
        self._closed = False
        # CounterGroup is a dict subclass, so existing readers
        # (dict(pool.counters), stats()) keep working unchanged.
        self.counters = CounterGroup((
            "dispatched",
            "full_ships",
            "delta_ships",
            "delta_tables",
            "cached_ships",
            "pickle_failures",
            "worker_failures",
            "worker_errors",
            "respawns",
        ))
        for _ in range(self.size):
            slot = self._spawn()
            self._slots.append(slot)
            self._idle.put(slot)

    @property
    def enabled(self) -> bool:
        return self.size > 0 and not self._closed

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots if slot.process.is_alive())

    def _bump(self, key: str, amount: int = 1) -> None:
        self.counters.bump(key, amount)

    def _spawn(self) -> _WorkerSlot:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child_conn,), daemon=True, name="repro-read-worker"
        )
        process.start()
        child_conn.close()
        return _WorkerSlot(process, parent_conn)

    def _replace(self, slot: _WorkerSlot) -> None:
        """Retire a dead/wedged slot and respawn a fresh worker in its place."""
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=1.0)
        with self._lock:
            if self._closed:
                return
            fresh = self._spawn()
            self._slots[self._slots.index(slot)] = fresh
        self.counters.bump("respawns")
        self._idle.put(fresh)

    def _payload(self, slot: _WorkerSlot, name: str, snapshot: Snapshot):
        """What to ship so the slot's worker holds ``snapshot.db``.

        Nothing when the worker holds this very database; otherwise the
        tables that are not the objects the worker holds, or the full
        database on first contact or when the table names or the extra
        condition differ.  A table rebuilt without changing ships too.
        """
        db = snapshot.db
        known = slot.known.get(name)
        if known is db:
            return ("cached",)
        if (
            known is not None
            and known.names() == db.names()
            and known.extra_condition() == db.extra_condition()
        ):
            return ("delta", tuple(
                table for table, old in zip(db.tables(), known.tables()) if table is not old
            ))
        return ("full", db)

    def query(
        self,
        name: str,
        snapshot: Snapshot,
        query_text: str,
        *,
        naive: bool = False,
        explain: bool = False,
        trace_id: "str | None" = None,
    ) -> "QueryResult | None":
        if not self.enabled:
            return None
        try:
            slot = self._idle.get(timeout=self.timeout)
        except queue.Empty:
            self._bump("worker_failures")
            return None
        replace = False
        try:
            payload = self._payload(slot, name, snapshot)
            options = {"naive": naive, "explain": explain, "trace_id": trace_id}
            try:
                slot.conn.send(("query", name, payload, query_text, options))
            except (pickle.PicklingError, TypeError, AttributeError):
                # dumps() failed before any bytes were written: the pipe
                # is intact, only this payload can't cross it.  Forget
                # the shipped state for this database and degrade.
                slot.known.pop(name, None)
                self._bump("pickle_failures")
                return None
            if payload[0] == "cached":
                self._bump("cached_ships")
            elif payload[0] == "delta":
                slot.known[name] = snapshot.db
                self._bump("delta_ships")
                self._bump("delta_tables", len(payload[1]))
            else:
                slot.known[name] = snapshot.db
                self._bump("full_ships")
            if not slot.conn.poll(self.timeout):
                raise _WorkerDied(f"no reply within {self.timeout}s")
            reply = slot.conn.recv()
            if reply[0] == "err" and reply[1] == "internal":
                # The worker survived but its snapshot cache may not
                # match what we think it holds; force a full re-ship.
                slot.known.clear()
        except (EOFError, OSError, BrokenPipeError, _WorkerDied):
            replace = True
            self._bump("worker_failures")
            return None
        finally:
            if replace:
                self._replace(slot)
            else:
                self._idle.put(slot)
        if reply[0] == "ok":
            self._bump("dispatched")
            return QueryResult(reply[1], snapshot.version, explain=reply[2])
        if reply[1] == "session":
            self._bump("dispatched")
            raise SessionError(reply[2])
        self._bump("worker_errors")
        return None

    def stats(self) -> dict:
        counters = self.counters.snapshot()
        with self._lock:
            alive = sum(1 for slot in self._slots if slot.process.is_alive())
        return {"enabled": self.size > 0, "workers": self.size, "alive": alive, **counters}

    def close(self) -> None:
        """Stop every worker; in-flight requests degrade inline."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            slots = list(self._slots)
        for slot in slots:
            try:
                slot.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for slot in slots:
            slot.process.join(timeout=1.0)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
            try:
                slot.conn.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Request cache
# ---------------------------------------------------------------------------


class RequestCache:
    """A bounded LRU of query results keyed by version + query fingerprint.

    Soundness is the version key: a session's versions are monotone and
    every cached result was evaluated at exactly the version in its key
    (the key names the session by its :attr:`~repro.server.session.
    DatabaseSession.serial`, so a database dropped and re-created under
    the same name starts from version 0 without meeting the old entries),
    so a lookup can only ever return an answer correct *for the version
    the caller asked about* — an update doesn't invalidate entries, it
    just moves new lookups to a new key and lets the old entries age out
    of the LRU.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE) -> None:
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._data: "OrderedDict[tuple, QueryResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> "QueryResult | None":
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._data[key] = value  # re-insert: most recently used
            self.hits += 1
            return value

    def put(self, key: tuple, value: QueryResult) -> None:
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def counters(self) -> dict:
        with self._lock:
            return {
                "enabled": True,
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._data),
                "capacity": self.capacity,
            }


# ---------------------------------------------------------------------------
# Dispatcher: the serving layer's one read path
# ---------------------------------------------------------------------------


class QueryDispatcher:
    """Cache + pool + latency histogram in front of ``DatabaseSession``s.

    One dispatcher serves every database behind a server (cache keys
    carry the database name).  ``query`` walks the degradation ladder —
    cache hit, snapshot view match, worker pool, in-process — and
    returns ``(QueryResult, served_by)`` with ``served_by`` one of
    ``"cache"``, ``"view"``, ``"pool"``, ``"inline"``.

    Every rung answers at the version of the one snapshot the dispatch
    read, so a result is always cached under the version it is correct
    for, however many versions a writer publishes meanwhile.
    """

    def __init__(
        self,
        workers: int = 0,
        cache_size: int = DEFAULT_CACHE_SIZE,
        slow_query_ms: "float | None" = None,
    ) -> None:
        self.pool = WorkerPool(workers) if workers > 0 else None
        self.cache = RequestCache(cache_size) if cache_size > 0 else None
        self.latency = Histogram(
            name="repro_request_latency_seconds",
            help="Per-request dispatch latency (rolling window).",
        )
        self.slow_log = SlowQueryLog(slow_query_ms)
        self.counters = CounterGroup((
            "queries",
            "cache_answers",
            "view_answers",
            "pool_answers",
            "inline_answers",
            "analyze_answers",
            "errors",
        ))

    def _bump(self, key: str) -> None:
        self.counters.bump(key)

    def query(
        self,
        session: DatabaseSession,
        query_text: str,
        *,
        naive: bool = False,
        use_views: bool = False,
        explain: bool = False,
        datalog: bool = False,
        analyze: bool = False,
        trace_id: "str | None" = None,
    ) -> "tuple[QueryResult, str]":
        """Dispatch one query; returns ``(result, served_by)``.

        Every dispatch runs under a :func:`~repro.obs.tracing.start_trace`
        scoped to this call — ``trace_id`` (e.g. from the client's
        ``X-Repro-Trace-Id`` header) names it, or a fresh id is minted.
        ``analyze=True`` forces the in-process EXPLAIN ANALYZE path:
        the cache and worker-pool rungs are skipped (instrumented
        results are never cached, and workers don't speak analyze), so
        the reported timings always describe a real execution.
        """
        trace_id = trace_id or new_trace_id()
        start = time.perf_counter()
        self._bump("queries")
        served_by = "error"
        try:
            with start_trace(name="dispatch", trace_id=trace_id):
                result, served_by = self._ladder(
                    session, query_text, naive, use_views, explain, datalog, analyze
                )
        except BaseException:
            self._bump("errors")
            raise
        finally:
            elapsed = time.perf_counter() - start
            self.latency.record(elapsed)
            if self.slow_log.enabled:
                self.slow_log.record(
                    session.name, query_text, elapsed * 1e3, served_by, trace_id
                )
        self._bump(f"{served_by}_answers")
        if analyze:
            self._bump("analyze_answers")
        return result, served_by

    def _ladder(self, session, query_text, naive, use_views, explain, datalog, analyze):
        """cache → view → pool (UCQs only) → inline, all at one snapshot,
        the query prepared once.  A program with several outputs has no
        fingerprint and is never cached."""
        prepared = session.prepare(query_text, datalog=datalog)
        snap = session.snapshot()
        key = None
        if (
            self.cache is not None and not explain and not analyze
            and prepared.fingerprint is not None
        ):
            key = (session.serial, snap.version, prepared.fingerprint, naive, use_views)
            hit = self.cache.get(key)
            if hit is not None:
                return hit, "cache"
        result = session.answer_from_view(prepared, snap, naive=naive, use_views=use_views)
        served_by = "view"
        if result is None and self.pool is not None and prepared.kind == "ucq" and not analyze:
            active = current_trace()
            result = self.pool.query(
                session.name,
                snap,
                query_text,
                naive=naive,
                explain=explain,
                trace_id=active.trace_id if active is not None else None,
            )
            served_by = "pool"
        if result is None:
            result = session.evaluate(
                prepared, snap, naive=naive, explain=explain, analyze=analyze
            )
            served_by = "inline"
        if key is not None:
            self.cache.put(key, result)
        return result, served_by

    def stats(self) -> dict:
        """The ``/stats`` payload: dispatch counters, cache, pool, latency
        (the histogram's summary in milliseconds), slow-query log."""
        latency = self.latency.summary()
        return {
            "queries": self.counters.snapshot(),
            "cache": self.cache.counters() if self.cache is not None else {"enabled": False},
            "pool": self.pool.stats() if self.pool is not None else {"enabled": False, "workers": 0},
            "latency": {
                "count": latency["count"],
                "window": latency["window"],
                "mean_ms": latency["mean"] * 1e3,
                "p50_ms": latency["p50"] * 1e3,
                "p99_ms": latency["p99"] * 1e3,
            },
            "slow_queries": self.slow_log.stats(),
        }

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
