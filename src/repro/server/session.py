"""One served database: a write-locked session handing out immutable snapshots.

The concurrency design exploits what the paper already gives us: the
c-table algebra is a *closed representation system*, so a query over a
fixed ``TableDatabase`` is well-defined no matter what happens to other
versions of that database — and the core value types (:class:`Row`,
:class:`CTable`, :class:`TableDatabase`) are immutable, so "fixing" a
database is just holding a reference.  A :class:`DatabaseSession`
therefore needs only two disciplines:

* **one writer at a time** — mutations run under the session's write
  lock, flowing through :func:`repro.extensions.updates.apply_update`
  with the session's :class:`~repro.views.ViewManager` attached (each
  update is copy-on-write: :meth:`TableDatabase.replacing` shares every
  untouched c-table with the previous version).  A batch is all or
  nothing: every op is validated against the starting version before
  any is applied;
* **publish-then-read** — after every batch the writer fills the
  statistics memo of each table the batch rebuilt
  (:meth:`~repro.core.tables.CTable.stats`, what the planner costs
  against) and *publishes* one new :class:`Snapshot`: the database
  version and an immutable cut of every view materialization.  Readers
  grab the published snapshot in one atomic reference read and never
  touch mutable state again — no read lock, no half-maintained views,
  and a query that started before an update finishes against exactly
  the version it started on.

The snapshot-isolation invariant (enforced by the concurrent stress
tests and ``benchmarks/bench_server_throughput.py``): every response is
``strong_canonicalize``-equal to evaluating the query against the
database produced by *some prefix* of the update stream — namely the
prefix of length ``snapshot.version``.  Versions count ops, so a batch
of ``n`` ops moves the version by ``n`` and publishes only the last.
"""

from __future__ import annotations

import itertools
import threading

from typing import Sequence

from ..core.tables import CTable, TableDatabase
from ..extensions.updates import apply_update, check_update
from ..queries.prepared import PreparedQuery, QueryError, execute, match_view, prepare
from ..relational.stats import StatsStore
from ..views import ViewManager

__all__ = ["SessionError", "Snapshot", "QueryResult", "DatabaseSession"]

#: The update-op kinds a session accepts, with their payload arity.
_OP_SHAPES = {"insert": 3, "delete": 3, "modify": 4}

#: Source of :attr:`DatabaseSession.serial`.
_SERIALS = itertools.count()


class SessionError(ValueError):
    """A user-level session error: bad query, bad op, unknown view."""


class Snapshot:
    """An immutable view of a served database at one version.

    ``db`` is the c-table database (its tables carry their statistics
    memos), ``views`` the matching view materializations as ``(name,
    query_text, source_fingerprint, table)`` tuples.  Everything
    reachable from a snapshot is immutable, so it may be read from any
    thread, forever; holding an old snapshot simply pins that version's
    structurally shared tables in memory.
    """

    __slots__ = ("name", "version", "db", "views")

    def __init__(self, name: str, version: int, db: TableDatabase, views: tuple) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "db", db)
        object.__setattr__(self, "views", views)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Snapshot is immutable")

    def __repr__(self) -> str:
        return (
            f"Snapshot({self.name!r}, version={self.version}, "
            f"tables={len(self.db)}, views={len(self.views)})"
        )

    def view_table(self, name: str) -> CTable:
        """The materialization of a view in this snapshot."""
        for view_name, _query, _fingerprint, table in self.views:
            if view_name == name:
                return table
        raise SessionError(f"no view named {name!r}")


class QueryResult:
    """What one query evaluation returned: the result table, the version
    it was evaluated against, and how it was answered.

    ``analyze`` carries the JSON-ready EXPLAIN ANALYZE payload when the
    query ran with per-operator instrumentation.
    """

    __slots__ = ("table", "version", "answered_by_view", "explain", "analyze")

    def __init__(
        self,
        table,
        version,
        answered_by_view=None,
        explain=None,
        analyze=None,
    ) -> None:
        self.table = table
        self.version = version
        self.answered_by_view = answered_by_view
        self.explain = explain
        self.analyze = analyze


class DatabaseSession:
    """A named database served to concurrent readers and writers.

    Lock discipline (see the module docstring): ``_write_lock``
    serializes mutations (updates, view define/drop/refresh, persist),
    and readers take **no** lock at all: they read the ``_snapshot``
    reference once (a single atomic reference load) and work on
    immutable data from then on.
    """

    def __init__(
        self,
        name: str,
        db: TableDatabase,
        source_path: "str | None" = None,
        source_format: str = "json",
    ) -> None:
        self.name = name
        #: Unique per session object, unlike ``name``, which a dropped
        #: and re-created database reuses (the request cache keys on it).
        self.serial = next(_SERIALS)
        self.source_path = source_path
        self.source_format = source_format
        self._write_lock = threading.RLock()
        self._store = StatsStore()
        self._views = ViewManager(db)
        self._snapshot: Snapshot | None = None
        self._publish(db, 0)

    def __repr__(self) -> str:
        snap = self._snapshot
        return f"DatabaseSession({self.name!r}, version={snap.version})"

    # -- snapshots -----------------------------------------------------------

    @property
    def version(self) -> int:
        return self._snapshot.version

    @property
    def store(self) -> StatsStore:
        return self._store

    @property
    def views(self) -> ViewManager:
        return self._views

    def snapshot(self) -> Snapshot:
        """The current published snapshot — an atomic reference read."""
        return self._snapshot

    def _publish(self, db: TableDatabase, version: int) -> Snapshot:
        """Build and publish the snapshot for a new version.

        Called with the write lock held (or from ``__init__``).  The
        store fills the statistics memo of each table new in ``db``
        (tables shared with the previous version keep theirs), and the
        view cut is O(number of views); the reference swap at the end is
        the single point where readers move to the new version.
        """
        self._store.snapshot(db)
        snapshot = Snapshot(self.name, version, db, self._views.materializations())
        self._snapshot = snapshot
        return snapshot

    # -- reads ---------------------------------------------------------------

    def query(
        self,
        query_text: str,
        naive: bool = False,
        use_views: bool = False,
        explain: bool = False,
        datalog: bool = False,
        analyze: bool = False,
    ) -> QueryResult:
        """Evaluate a UCQ — or, with ``datalog=True``, a recursive
        Datalog program, answering with its first output — over the
        current snapshot: prepared once, then matched against the view
        cut (``use_views``) or evaluated.  Lock-free: writers may publish
        new versions mid-query without this reader observing them.
        ``analyze=True`` (not ``naive``) fills ``QueryResult.analyze``
        with the JSON-ready EXPLAIN ANALYZE payload.
        """
        prepared = self.prepare(query_text, datalog=datalog)
        snap = self._snapshot
        result = self.answer_from_view(prepared, snap, naive=naive, use_views=use_views)
        if result is None:
            result = self.evaluate(prepared, snap, naive=naive, explain=explain, analyze=analyze)
        return result

    @staticmethod
    def prepare(query_text: str, datalog: bool = False) -> PreparedQuery:
        """Compile query text once; bad text raises :class:`SessionError`."""
        try:
            return prepare(query_text, datalog=datalog)
        except QueryError as exc:
            raise SessionError(str(exc)) from exc

    @staticmethod
    def answer_from_view(
        prepared: PreparedQuery, snap: Snapshot, naive: bool = False, use_views: bool = False
    ) -> "QueryResult | None":
        """The view rung: ``prepared`` answered from ``snap``'s view cut,
        or ``None``.  Only with ``use_views``, and never for ``naive``
        requests: the naive evaluator is the oracle every other path is
        checked against, so it always evaluates."""
        if not use_views or naive:
            return None
        hit = match_view(prepared, ((name, fp, table) for name, _q, fp, table in snap.views))
        if hit is None:
            return None
        return QueryResult(hit[1], snap.version, answered_by_view=hit[0])

    @staticmethod
    def evaluate(
        prepared: PreparedQuery,
        snap: Snapshot,
        naive: bool = False,
        explain: bool = False,
        analyze: bool = False,
    ) -> QueryResult:
        """Evaluate ``prepared`` against ``snap``'s database."""
        try:
            execution = execute(
                prepared, snap.db, naive=naive, explain=explain, analyze=analyze
            )
        except QueryError as exc:
            raise SessionError(str(exc)) from exc
        return QueryResult(
            execution.table, snap.version, explain=execution.explain, analyze=execution.analyze
        )

    # -- writes --------------------------------------------------------------

    def apply(self, ops: Sequence) -> int:
        """Apply update-stream operations; returns the new version.

        Each op is ``["insert", rel, fact]``, ``["delete", rel, fact]``
        or ``["modify", rel, old, new]``.  The batch is all or nothing:
        every op is validated against the current version first (ops
        neither add relations nor change arities, so that check is
        exact), and a bad op raises before anything changes.  Then the
        ops are applied and published once, at ``version + len(ops)``.
        """
        ops = [self._check_op(op) for op in ops]
        with self._write_lock:
            snap = self._snapshot
            try:
                for op in ops:
                    check_update(snap.db, op)
            except KeyError as exc:
                raise SessionError(f"update: unknown relation {exc}") from exc
            except ValueError as exc:
                raise SessionError(f"update: {exc}") from exc
            db = snap.db
            for op in ops:
                db = apply_update(db, op, views=self._views)
            version = snap.version + len(ops)
            self._publish(db, version)
            return version

    @staticmethod
    def _check_op(op) -> tuple:
        if not isinstance(op, (list, tuple)) or not op:
            raise SessionError(f"update: not an operation: {op!r}")
        kind = op[0]
        expected = _OP_SHAPES.get(kind)
        if expected is None:
            raise SessionError(f"update: unknown operation kind {kind!r}")
        if len(op) != expected:
            raise SessionError(
                f"update: {kind!r} takes {expected - 1} argument(s), got {len(op) - 1}"
            )
        for fact in op[2:]:
            if not isinstance(fact, (list, tuple)):
                raise SessionError(f"update: fact must be a list of values: {fact!r}")
        return tuple(op)

    # -- views ---------------------------------------------------------------

    def define_view(self, query_text: str) -> CTable:
        """Register and materialize a view named by the first rule head.

        Recursive rule text registers a Datalog view (maintained by
        incremental re-fixpoint); plain UCQs register as before.
        """
        from ..relational.parser import ParseError, parse_rules
        from ..views import ViewError

        try:
            rules = parse_rules(query_text)
            if not rules:
                raise SessionError("view: empty view query")
            name = rules[0].head.pred
        except (ParseError, ValueError) as exc:
            raise SessionError(f"view: {exc}") from exc
        with self._write_lock:
            try:
                self._views.define_text(name, query_text)
            except KeyError as exc:
                raise SessionError(f"view: unknown relation {exc}") from exc
            except (ViewError, ValueError) as exc:
                raise SessionError(f"view: {exc}") from exc
            snap = self._publish(self._snapshot.db, self._snapshot.version)
            return snap.view_table(name)

    def drop_view(self, name: str) -> None:
        from ..views import ViewError

        with self._write_lock:
            try:
                self._views.drop(name)
            except ViewError as exc:
                raise SessionError(str(exc)) from exc
            self._publish(self._snapshot.db, self._snapshot.version)

    def adopt_views(self, registry: dict, digest: "str | None"):
        """Load a sidecar view registry into this session.

        Delegates to :func:`repro.views.persist.manager_from_registry`
        (re-materializing every stored view over the current database)
        and republishes.  Returns the names of the views whose stored
        digest did not match, for the caller to report.
        """
        from ..views.persist import manager_from_registry

        with self._write_lock:
            snap = self._snapshot
            manager, stale = manager_from_registry(registry, snap.db, digest)
            self._views = manager
            self._publish(snap.db, snap.version)
            return stale

    # -- persistence ---------------------------------------------------------

    def persist(self) -> str:
        """Write the current database and view sidecar back to disk.

        Only for file-backed sessions.  The database file is rewritten
        in its original notation (text, sealed with a content digest so
        a truncated copy cannot load; or JSON), then the view registry
        sidecar is stamped with the new file's digest — afterwards the
        file, the sidecar and this session agree, and `repro view
        list`/`repro eval --use-views` against the file see exactly the
        served state.  Returns the path written.
        """
        if self.source_path is None:
            raise SessionError(
                f"database {self.name!r} is not file-backed; nothing to persist to"
            )
        from ..io.files import atomic_write_text
        from ..io.jsonio import json_dumps
        from ..io.text import dumps_database
        from ..views.persist import file_digest, manager_to_registry, save_registry

        with self._write_lock:
            snap = self._snapshot
            if self.source_format == "text":
                payload = dumps_database(snap.db, seal=True)
            else:
                payload = json_dumps(snap.db) + "\n"
            try:
                atomic_write_text(self.source_path, payload)
            except OSError as exc:
                raise SessionError(
                    f"cannot write {self.source_path}: {exc.strerror or exc}"
                ) from exc
            digest = file_digest(self.source_path)
            save_registry(self.source_path, manager_to_registry(self._views, digest))
            return self.source_path

    # -- introspection -------------------------------------------------------

    def telemetry(self) -> dict:
        """Operational counters for this session, JSON-ready.

        Complements :meth:`info` (shape of the data) with *activity*:
        view-maintenance counters, the recent maintenance log, and the
        statistics store's collection count.  Reads the view manager's
        state under its lock so a concurrent writer can't tear the cut.
        """
        snap = self._snapshot
        views = self._views
        with views.lock:
            view_counters = dict(views.counters)
            last_maintenance = list(views.last_maintenance)
            subplans = views.subplan_count
        return {
            "version": snap.version,
            "tables": len(snap.db),
            "views": {
                "count": len(snap.views),
                "counters": view_counters,
                "last_maintenance": last_maintenance,
                "subplans": subplans,
            },
            "stats_store": self._store.counters(),
        }

    def info(self) -> dict:
        """A JSON-ready description of the session's current snapshot."""
        snap = self._snapshot
        return {
            "name": self.name,
            "version": snap.version,
            "source": self.source_path,
            "classification": snap.db.classify(),
            "tables": [
                {"name": t.name, "arity": t.arity, "rows": len(t)}
                for t in snap.db
            ],
            "views": [
                {
                    "name": view_name,
                    "query": query_text,
                    "arity": table.arity,
                    "rows": len(table),
                }
                for view_name, query_text, _fingerprint, table in snap.views
            ],
        }
