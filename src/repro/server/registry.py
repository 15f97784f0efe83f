"""The named-database registry of a ``repro serve`` process.

A :class:`SessionRegistry` maps database names to live
:class:`~repro.server.session.DatabaseSession` objects.  The registry's
own lock only guards the name → session mapping (create/drop/list);
all per-database concurrency is the session's business.  Databases come
from three places: preloaded files (``repro serve --db name=path``,
which also loads the view sidecar through
:mod:`repro.views.persist`), JSON payloads posted to the HTTP API, and
programmatic :meth:`add` calls from embedding code.
"""

from __future__ import annotations

import threading

from ..core.tables import TableDatabase
from ..io.files import DatabaseFileError, load_database_file
from .session import DatabaseSession, SessionError

__all__ = ["SessionRegistry"]


class SessionRegistry:
    """Thread-safe name → :class:`DatabaseSession` mapping."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._sessions: dict[str, DatabaseSession] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._sessions

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._sessions))

    def sessions(self) -> tuple[DatabaseSession, ...]:
        with self._lock:
            return tuple(self._sessions[name] for name in sorted(self._sessions))

    def get(self, name: str) -> DatabaseSession:
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise SessionError(f"no database named {name!r}") from None

    def add(self, name: str, db: TableDatabase, **kwargs) -> DatabaseSession:
        """Register an in-memory database under ``name``."""
        session = DatabaseSession(name, db, **kwargs)
        with self._lock:
            if name in self._sessions:
                raise SessionError(f"database {name!r} already exists")
            self._sessions[name] = session
        return session

    def open_file(
        self, name: str, path: str, on_stale: str = "error"
    ) -> tuple[DatabaseSession, tuple[str, ...]]:
        """Load a database file plus its view sidecar into a session.

        The sidecar's stored views are re-materialized over the loaded
        database; a digest mismatch follows ``on_stale`` — the default
        refuses to start with an explicit error (the stale-read path is
        dead), ``"refresh"`` re-materializes with a notice, ``"skip"``
        drops the stale views from the session.  Returns the session and
        the stale view names.
        """
        from ..views import ViewError
        from ..views.persist import file_digest, load_registry

        try:
            db, source_format = load_database_file(path)
            registry = load_registry(path)
            digest = file_digest(path) if registry["views"] else None
        except (DatabaseFileError, ViewError) as exc:
            raise SessionError(str(exc)) from exc
        session = DatabaseSession(
            name, db, source_path=path, source_format=source_format
        )
        try:
            stale = session.adopt_views(registry, digest, on_stale=on_stale)
        except ViewError as exc:
            raise SessionError(str(exc)) from exc
        with self._lock:
            if name in self._sessions:
                raise SessionError(f"database {name!r} already exists")
            self._sessions[name] = session
        return session, stale

    def drop(self, name: str) -> None:
        with self._lock:
            if name not in self._sessions:
                raise SessionError(f"no database named {name!r}")
            del self._sessions[name]
