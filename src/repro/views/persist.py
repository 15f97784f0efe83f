"""Persistent view registry: one sidecar shared by the CLI and the server.

Materialized views defined through the command line are persisted in a
JSON sidecar next to the database file (``<database>.views.json``); a
long-lived ``repro serve`` session keeps its views in an in-process
:class:`~repro.views.ViewManager`.  Before this module, the two were
separate code paths that could silently diverge: the sidecar stored
whatever ``repro view define`` computed at definition time, while a
server (or any embedding process) rebuilt its own manager from scratch
and never saw — or updated — the sidecar.

This module is now the *only* reader and writer of the sidecar format,
and converts both ways between a registry dict and a live manager:

* :func:`manager_to_registry` snapshots a manager's views (rule text +
  current materialization), stamped with the :func:`file_digest` (sha256
  of the file's bytes) of the database file they were computed against;
* :func:`manager_from_registry` rebuilds a manager by re-defining every
  stored view over a given database.  It never reads the stored tables,
  so a view materialized against a *different* database is simply
  re-materialized; given the current file digest it also names those
  stale views, which ``repro serve`` prints as a notice at startup.
  The readers of stored tables (``repro eval --use-views``, ``repro view
  list``) compare digests themselves and never answer from a stale one.

The registry format is unchanged from the earlier CLI-private sidecar
(``{"kind": "view-registry", "views": {name: {"query", "digest",
"table"}}}``), so existing sidecars keep working.
"""

from __future__ import annotations

import hashlib
import json
import os

from ..core.tables import TableDatabase
from ..io.files import atomic_write_text
from ..io.jsonio import table_to_json
from .manager import ViewError, ViewManager

__all__ = [
    "REGISTRY_KIND",
    "RegistryFormatError",
    "registry_path",
    "file_digest",
    "empty_registry",
    "load_registry",
    "save_registry",
    "manager_to_registry",
    "manager_from_registry",
]

REGISTRY_KIND = "view-registry"


class RegistryFormatError(ViewError):
    """The sidecar file exists but is not a readable view registry."""


def registry_path(db_path: str) -> str:
    """The sidecar path for a database file."""
    return db_path + ".views.json"


def file_digest(path: str) -> str:
    """sha256 of a file's bytes — the freshness stamp for sidecar views."""
    try:
        with open(path, "rb") as fp:
            return hashlib.sha256(fp.read()).hexdigest()
    except OSError as exc:
        raise RegistryFormatError(
            f"cannot read {path}: {exc.strerror or exc}"
        ) from exc


def empty_registry() -> dict:
    return {"kind": REGISTRY_KIND, "views": {}}


def load_registry(db_path: str) -> dict:
    """The sidecar registry for a database file (empty when absent).

    Checks the shape every reader relies on: a ``view-registry`` object
    whose ``views`` maps each name to an object with a non-empty string
    ``query``.  Anything else raises :class:`RegistryFormatError` naming
    the file (and the view).  The stored ``table`` is left to its
    readers, which treat a mangled one as missing.
    """
    path = registry_path(db_path)
    if not os.path.exists(path):
        return empty_registry()
    try:
        with open(path, encoding="utf-8") as fp:
            data = json.load(fp)
    except OSError as exc:
        raise RegistryFormatError(
            f"cannot read {path}: {exc.strerror or exc}"
        ) from exc
    except ValueError as exc:
        raise RegistryFormatError(f"{path}: malformed registry: {exc}") from exc
    if (
        not isinstance(data, dict)
        or data.get("kind") != REGISTRY_KIND
        or not isinstance(data.get("views"), dict)
    ):
        raise RegistryFormatError(f"{path}: not a view registry")
    for name, entry in data["views"].items():
        if not isinstance(entry, dict):
            raise RegistryFormatError(f"{path}: view {name!r} is not a JSON object")
        query = entry.get("query")
        if not isinstance(query, str) or not query.strip():
            raise RegistryFormatError(
                f"{path}: view {name!r} has no stored query (registry edited "
                "by hand?); repro view drop it"
            )
    return data


def save_registry(db_path: str, registry: dict) -> None:
    """Write the registry sidecar next to the database file.

    Serializes fully before touching disk and replaces the sidecar
    atomically — a crash mid-save leaves the previous registry intact
    instead of a truncated JSON file that poisons every later load.
    """
    path = registry_path(db_path)
    try:
        atomic_write_text(path, json.dumps(registry, indent=2) + "\n")
    except OSError as exc:
        raise RegistryFormatError(
            f"cannot write {path}: {exc.strerror or exc}"
        ) from exc


def manager_to_registry(manager: ViewManager, digest: str) -> dict:
    """Snapshot a manager's views as a registry dict.

    Views registered programmatically (an :class:`RAExpression` with no
    rule text) cannot round-trip through the sidecar and are rejected —
    the registry must stay loadable by :func:`manager_from_registry`.
    """
    registry = empty_registry()
    for name in manager.names():
        query_text = manager.query_text(name)
        if not query_text:
            raise ViewError(
                f"view {name!r} was registered from an expression, not rule "
                "text; it cannot be persisted to a sidecar registry"
            )
        registry["views"][name] = {
            "query": query_text,
            "digest": digest,
            "table": table_to_json(manager.get(name)),
        }
    return registry


def manager_from_registry(
    registry: dict,
    db: TableDatabase,
    digest: str | None = None,
) -> tuple[ViewManager, tuple[str, ...]]:
    """Rebuild a live :class:`ViewManager` from a registry dict.

    Every stored view is re-defined (and so re-materialized) over
    ``db``; the stored tables are *not* trusted blindly, which is what
    keeps a hand-edited sidecar from poisoning a server session.  The
    registry's shape is :func:`load_registry`'s (or
    :func:`manager_to_registry`'s) to guarantee.

    ``digest`` is the current digest of the database source; when given,
    the stored views stamped with a different digest are returned as
    ``stale_names`` — re-materialized like every other view, so callers
    can report what was refreshed.  Returns ``(manager, stale_names)``.
    """
    views = registry.get("views", {})
    stale = tuple(
        name
        for name, entry in sorted(views.items())
        if digest is not None and entry.get("digest") != digest
    )
    manager = ViewManager(db)
    for name, entry in sorted(views.items()):
        manager.define_text(name, entry["query"])
    return manager, stale
