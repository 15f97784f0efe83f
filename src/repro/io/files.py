"""Database files: the one loader, and crash-safe writing.

:func:`load_database_file` reads a database in either notation (JSON is
detected by its leading ``{``) for every front end — the CLI and
``repro serve`` — and reports every failure as a
:class:`DatabaseFileError` whose message names the file; each front end
maps it to its own error type.

A bare ``open(path, "w")`` + write is not durable: a crash (or an
exception raised mid-serialization, e.g. ``json.dump`` hitting an
unserializable object after emitting half the output) leaves a
truncated file where a good one used to be.  For the view sidecar
registry that means every later ``repro view list`` dies on malformed
JSON; for a database file it means the data is gone.

:func:`atomic_write_text` is the one write primitive the persistence
paths use instead: serialize fully in memory first, write to a
temporary file *in the same directory* (same filesystem, so the final
rename cannot degrade to a copy), fsync, then ``os.replace`` into
place.  Readers see either the old complete file or the new complete
file, never a prefix.
"""

from __future__ import annotations

import json
import os
import tempfile

from ..core.tables import TableDatabase
from .jsonio import database_from_json
from .text import TextFormatError, loads_database

__all__ = ["DatabaseFileError", "atomic_write_text", "load_database_file"]


class DatabaseFileError(ValueError):
    """A database file that cannot be read or parsed."""


def load_database_file(path: str) -> "tuple[TableDatabase, str]":
    """Load a database file (text or JSON, auto-detected).

    Returns ``(database, notation)`` with notation ``"text"`` or
    ``"json"``, so a session can persist back in the notation it was
    loaded from.  Raises :class:`DatabaseFileError` with ``cannot read
    PATH: ...`` or ``PATH: ...``.
    """
    try:
        with open(path, encoding="utf-8") as fp:
            text = fp.read()
    except OSError as exc:
        raise DatabaseFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        if text.lstrip().startswith("{"):
            return database_from_json(json.loads(text)), "json"
        return loads_database(text), "text"
    except (TextFormatError, ValueError) as exc:
        raise DatabaseFileError(f"{path}: {exc}") from exc


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path``'s contents with ``text``.

    The temporary file is cleaned up on any failure, leaving whatever
    was previously at ``path`` untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fp:
            fp.write(text)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
