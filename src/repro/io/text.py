"""A line-oriented text notation for table databases and instances.

The notation follows the paper's figures: each table lists its global
condition first and its rows below, one per line, with local conditions in
a trailing column.  A database file looks like::

    # Figure 1(e), the c-table Te.
    %database
    %condition true

    %table R/3
    %global true
    0 1 ?z  :: z = z
    0 ?x ?y :: y = 0
    ?y ?x _ :: x != y

(there is no ``_`` placeholder -- the example above elides a term for
brevity; real rows carry exactly ``arity`` terms).  An instance file looks
like::

    %instance
    %relation R/2
    0 1
    2 3

Lexical rules
-------------
* ``# ...`` comments and blank lines are ignored everywhere.
* A row is whitespace-separated *term tokens*, optionally followed by
  ``::`` and a *local condition*.
* Term tokens: ``?name`` is a variable; an integer or float literal is a
  numeric constant; a single- or double-quoted string is a string constant
  (with ``\\`` escapes); any other bare word is also a string constant, for
  convenience.  On output, string constants are always quoted so the
  round-trip is unambiguous.
* Conditions use the notation of
  :func:`repro.core.conditions.parse_conjunction` -- atoms ``x = y`` /
  ``x != c`` joined by ``&`` or ``,``; inside conditions a bare word is a
  **variable** (matching the paper's figures, where ``x, y, z`` are nulls)
  and constants are integers or quoted strings.  Disjunctive local
  conditions (produced by query folding) are written in DNF with ``|``
  between the disjuncts.

Round-trip guarantee: ``loads_database(dumps_database(db)) == db`` whenever
every local condition is a plain conjunction (every hand-written c-table);
query-produced boolean trees round-trip up to DNF normalisation, which
preserves ``rep``.

Sealed files
------------
A database file cut short at a line boundary still parses — as a
smaller database.  ``dumps_database(db, seal=True)`` (what a file-backed
server session persists) therefore opens with a ``%sealed`` line and
ends with ``%digest sha256 HEX``, the SHA-256 of the UTF-8 text before
that line.  :func:`loads_database` verifies every ``%digest`` line
against the text before it and requires one after ``%sealed``, so a
sealed file cut short anywhere (no proper prefix of ``%sealed`` is a
directive either), or changed above its digest line, is a
:class:`TextFormatError`, not an answer.  Rows appended after the
digest line parse as usual; to edit above it by hand, delete both
lines.  Hand-written files need neither.
"""

from __future__ import annotations

import hashlib
from typing import IO

from ..core.conditions import (
    BOOL_TRUE,
    BoolCondition,
    Conjunction,
    TRUE,
    parse_conjunction,
)
from ..core.tables import CTable, Row, TableDatabase
from ..core.terms import Constant, Term, Variable
from ..relational.instance import Instance, Relation

__all__ = [
    "TextFormatError",
    "dumps_database",
    "loads_database",
    "dump_database",
    "load_database",
    "dumps_instance",
    "loads_instance",
    "dump_instance",
    "load_instance",
]


class TextFormatError(ValueError):
    """A syntax or structural error in the text notation.

    Carries the 1-based line number of the offending input line when the
    error arises during parsing.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# Term tokens
# ---------------------------------------------------------------------------

_QUOTES = "'\""


def _quote(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _unescape(body: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(body):
        if body[i] == "\\" and i + 1 < len(body):
            out.append(body[i + 1])
            i += 2
        else:
            out.append(body[i])
            i += 1
    return "".join(out)


def format_term(term: Term) -> str:
    """Render one term as a row token (inverse of :func:`parse_term_token`)."""
    if isinstance(term, Variable):
        return f"?{term.name}"
    value = term.value
    if isinstance(value, bool):
        # bool is an int subclass; keep it distinguishable.
        return _quote(f"@bool:{value}")
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return _quote(value)
    raise TextFormatError(
        f"constant payload {value!r} of type {type(value).__name__} has no "
        "text representation; use the JSON format for exotic payloads"
    )


def parse_term_token(token: str, line: int | None = None) -> Term:
    """Parse one row token into a term (see the module docstring)."""
    if not token:
        raise TextFormatError("empty term token", line)
    if token.startswith("?"):
        name = token[1:]
        if not name:
            raise TextFormatError("'?' must be followed by a variable name", line)
        return Variable(name)
    if token[0] in _QUOTES:
        if len(token) < 2 or token[-1] != token[0]:
            raise TextFormatError(f"unterminated quoted string: {token}", line)
        body = _unescape(token[1:-1])
        if body.startswith("@bool:"):
            return Constant(body[len("@bool:"):] == "True")
        return Constant(body)
    try:
        return Constant(int(token))
    except ValueError:
        pass
    try:
        return Constant(float(token))
    except ValueError:
        pass
    return Constant(token)


def _split_tokens(text: str, line: int) -> list[str]:
    """Split a row body into tokens, honouring quotes and escapes."""
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _QUOTES:
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            else:
                raise TextFormatError(f"unterminated quoted string: {text[i:]}", line)
            # Keep the raw token (escapes intact); parse_term_token unescapes.
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace():
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


def _format_cond_term(term: Term) -> str:
    """Render a condition-side term.

    Unlike row tokens, condition terms follow the core condition notation:
    bare words are variables, so variables print bare and string constants
    print quoted.
    """
    if isinstance(term, Variable):
        return term.name
    value = term.value
    if isinstance(value, bool):
        return _quote(f"@bool:{value}")
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return _quote(value)
    raise TextFormatError(
        f"constant payload {value!r} of type {type(value).__name__} has no "
        "text representation; use the JSON format for exotic payloads"
    )


def _format_atom(atom) -> str:
    left, right = atom.left, atom.right
    if isinstance(left, Constant) and isinstance(right, Variable):
        left, right = right, left
    return f"{_format_cond_term(left)} {atom.symbol} {_format_cond_term(right)}"


def _format_conjunction(conj: Conjunction) -> str:
    if not conj.atoms:
        return "true"
    return " & ".join(_format_atom(a) for a in conj.atoms)


def _as_plain_conjunction(condition: BoolCondition) -> Conjunction | None:
    """The condition as a plain conjunction of atoms, or ``None``.

    Hand-written c-table conditions are conjunctions; rendering them
    structurally (instead of via :meth:`BoolCondition.to_dnf`) keeps
    trivial atoms such as the paper's ``z = z`` intact, so hand-written
    tables round-trip exactly.
    """
    from ..core.conditions import BoolAnd, BoolAtom

    if isinstance(condition, BoolAtom):
        return Conjunction([condition.atom])
    if isinstance(condition, BoolAnd):
        atoms = []
        for child in condition.children:
            if not isinstance(child, BoolAtom):
                return None
            atoms.append(child.atom)
        return Conjunction(atoms)
    return None


def format_condition(condition: BoolCondition) -> str:
    """Render a local condition: plain conjunctions structurally, trees in DNF."""
    plain = _as_plain_conjunction(condition)
    if plain is not None:
        return _format_conjunction(plain)
    disjuncts = condition.to_dnf()
    if disjuncts == (TRUE,):
        return "true"
    if not disjuncts:
        return "false"
    return " | ".join(_format_conjunction(c) for c in disjuncts)


def parse_local_condition(text: str, line: int | None = None) -> BoolCondition:
    """Parse a local condition (a ``|``-separated DNF of conjunctions)."""
    text = text.strip()
    if not text or text == "true":
        return BOOL_TRUE
    if text == "false":
        from ..core.conditions import BOOL_FALSE

        return BOOL_FALSE
    try:
        parts = [_fix_bool_constants(parse_conjunction(part)) for part in text.split("|")]
    except ValueError as exc:
        raise TextFormatError(str(exc), line) from exc
    trees = [BoolCondition.from_conjunction(part) for part in parts]
    if len(trees) == 1:
        return trees[0]
    from ..core.conditions import BoolOr

    return BoolOr(tuple(trees)).flattened()


def _fix_bool_constants(conj: Conjunction) -> Conjunction:
    """Decode ``"@bool:..."`` string constants back into booleans."""

    def fix(term: Term) -> Term:
        if isinstance(term, Constant) and isinstance(term.value, str):
            if term.value.startswith("@bool:"):
                return Constant(term.value[len("@bool:"):] == "True")
        return term

    atoms = [type(a)(fix(a.left), fix(a.right)) for a in conj.atoms]
    return Conjunction(atoms)


def _parse_global(text: str, line: int) -> Conjunction:
    try:
        return _fix_bool_constants(parse_conjunction(text))
    except ValueError as exc:
        raise TextFormatError(str(exc), line) from exc


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dumps_database(
    db: TableDatabase, *, header: str | None = None, seal: bool = False
) -> str:
    """Serialise a :class:`TableDatabase` to the text notation; ``seal``
    adds the opening ``%sealed`` and closing ``%digest`` lines of a
    sealed file."""
    lines: list[str] = []
    if header:
        for row in header.splitlines():
            lines.append(f"# {row}".rstrip())
    if seal:
        lines.append("%sealed")
    lines.append("%database")
    if db.extra_condition() != TRUE:
        lines.append(f"%condition {_format_conjunction(db.extra_condition())}")
    for table in db:
        lines.append("")
        lines.append(f"%table {table.name}/{table.arity}")
        if table.global_condition != TRUE:
            lines.append(f"%global {_format_conjunction(table.global_condition)}")
        for row in table:
            cells = " ".join(format_term(t) for t in row.terms)
            if row.has_local_condition():
                cells += f" :: {format_condition(row.condition)}"
            lines.append(cells)
    text = "\n".join(lines) + "\n"
    if seal:
        text += f"%digest sha256 {_digest(text)}\n"
    return text


def _check_digest(text: str, lineno: int, line: str) -> None:
    """Verify a ``%digest sha256 HEX`` line against the text before it."""
    fields = line.split()
    if len(fields) != 3 or fields[1] != "sha256":
        raise TextFormatError(f"expected '%digest sha256 HEX', got {line!r}", lineno)
    before = "".join(text.splitlines(keepends=True)[: lineno - 1])
    if _digest(before) != fields[2]:
        raise TextFormatError(
            "content digest mismatch: the text before this line was cut short "
            "or changed after it was written (delete the %sealed and %digest "
            "lines to accept a hand edit)",
            lineno,
        )


def loads_database(text: str) -> TableDatabase:
    """Parse the text notation back into a :class:`TableDatabase`,
    verifying a sealed file's digest (see the module docstring)."""
    sealed = digested = False
    extra = TRUE
    tables: list[CTable] = []
    current_name: str | None = None
    current_arity = 0
    current_global = TRUE
    current_rows: list[Row] = []
    saw_database = False

    def finish_table(line: int) -> None:
        nonlocal current_name
        if current_name is None:
            return
        tables.append(CTable(current_name, current_arity, current_rows, current_global))
        current_name = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip() if not _comment_inside_quote(raw) else raw.rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("%database"):
            saw_database = True
            continue
        if stripped == "%sealed":
            sealed = True
            continue
        if stripped.startswith("%digest"):
            _check_digest(text, lineno, stripped)
            digested = True
            continue
        if stripped.startswith("%condition"):
            extra = _parse_global(stripped[len("%condition"):], lineno)
            continue
        if stripped.startswith("%table"):
            finish_table(lineno)
            spec = stripped[len("%table"):].strip()
            name, _, arity_text = spec.partition("/")
            name = name.strip()
            if not name or not arity_text.strip().isdigit():
                raise TextFormatError(
                    f"expected '%table NAME/ARITY', got {stripped!r}", lineno
                )
            current_name = name
            current_arity = int(arity_text.strip())
            current_global = TRUE
            current_rows = []
            continue
        if stripped.startswith("%global"):
            if current_name is None:
                raise TextFormatError("%global outside a %table block", lineno)
            current_global = _parse_global(stripped[len("%global"):], lineno)
            continue
        if stripped.startswith("%"):
            raise TextFormatError(f"unknown directive: {stripped.split()[0]}", lineno)
        # A row line.
        if current_name is None:
            raise TextFormatError("row outside a %table block", lineno)
        body, _, cond_text = stripped.partition("::")
        tokens = _split_tokens(body, lineno)
        if len(tokens) != current_arity:
            raise TextFormatError(
                f"row has {len(tokens)} terms, table {current_name!r} expects "
                f"{current_arity}",
                lineno,
            )
        terms = [parse_term_token(tok, lineno) for tok in tokens]
        condition = parse_local_condition(cond_text, lineno) if cond_text else None
        current_rows.append(Row(terms, condition))

    finish_table(0)
    if not saw_database and not tables:
        raise TextFormatError("not a database file (no %database / %table)")
    if sealed and not digested:
        raise TextFormatError(
            "sealed database file has no closing %digest line: it was cut short"
        )
    return TableDatabase(tables, extra)


def _comment_inside_quote(line: str) -> bool:
    """True if the first ``#`` sits inside a quoted string (keep the line)."""
    hash_pos = line.find("#")
    if hash_pos < 0:
        return False
    in_quote: str | None = None
    for i, ch in enumerate(line[:hash_pos]):
        if in_quote:
            if ch == "\\":
                continue
            if ch == in_quote:
                in_quote = None
        elif ch in _QUOTES:
            in_quote = ch
    return in_quote is not None


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def dumps_instance(instance: Instance, *, header: str | None = None) -> str:
    """Serialise an :class:`Instance` to the text notation."""
    lines: list[str] = []
    if header:
        for row in header.splitlines():
            lines.append(f"# {row}".rstrip())
    lines.append("%instance")
    for name in instance.names():
        relation = instance[name]
        lines.append("")
        lines.append(f"%relation {name}/{relation.arity}")
        facts = sorted(relation, key=lambda f: [t.sort_key() for t in f])
        for fact in facts:
            lines.append(" ".join(format_term(t) for t in fact))
    return "\n".join(lines) + "\n"


def loads_instance(text: str) -> Instance:
    """Parse the text notation back into an :class:`Instance`."""
    relations: dict[str, Relation] = {}
    current_name: str | None = None
    current_arity = 0
    current_facts: list[tuple] = []
    saw_instance = False

    def finish_relation() -> None:
        nonlocal current_name
        if current_name is None:
            return
        relations[current_name] = Relation(current_arity, current_facts)
        current_name = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip() if not _comment_inside_quote(raw) else raw.rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("%instance"):
            saw_instance = True
            continue
        if stripped.startswith("%relation"):
            finish_relation()
            spec = stripped[len("%relation"):].strip()
            name, _, arity_text = spec.partition("/")
            name = name.strip()
            if not name or not arity_text.strip().isdigit():
                raise TextFormatError(
                    f"expected '%relation NAME/ARITY', got {stripped!r}", lineno
                )
            current_name = name
            current_arity = int(arity_text.strip())
            current_facts = []
            continue
        if stripped.startswith("%"):
            raise TextFormatError(f"unknown directive: {stripped.split()[0]}", lineno)
        if current_name is None:
            raise TextFormatError("fact outside a %relation block", lineno)
        tokens = _split_tokens(stripped, lineno)
        if len(tokens) != current_arity:
            raise TextFormatError(
                f"fact has {len(tokens)} values, relation {current_name!r} "
                f"expects {current_arity}",
                lineno,
            )
        terms = [parse_term_token(tok, lineno) for tok in tokens]
        bad = [t for t in terms if isinstance(t, Variable)]
        if bad:
            raise TextFormatError(
                f"facts contain constants only, found variable {bad[0]}", lineno
            )
        current_facts.append(tuple(terms))

    finish_relation()
    if not saw_instance and not relations:
        raise TextFormatError("not an instance file (no %instance / %relation)")
    return Instance(relations)


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def dump_database(db: TableDatabase, fp: IO[str], *, header: str | None = None) -> None:
    """Write :func:`dumps_database` output to an open text file."""
    fp.write(dumps_database(db, header=header))


def load_database(fp: IO[str]) -> TableDatabase:
    """Read a database from an open text file."""
    return loads_database(fp.read())


def dump_instance(instance: Instance, fp: IO[str], *, header: str | None = None) -> None:
    """Write :func:`dumps_instance` output to an open text file."""
    fp.write(dumps_instance(instance, header=header))


def load_instance(fp: IO[str]) -> Instance:
    """Read an instance from an open text file."""
    return loads_instance(fp.read())
