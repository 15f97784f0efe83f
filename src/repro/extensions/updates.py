"""Updates on incomplete databases (Abiteboul–Grahne, reference [1]).

The paper's reference [1] ("Update semantics for incomplete databases",
VLDB 1985) studies how *insertions*, *deletions* and *modifications*
behave on the table hierarchy.  The natural possible-worlds semantics is
pointwise::

    insert(t):  rep'  =  { I ∪ {t}  :  I ∈ rep }
    delete(t):  rep'  =  { I - {t}  :  I ∈ rep }
    modify(t, t') = insert(t') after delete(t)

c-tables are closed under all three (one of the reasons [10]'s c-tables
are the "right" representation, and e-/i-/g-tables are not):

* insertion appends a row — a ground fact for a sure insert, or a row
  with nulls/conditions for an uncertain one;
* deletion of a fact ``t`` rewrites every row ``r`` able to produce
  ``t``: the row's local condition is conjoined with the *negation* of
  the unification equalities (a disjunction of inequalities, which is
  why local conditions and e-tables alone do not suffice: the class must
  be closed under negated equalities).

Both operations are per-row syntactic rewrites — constant work per row,
so updates are PTIME in the table size, matching [1].

Each operation builds a new database and never edits the old one, so the
new version of the touched table starts with an empty statistics memo
(:meth:`repro.core.tables.CTable.stats`) while every untouched table,
shared by :meth:`~repro.core.tables.TableDatabase.replacing`, keeps its
own.  An operation that changes nothing (re-inserting a fact the table
holds as an unconditional row, deleting a fact no row unifies with)
returns the old database itself, so no table is rebuilt and no memo
refilled.  An optional ``views`` (:class:`repro.views.ViewManager`) is
notified after the update is validated and applied, so materialized
views are maintained incrementally; a raising update or a no-op leaves
the views untouched.
"""

from __future__ import annotations

from typing import Iterable

from ..core.conditions import (
    BOOL_FALSE,
    BoolAnd,
    BoolAtom,
    BoolCondition,
    BoolOr,
    Eq,
    Neq,
)
from ..core.tables import Row, TableDatabase
from ..core.terms import Constant, as_constant

__all__ = ["insert_fact", "delete_fact", "modify_fact", "apply_update", "check_update"]


def _unification_atoms(row: Row, target: tuple[Constant, ...]) -> list | None:
    """The equalities forcing ``row`` to produce ``target``.

    ``None`` when the row cannot produce the target (a constant clash);
    the empty list when it *always* produces it (a ground match).
    """
    atoms = []
    for term, value in zip(row.terms, target):
        if isinstance(term, Constant):
            if term != value:
                return None
        else:
            atoms.append(Eq(term, value))
    return atoms


def _ground_target(db: TableDatabase, relation: str, fact: Iterable):
    """Coerce ``fact`` to constants and check it against the relation's
    arity; returns ``(table, target)`` without touching the database.

    Raises ``KeyError`` for an unknown relation and ``ValueError`` for a
    value that is not a constant or a fact of the wrong arity.
    """
    table = db[relation]
    try:
        target = tuple(as_constant(v) for v in fact)
    except TypeError:
        raise ValueError(f"fact values must be constants: {fact!r}") from None
    if len(target) != table.arity:
        raise ValueError(
            f"fact has arity {len(target)}, relation {relation!r} expects {table.arity}"
        )
    return table, target


def insert_fact(
    db: TableDatabase, relation: str, fact: Iterable, views=None
) -> TableDatabase:
    """Insert a (ground) fact into every possible world.

    Idempotent on the representation: the new row is unconditional, so
    every world of the result contains the fact exactly once.  When the
    table already holds that row, the constructor's dedup drops it and
    the insert changes nothing: ``db`` itself comes back and no view is
    notified.
    """
    table, target = _ground_target(db, relation, fact)
    rebuilt = table.with_rows(tuple(table.rows) + (Row(target),))
    if len(rebuilt.rows) == len(table.rows):
        return db
    updated = db.replacing(rebuilt)
    if views is not None:
        views.notify_insert(relation, target, updated)
    return updated


def delete_fact(
    db: TableDatabase, relation: str, fact: Iterable, views=None
) -> TableDatabase:
    """Delete a fact from every possible world.

    Every row able to unify with the fact has its local condition
    strengthened with the negated unification: the row survives in a
    world only under valuations where it produces a *different* fact.
    Rows equal to the fact outright (ground match, empty unification)
    are dropped.

    ``views`` is told which rows were dropped and whether any condition
    was rewritten, so it maintains pure removals by delta without
    diffing the old and new tables.  A delete that drops and rewrites
    nothing (no row unifies with the fact) returns ``db`` itself and
    notifies no view.
    """
    table, target = _ground_target(db, relation, fact)
    rows: list[Row] = []
    dropped: list[Row] = []
    rewritten = False
    for row in table.rows:
        atoms = _unification_atoms(row, target)
        if atoms is None:
            rows.append(row)  # can never produce the fact: unchanged
            continue
        if not atoms:
            dropped.append(row)  # ground row equal to the fact: always deleted
            continue
        negation: BoolCondition = BoolOr(
            tuple(BoolAtom(Neq(a.left, a.right)) for a in atoms)
        ).flattened()
        condition = (
            negation
            if not row.has_local_condition()
            else BoolAnd((row.condition, negation)).flattened()
        )
        if condition == BOOL_FALSE:
            dropped.append(row)
            continue
        strengthened = Row(row.terms, condition)
        rewritten = rewritten or strengthened != row
        rows.append(strengthened)
    if not dropped and not rewritten:
        return db
    updated = db.replacing(table.with_rows(rows))
    if views is not None:
        views.notify_delete(relation, target, updated, tuple(dropped), rewritten)
    return updated


def modify_fact(
    db: TableDatabase, relation: str, old: Iterable, new: Iterable, views=None
) -> TableDatabase:
    """Replace ``old`` by ``new`` in every possible world (delete + insert)."""
    # Validate ``new`` before any rewrite: if the insert would fail, the
    # view manager must not see the half-updated intermediate.
    _, new_target = _ground_target(db, relation, new)
    return insert_fact(delete_fact(db, relation, old, views), relation, new_target, views)


def apply_update(db: TableDatabase, op, views=None) -> TableDatabase:
    """Apply one update-stream operation (see
    :func:`repro.workloads.update_stream`): ``("insert", rel, fact)``,
    ``("delete", rel, fact)`` or ``("modify", rel, old, new)``."""
    kind = op[0]
    if kind == "insert":
        return insert_fact(db, op[1], op[2], views)
    if kind == "delete":
        return delete_fact(db, op[1], op[2], views)
    if kind == "modify":
        return modify_fact(db, op[1], op[2], op[3], views)
    raise ValueError(f"unknown update operation {kind!r}")


def check_update(db: TableDatabase, op) -> None:
    """Raise what :func:`apply_update` would raise for ``op``'s facts on
    ``db`` — ``KeyError`` for an unknown relation, ``ValueError`` for a
    non-constant value or a wrong arity — without applying it."""
    for fact in op[2:]:
        _ground_target(db, op[1], fact)
