"""Delta rules: incremental maintenance of the lifted operators.

When a base relation gains rows, a materialized operator result does not
have to be recomputed: each lifted operator admits an **insert delta
rule** deriving the new output rows from the small delta and the cached
inputs.  Writing ``T'`` for a table after the update and ``dT`` for the
inserted rows (``T' = T ∪ dT``), the rules are::

    d(select_p(T))   = select_p(dT)
    d(project_c(T))  = project_c(dT)
    d(L >< R)        = (L >< dR) ∪ (dL >< R')       -- also product
    d(L ∪ R)         = dL ∪ dR
    d(L ∩ R)         = (L ∩ dR) ∪ (dL ∩ R')
    d(L - R)         = dL - R        -- only when dR is empty

Each rule is *sound on representations*: ``rep(cached ∪ delta)`` equals
``rep`` of the operator over the updated inputs, even though the rows may
differ syntactically.  That is what makes the intersection rule work for
c-tables: the cached output keeps a left row under the disjunction of
its *old* match conditions, the delta re-emits the same terms under the
new matches, and the union of the two rows represents presence under
either — exactly the grown disjunction.  The differential harness in
``tests/test_views.py`` checks every rule against full re-evaluation
through ``strong_canonicalize``d world sets.

These are insert rules.  Two cases have none, and callers recompute:

* **difference with right-side inserts** — a new right row *strengthens*
  the conditions of existing output rows (they must now also fail to
  match it), which no additive delta can express;
* **condition-rewriting deletes** — a deleted fact that unifies with a
  variable-bearing row rewrites that row's condition in place, and
  without provenance there is no sound way to locate the derived output
  rows the rewritten row produced.

A delete that purely *removes* base rows needs no rule of its own: the
lifted operators are deterministic, so re-running them on the removed
rows against the cached siblings re-derives exactly the cached rows to
subtract, under per-operator guards.  :class:`repro.views.manager.
PlanCache` owns both paths — its removal walk, and the fallback
("targeted recomputation": only the plan subtree reading the touched
relation is re-executed, against cached siblings).

A note on staleness in the join/intersect rules: the ``L`` operand may
be the *old* or the *new* left cache — both are sound.  With the old
cache the rule is exact; with the new one the delta additionally
contains ``dL >< dR`` pairs that the ``dL >< R'`` term produces anyway,
and set semantics absorbs the duplicates.  The ``R'`` operand must be
the **updated** right cache.  This asymmetry is what lets a maintenance
pass update a plan tree in any child order without snapshotting.
"""

from __future__ import annotations

from typing import Sequence

from ..core.tables import CTable
from ..relational.algebra import Predicate
from .operators import (
    difference_ct,
    intersect_ct,
    join_ct,
    project_ct,
    select_ct,
)

__all__ = [
    "delta_select",
    "delta_project",
    "delta_join",
    "delta_product",
    "delta_union",
    "delta_intersect",
    "delta_difference",
]


def delta_select(delta: CTable, predicates: Sequence[Predicate]) -> CTable:
    """Insert delta of a selection: select the delta."""
    return select_ct(delta, predicates, name="delta")


def delta_project(delta: CTable, columns: Sequence[int]) -> CTable:
    """Insert delta of a projection: project the delta."""
    return project_ct(delta, columns, name="delta")


def delta_join(
    left: CTable,
    left_delta: CTable | None,
    right_new: CTable,
    right_delta: CTable | None,
    on: Sequence[tuple[int, int]],
    *,
    left_partition=None,
    right_partition=None,
) -> CTable:
    """Insert delta of an equi-join: ``(L >< dR) ∪ (dL >< R')``.

    ``left`` may be the old or the updated left cache (see the module
    docstring); ``right_new`` must be the updated right cache.  ``None``
    deltas mean "that side gained nothing".

    ``left_partition`` / ``right_partition`` optionally supply
    maintained :class:`~repro.ctalgebra.operators.JoinPartition` objects
    for the two *cached* operands (never the deltas), so a small delta
    skips re-partitioning the big side it joins against.  A supplied
    partition must mirror the corresponding operand's **updated** row
    set — which is why ``left`` with a partition means the updated left
    cache, the sound choice per the module docstring.
    """
    parts = []
    if right_delta is not None and right_delta.rows:
        parts.extend(
            join_ct(left, right_delta, on, name="delta", left_partition=left_partition).rows
        )
    if left_delta is not None and left_delta.rows:
        parts.extend(
            join_ct(
                left_delta, right_new, on, name="delta", right_partition=right_partition
            ).rows
        )
    return CTable("delta", left.arity + right_new.arity, parts)


def delta_product(
    left: CTable,
    left_delta: CTable | None,
    right_new: CTable,
    right_delta: CTable | None,
    *,
    left_partition=None,
    right_partition=None,
) -> CTable:
    """Insert delta of a product: the join rule with no columns (a join
    on no pairs puts every row in one bucket — exactly the product)."""
    return delta_join(
        left,
        left_delta,
        right_new,
        right_delta,
        (),
        left_partition=left_partition,
        right_partition=right_partition,
    )


def delta_union(
    arity: int, left_delta: CTable | None, right_delta: CTable | None
) -> CTable:
    """Insert delta of a union: both deltas, concatenated."""
    rows = []
    if left_delta is not None:
        rows.extend(left_delta.rows)
    if right_delta is not None:
        rows.extend(right_delta.rows)
    return CTable("delta", arity, rows)


def delta_intersect(
    left: CTable,
    left_delta: CTable | None,
    right_new: CTable,
    right_delta: CTable | None,
) -> CTable:
    """Insert delta of an intersection: ``(L ∩ dR) ∪ (dL ∩ R')``.

    The cached output's rows keep their *old* match disjunctions; the
    ``L ∩ dR`` term re-emits the same left terms under the new matches,
    and the row-set union represents the grown disjunction (see the
    module docstring).  Like :func:`delta_join`, ``left`` may be stale
    but ``right_new`` must be updated.
    """
    parts = []
    if right_delta is not None and right_delta.rows:
        parts.extend(intersect_ct(left, right_delta, name="delta").rows)
    if left_delta is not None and left_delta.rows:
        parts.extend(intersect_ct(left_delta, right_new, name="delta").rows)
    return CTable("delta", left.arity, parts)


def delta_difference(left_delta: CTable | None, right: CTable) -> CTable:
    """Insert delta of a difference — **left-side inserts only**.

    ``right`` must be unchanged by the update: a right-side insert has no
    additive delta (it strengthens existing output conditions) and the
    caller must recompute the node instead.
    """
    if left_delta is None or not left_delta.rows:
        return CTable("delta", right.arity, ())
    return difference_ct(left_delta, right, name="delta")
