"""The c-table algebra: relational operators lifted to conditioned tables.

Each operator manipulates rows and conditions so that ``rep`` commutes with
the operator ([Imielinski-Lipski 84]'s "c-table manipulation rules", cited
by the paper in the proofs of Theorems 3.2(2), 4.2(3) and 5.2(1)):

* **select** conjoins the selection atoms onto each row's local condition;
* **project** rewrites the terms, carrying conditions along;
* **product** concatenates row pairs and conjoins their conditions;
* **join** (:func:`join_ct`) is select-over-product semantically, but hash
  partitions rows on constant-ground join columns so ground rows meet only
  their matches — the planner's workhorse (see
  :func:`repro.ctalgebra.evaluate.evaluate_ct_optimized` and
  ``benchmarks/bench_join_planner.py``);
* **union** concatenates the row lists;
* **intersect** keeps a left row under the disjunction of its match
  conditions against the right side;
* **difference** (the extension beyond positive existential) keeps a left
  row under the additional condition that no right row *both* matches it
  and is itself present — expressible because conditions negate cleanly
  into conditions (atoms flip between ``=`` and ``!=``).

Like :func:`join_ct`, the binary tuple-matching operators
(:func:`intersect_ct`, :func:`difference_ct`) hash-partition
constant-ground rows by their full term tuple and pair only
variable-bearing rows against the whole other side, so the planner's cost
estimates hold for all binary operators; the pairwise originals live on
as differential oracles in ``tests/oracles.py``.

Positive operators never grow conditions beyond polynomial size for a
fixed expression; difference multiplies condition size by the right-hand
row count, still polynomial for fixed queries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.conditions import (
    BOOL_TRUE,
    Atom as CondAtom,
    BoolAtom,
    BoolAnd,
    BoolCondition,
    BoolOr,
    Eq,
    Neq,
)
from ..core.tables import CTable, Row
from ..core.terms import Constant
from ..relational.algebra import (
    ColEq,
    ColEqConst,
    ColNeq,
    ColNeqConst,
    Predicate,
    validate_join_columns,
)
from ..relational.stats import condition_pins

__all__ = [
    "select_ct",
    "project_ct",
    "product_ct",
    "join_ct",
    "JoinPartition",
    "union_ct",
    "intersect_ct",
    "difference_ct",
]


def _predicate_atom(predicate: Predicate, terms: Sequence) -> CondAtom:
    """Translate a positional predicate into a condition atom over terms."""
    if isinstance(predicate, ColEq):
        return Eq(terms[predicate.left], terms[predicate.right])
    if isinstance(predicate, ColNeq):
        return Neq(terms[predicate.left], terms[predicate.right])
    if isinstance(predicate, ColEqConst):
        return Eq(terms[predicate.column], predicate.constant)
    if isinstance(predicate, ColNeqConst):
        return Neq(terms[predicate.column], predicate.constant)
    raise TypeError(f"unknown predicate {predicate!r}")


def _with_condition(terms: tuple, parts: list[BoolCondition]) -> Row | None:
    """Build a row, flattening conditions; None when trivially impossible."""
    flat: list[BoolCondition] = []
    for part in parts:
        if part == BOOL_TRUE:
            continue
        if part.trivially_false:
            return None
        if isinstance(part, BoolAtom) and part.atom.is_trivially_true():
            continue
        flat.append(part)
    if not flat:
        return Row._trusted(terms, BOOL_TRUE)
    return Row._trusted(terms, BoolAnd(tuple(flat)).flattened())


def select_ct(table: CTable, predicates: Iterable[Predicate], name: str | None = None) -> CTable:
    """Selection: push each predicate into the local conditions.

    A column-vs-constant predicate on a :class:`Constant` cell is decided
    without building its atom, which would be trivially true or false:
    the row survives it exactly when the cell equals (``ColEqConst``) or
    differs from (``ColNeqConst``) the constant, by :class:`Constant`
    equality, so ``Constant(1)`` neither equals ``Constant("1")`` nor
    ``Constant(True)``.
    """
    preds = list(predicates)
    rows = []
    for row in table.rows:
        terms = row.terms
        parts: list[BoolCondition] = [row.condition]
        dead = False
        for predicate in preds:
            if isinstance(predicate, (ColEqConst, ColNeqConst)):
                cell = terms[predicate.column]
                if isinstance(cell, Constant):
                    if (cell == predicate.constant) != isinstance(predicate, ColEqConst):
                        dead = True
                        break
                    continue
            atom = _predicate_atom(predicate, terms)
            if atom.is_trivially_false():
                dead = True
                break
            if not atom.is_trivially_true():
                parts.append(BoolAtom(atom))
        if dead:
            continue
        built = _with_condition(terms, parts)
        if built is not None:
            rows.append(built)
    return CTable(name or table.name, table.arity, rows, table.global_condition)


def project_ct(table: CTable, columns: Sequence[int], name: str | None = None) -> CTable:
    """Projection (with duplication/permutation, covering renaming)."""
    cols = [int(c) for c in columns]
    for col in cols:
        if not 0 <= col < table.arity:
            raise ValueError(f"projection column {col} out of range")
    rows = [
        Row._trusted(tuple([row.terms[c] for c in cols]), row.condition)
        for row in table.rows
    ]
    return CTable(name or table.name, len(cols), rows, table.global_condition)


def product_ct(left: CTable, right: CTable, name: str = "product") -> CTable:
    """Cartesian product: concatenate rows, conjoin conditions."""
    rows = []
    for lrow in left.rows:
        for rrow in right.rows:
            built = _with_condition(
                lrow.terms + rrow.terms, [lrow.condition, rrow.condition]
            )
            if built is not None:
                rows.append(built)
    return CTable(
        name,
        left.arity + right.arity,
        rows,
        left.global_condition.and_also(right.global_condition),
    )


#: Sentinel for rows whose local condition is trivially false — they
#: belong to no bucket and no world.
_DEAD = object()


class JoinPartition:
    """A hash partition of one join operand for fixed join columns.

    Splits the live rows into hash ``buckets`` (all join terms constant
    **or condition-pinned to a constant**) and the ``wild`` remainder;
    ``alive`` is every surviving row (dead rows — local condition
    trivially false — are pruned and contribute to nothing).

    A variable join term whose row condition *pins* it to a constant
    (``Eq(x, c)`` entailed by the local or the table's global condition —
    the :func:`~repro.relational.stats.condition_pins` mining the cost
    model uses) hashes under the pinned constant: in every world where
    the row exists the variable equals that constant, so pairs outside
    the bucket would only conjoin a trivially-false join equality.
    Execution thus matches the cost model, which charges pinned rows
    ground-row cost (``benchmarks/bench_join_planner.py`` guards the
    gap).  Domain pins (a small ``Or`` of constants) stay wild.

    :func:`join_ct` reads an operand's memoised partition
    (:meth:`CTable.join_partition <repro.core.tables.CTable.join_partition>`),
    which nothing mutates; incremental view maintenance builds its own
    per cached operand, keeps it in sync with :meth:`add_rows` /
    :meth:`remove_rows` and passes it back through ``left_partition`` /
    ``right_partition``, so a one-row insert does not re-partition the
    big cached side.  :meth:`add_rows` also returns a partition of just
    the added rows, the delta operand of the next join, so each delta
    row is classified once.  Classification is deterministic per row,
    so a removal finds the row where its insertion put it.
    :func:`join_ct` trusts a supplied partition and never looks at the
    operand's rows.
    """

    __slots__ = ("columns", "buckets", "wild", "alive", "_base_equalities", "_base_pins")

    def __init__(self, table: CTable, columns: Sequence[int]) -> None:
        self.columns = tuple(int(c) for c in columns)
        self._base_equalities = tuple(table.global_condition.equalities())
        self._base_pins: dict | None = None
        self.buckets: dict[tuple, list[Row]] = {}
        self.wild: list[Row] = []
        self.alive: list[Row] = []
        self._file(table.rows)

    def __repr__(self) -> str:
        return (
            f"JoinPartition(columns={self.columns}, buckets={len(self.buckets)}, "
            f"wild={len(self.wild)}, alive={len(self.alive)})"
        )

    def _classify(self, row: Row):
        """The bucket key for ``row``, ``None`` for wild, ``_DEAD`` for dead."""
        if row.condition.trivially_false:
            return _DEAD
        terms = row.terms
        key = tuple([terms[c] for c in self.columns])
        if all([isinstance(t, Constant) for t in key]):
            return key
        if row.has_local_condition():
            pins = condition_pins(row.condition, self._base_equalities)
        else:
            if self._base_pins is None:
                self._base_pins = condition_pins(None, self._base_equalities)
            pins = self._base_pins
        resolved = tuple(t if isinstance(t, Constant) else pins.get(t) for t in key)
        if all(isinstance(t, Constant) for t in resolved):
            return resolved
        return None

    def _file(self, rows: Iterable[Row]) -> None:
        # Bound locals: this loop runs once per operand row of every join.
        classify, alive, wild, buckets = self._classify, self.alive, self.wild, self.buckets
        for row in rows:
            key = classify(row)
            if key is _DEAD:
                continue
            alive.append(row)
            if key is None:
                wild.append(row)
            else:
                buckets.setdefault(key, []).append(row)

    def add_rows(self, rows: Iterable[Row]) -> "JoinPartition":
        """Add rows not yet held; returns a partition of just those rows,
        classified once for both (with this partition's columns and
        table pins)."""
        added = JoinPartition.__new__(JoinPartition)
        added.columns = self.columns
        added._base_equalities = self._base_equalities
        added._base_pins = self._base_pins
        added.buckets, added.wild, added.alive = {}, [], []
        added._file(rows)
        self.alive.extend(added.alive)
        self.wild.extend(added.wild)
        for key, bucket in added.buckets.items():
            self.buckets.setdefault(key, []).extend(bucket)
        return added

    def remove_rows(self, rows: Iterable[Row]) -> None:
        """Remove rows previously added; unknown rows are ignored (a dead
        row was never stored, so its removal is a no-op by design)."""
        for row in rows:
            key = self._classify(row)
            if key is _DEAD:
                continue
            try:
                self.alive.remove(row)
            except ValueError:
                continue
            if key is None:
                self.wild.remove(row)
            else:
                bucket = self.buckets.get(key)
                if bucket is not None:
                    bucket.remove(row)
                    if not bucket:
                        del self.buckets[key]


def join_ct(
    left: CTable,
    right: CTable,
    on: Iterable[tuple[int, int]],
    name: str = "join",
    *,
    left_partition: JoinPartition | None = None,
    right_partition: JoinPartition | None = None,
    instrument: dict | None = None,
) -> CTable:
    """Equi-join by hash partitioning on constant-ground join columns.

    Semantically identical to ``select_ct(product_ct(left, right), [ColEq
    (l, left.arity + r), ...])``: every output row concatenates a left and
    a right row and conjoins their conditions with the join equalities.
    The implementation avoids materialising the product:

    * rows whose join terms are **all constants** are hash-partitioned;
      only equal-key bucket pairs meet, so the ground-ground part costs
      O(|L| + |R| + output) instead of O(|L| x |R|);
    * rows whose variable join terms are **pinned** to a constant by
      their local (or the table's global) condition hash under the
      pinned constant — in every world where such a row exists the
      variable equals the pin, so cross-bucket pairs would only conjoin
      trivially-false equalities (see :class:`JoinPartition`);
    * rows with an **unconstrained variable** in a join column cannot be
      hashed (the variable may equal anything), so they fall back to
      pairing with every live row on the other side, conjoining the join
      equalities into the local condition — exactly what the product
      path does;
    * rows whose local condition is trivially false are dropped up front
      (they contribute nothing to any world), as are pairs whose join
      equality is between distinct constants.

    For the fully-ground c-tables produced by typical workloads the wild
    lists are short and the hash path dominates.

    A side given no partition is read through its table's memo
    (:meth:`~repro.core.tables.CTable.join_partition`), so a base table
    joined on every read is partitioned once per version.
    ``left_partition`` / ``right_partition`` supply a
    :class:`JoinPartition` for the corresponding side instead (its
    ``columns`` must equal that side's join columns); the side's rows
    are then taken from the partition — which the caller keeps in sync
    with the operand.  The view-maintenance layer uses this so a small
    delta against a big cached operand costs O(delta + matches), not
    O(cached operand).

    A pair whose join terms are both constants is decided by comparing
    them: their equality atom would be trivially true or false.

    ``instrument``, if given, receives the hash-partition shape
    (``left_buckets``/``right_buckets`` bucket counts and
    ``left_wild``/``right_wild`` fallback-row counts) — what EXPLAIN
    ANALYZE reports.  The default ``None`` costs one identity check.
    """
    pairs = validate_join_columns(on, left.arity, right.arity)
    lcols = tuple([l for l, _ in pairs])
    rcols = tuple([r for _, r in pairs])

    if left_partition is None:
        left_partition = left.join_partition(lcols)
    elif left_partition.columns != lcols:
        raise ValueError(
            f"left partition is over columns {left_partition.columns}, "
            f"join needs {lcols}"
        )
    if right_partition is None:
        right_partition = right.join_partition(rcols)
    elif right_partition.columns != rcols:
        raise ValueError(
            f"right partition is over columns {right_partition.columns}, "
            f"join needs {rcols}"
        )
    lbuckets, lwild = left_partition.buckets, left_partition.wild
    rbuckets, rwild, ralive = (
        right_partition.buckets,
        right_partition.wild,
        right_partition.alive,
    )

    if instrument is not None:
        instrument["left_buckets"] = len(lbuckets)
        instrument["right_buckets"] = len(rbuckets)
        instrument["left_wild"] = len(lwild)
        instrument["right_wild"] = len(rwild)

    rows: list[Row] = []

    def emit(lrow: Row, rrow: Row) -> None:
        lterms, rterms = lrow.terms, rrow.terms
        parts: list[BoolCondition] = [lrow.condition, rrow.condition]
        for l, r in pairs:
            a, b = lterms[l], rterms[r]
            if isinstance(a, Constant) and isinstance(b, Constant):
                if a != b:
                    return
                continue
            eq = Eq(a, b)
            if not eq.is_trivially_true():
                parts.append(BoolAtom(eq))
        built = _with_condition(lterms + rterms, parts)
        if built is not None:
            rows.append(built)

    for key, lrows in lbuckets.items():
        matches = rbuckets.get(key, ())
        for lrow in lrows:
            for rrow in matches:
                emit(lrow, rrow)
            for rrow in rwild:
                emit(lrow, rrow)
    for lrow in lwild:
        for rrow in ralive:
            emit(lrow, rrow)

    return CTable(
        name,
        left.arity + right.arity,
        rows,
        left.global_condition.and_also(right.global_condition),
    )


def union_ct(left: CTable, right: CTable, name: str = "union") -> CTable:
    """Union: concatenate the row lists."""
    if left.arity != right.arity:
        raise ValueError(f"arity mismatch: {left.arity} vs {right.arity}")
    return CTable(
        name,
        left.arity,
        list(left.rows) + list(right.rows),
        left.global_condition.and_also(right.global_condition),
    )


def _match_condition(lrow: Row, rrow: Row) -> BoolCondition | None:
    """Condition under which the two rows denote the same tuple and the
    right row is present.  None when syntactically impossible."""
    atoms: list[BoolCondition] = []
    for a, b in zip(lrow.terms, rrow.terms):
        eq = Eq(a, b)
        if eq.is_trivially_false():
            return None
        if not eq.is_trivially_true():
            atoms.append(BoolAtom(eq))
    if rrow.condition != BOOL_TRUE:
        atoms.append(rrow.condition)
    if not atoms:
        return BOOL_TRUE
    return BoolAnd(tuple(atoms)).flattened()


class _SetOpPartition:
    """Right-side partition for the tuple-matching set operators.

    Rows whose *every* term is a constant go into ``buckets`` keyed by the
    full term tuple: two such rows can only denote the same tuple when
    their keys are identical.  Rows with any variable go into ``wild``;
    they may match anything.  ``alive`` is every surviving row in input
    order (the pairing set for variable-bearing left rows).  Bucket and
    wild entries carry their original index so ground left rows can merge
    the two streams back into input order (keeping conditions shaped the
    same way the pairwise implementation shaped them).  Rows with a
    trivially-false local condition are dropped: they denote no tuple in
    any world, so they neither survive nor suppress anything.
    """

    __slots__ = ("buckets", "wild", "wild_rows", "alive")

    def __init__(self, rows: Sequence[Row], arity: int) -> None:
        columns = range(arity)
        self.buckets: dict[tuple, list[tuple[int, Row]]] = {}
        self.wild: list[tuple[int, Row]] = []
        self.alive: list[Row] = []
        for index, row in enumerate(rows):
            if row.condition.trivially_false:
                continue
            self.alive.append(row)
            if all(isinstance(row.terms[c], Constant) for c in columns):
                self.buckets.setdefault(row.terms, []).append((index, row))
            else:
                self.wild.append((index, row))
        #: The wild rows without indices, shared by every bucket-miss probe.
        self.wild_rows: list[Row] = [row for _, row in self.wild]

    def matching_rows(self, lrow: Row) -> Iterable[Row]:
        """Right rows that could match ``lrow``, in input order.

        A constant-ground left row can only match its own bucket plus the
        variable-bearing remainder (two index-sorted streams, merged); a
        variable-bearing left row must be paired with every live row.
        """
        if not all(isinstance(t, Constant) for t in lrow.terms):
            return self.alive
        bucket = self.buckets.get(lrow.terms, ())
        if not bucket:
            return self.wild_rows
        wild = self.wild
        if not wild:
            return [row for _, row in bucket]
        merged: list[Row] = []
        i = j = 0
        while i < len(bucket) and j < len(wild):
            if bucket[i][0] < wild[j][0]:
                merged.append(bucket[i][1])
                i += 1
            else:
                merged.append(wild[j][1])
                j += 1
        merged.extend(row for _, row in bucket[i:])
        merged.extend(row for _, row in wild[j:])
        return merged


def intersect_ct(left: CTable, right: CTable, name: str = "intersect") -> CTable:
    """Intersection: a left row survives iff some right row matches it.

    Hash-partitioned like :func:`join_ct`: constant-ground right rows are
    bucketed by their full term tuple, so a constant-ground left row is
    compared only against identical tuples plus the variable-bearing
    remainder — O(|L| + |R| + matches) on ground tables instead of the
    pairwise O(|L| x |R|).  Variable-bearing rows on either side fall back
    to examining the whole other side, exactly as the pairwise definition
    does.
    """
    if left.arity != right.arity:
        raise ValueError(f"arity mismatch: {left.arity} vs {right.arity}")
    partition = _SetOpPartition(right.rows, right.arity)
    rows = []
    for lrow in left.rows:
        if lrow.condition.trivially_false:
            continue
        matches = [
            cond
            for rrow in partition.matching_rows(lrow)
            if (cond := _match_condition(lrow, rrow)) is not None
        ]
        if not matches:
            continue
        disjunction: BoolCondition = (
            matches[0] if len(matches) == 1 else BoolOr(tuple(matches)).flattened()
        )
        built = _with_condition(lrow.terms, [lrow.condition, disjunction])
        if built is not None:
            rows.append(built)
    return CTable(
        name,
        left.arity,
        rows,
        left.global_condition.and_also(right.global_condition),
    )


def difference_ct(left: CTable, right: CTable, name: str = "difference") -> CTable:
    """Difference: a left row survives iff *no* right row matches it.

    This is the Imielinski-Lipski extension that closes c-tables under the
    full relational algebra; negation normal form keeps the condition a
    positive and/or tree of atoms.  Hash-partitioned like
    :func:`intersect_ct`: a constant-ground left row can only be
    suppressed by right rows holding the identical term tuple or bearing
    variables, so only those contribute negated match conditions — the
    pairwise scan over the whole right side is reserved for
    variable-bearing left rows.
    """
    if left.arity != right.arity:
        raise ValueError(f"arity mismatch: {left.arity} vs {right.arity}")
    partition = _SetOpPartition(right.rows, right.arity)
    rows = []
    for lrow in left.rows:
        if lrow.condition.trivially_false:
            continue
        parts: list[BoolCondition] = [lrow.condition]
        for rrow in partition.matching_rows(lrow):
            cond = _match_condition(lrow, rrow)
            if cond is None:
                continue
            if cond == BOOL_TRUE:
                parts = None  # type: ignore[assignment]
                break
            parts.append(cond.negated())
        if parts is None:
            continue
        built = _with_condition(lrow.terms, parts)
        if built is not None:
            rows.append(built)
    return CTable(
        name,
        left.arity,
        rows,
        left.global_condition.and_also(right.global_condition),
    )
