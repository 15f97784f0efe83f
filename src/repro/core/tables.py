"""Tables: the paper's hierarchy of representations of sets of possible worlds.

From Section 2.2:

* **table** (Codd-table): a relation over constants and variables, each
  variable occurring at most once;
* **e-table**: equalities incorporated directly into the matrix, i.e.
  variables may repeat ("V-tables" / "naive tables" in the literature);
* **i-table**: a table plus a global conjunction of inequalities;
* **g-table**: an e-table plus a global conjunction of inequalities
  (equivalently, a c-table without local conditions);
* **c-table**: a g-table plus a *local condition* per tuple.

Everything is represented by one class, :class:`CTable`; the restricted
kinds are characterised by :meth:`CTable.classify` and enforced by the
algorithm entry points that require them.  Local conditions are stored as
:class:`~repro.core.conditions.BoolCondition` trees because applying a
positive existential query to a c-table yields and/or combinations
(Theorem 3.2(2) step (*)); hand-written c-tables normally use plain
conjunctions, for which constructors accept :class:`Conjunction` directly.

A :class:`TableDatabase` is the paper's n-vector of c-tables.  The paper
requires the variable sets of the member tables to be pairwise disjoint and
channels relationships through condition variables; we allow variables to be
shared across tables directly (a strictly more convenient, semantically
identical formulation: one valuation is applied to the whole vector).

Tables and databases are immutable values.  An update builds a new
version with :meth:`TableDatabase.replacing`, which shares every
untouched table by identity, so "did this table change?" is an identity
test: the serving layer's worker pool ships exactly the tables that are
not the objects a worker already holds.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..relational.instance import Instance, Relation
from ..relational.schema import DatabaseSchema, RelationSchema
from .conditions import (
    BOOL_TRUE,
    BoolAtom,
    BoolCondition,
    Conjunction,
    Eq,
    Neq,
    TRUE,
)
from .pickling import pickles_by_slots
from .terms import Constant, Term, Variable, as_term, variables_in

__all__ = ["Row", "CTable", "TableDatabase", "codd_table", "e_table", "i_table", "g_table", "c_table"]


def _as_bool_condition(condition) -> BoolCondition:
    if condition is None:
        return BOOL_TRUE
    if isinstance(condition, BoolCondition):
        return condition
    if isinstance(condition, Conjunction):
        return BoolCondition.from_conjunction(condition)
    raise TypeError(f"not a condition: {condition!r}")


def _row(terms: tuple, condition: BoolCondition) -> "Row":
    """Unpickle a :class:`Row`: its parts arrive already checked, and
    :meth:`Row._trusted` recomputes the hash under this process's seed."""
    return Row._trusted(terms, condition)


class Row:
    """One tuple of a c-table: terms plus a local condition.

    A row memoises its hash, like the terms and conditions it holds.
    """

    __slots__ = ("terms", "condition", "_hash")

    def __init__(self, terms: Iterable, condition=None) -> None:
        terms = tuple(as_term(t) for t in terms)
        condition = _as_bool_condition(condition)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "_hash", hash((terms, condition)))

    @classmethod
    def _trusted(cls, terms: "tuple[Term, ...]", condition: BoolCondition) -> "Row":
        """Construct without coercion: the caller guarantees ``terms`` is a
        tuple of :class:`Term` objects and ``condition`` a
        :class:`BoolCondition` — the c-table operators' outputs, the
        fixpoint's stored facts and unpickling."""
        row = object.__new__(cls)
        object.__setattr__(row, "terms", terms)
        object.__setattr__(row, "condition", condition)
        object.__setattr__(row, "_hash", hash((terms, condition)))
        return row

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Row is immutable")

    def __reduce__(self):
        return (_row, (self.terms, self.condition))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Row)
            and self._hash == other._hash
            and self.terms == other.terms
            and self.condition == other.condition
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(map(str, self.terms))
        if self.condition == BOOL_TRUE:
            return f"({body})"
        return f"({body}) if {self.condition}"

    @property
    def arity(self) -> int:
        return len(self.terms)

    def has_local_condition(self) -> bool:
        return self.condition != BOOL_TRUE

    def variables(self) -> set[Variable]:
        return variables_in(self.terms) | self.condition.variables()

    def matrix_variables(self) -> set[Variable]:
        """Variables of the terms only (not of the local condition)."""
        return variables_in(self.terms)

    def constants(self) -> set[Constant]:
        out = {t for t in self.terms if isinstance(t, Constant)}
        return out | self.condition.constants()

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Row":
        return Row(
            tuple(mapping.get(t, t) if isinstance(t, Variable) else t for t in self.terms),
            self.condition.substitute(mapping),
        )

    def condition_dnf(self) -> tuple[Conjunction, ...]:
        """The local condition in disjunctive normal form."""
        return self.condition.to_dnf()


@pickles_by_slots
class CTable:
    """A conditioned table: rows, local conditions and a global condition."""

    __slots__ = ("name", "arity", "rows", "global_condition", "_stats", "_partitions")

    #: Memo slots :func:`~repro.core.pickling.pickles_by_slots` leaves out:
    #: a process that receives the table rebuilds them on first use.
    _transient_slots = ("_partitions",)

    def __init__(
        self,
        name: str,
        arity: int,
        rows: Iterable[Row | Iterable],
        global_condition: Conjunction = TRUE,
    ) -> None:
        normalised: list[Row] = []
        seen: set[Row] = set()
        for row in rows:
            if not isinstance(row, Row):
                row = Row(row)
            if row.arity != arity:
                raise ValueError(
                    f"row {row!r} has arity {row.arity}, table {name!r} expects {arity}"
                )
            if row not in seen:
                seen.add(row)
                normalised.append(row)
        if not isinstance(global_condition, Conjunction):
            raise TypeError("global condition must be a Conjunction")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "rows", tuple(normalised))
        object.__setattr__(self, "global_condition", global_condition)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("CTable is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CTable)
            and self.name == other.name
            and self.arity == other.arity
            and self.rows == other.rows
            and self.global_condition == other.global_condition
        )

    def __hash__(self) -> int:
        return hash((self.name, self.arity, self.rows, self.global_condition))

    def __repr__(self) -> str:
        return f"CTable({self.name!r}, arity={self.arity}, rows={len(self.rows)}, global={self.global_condition})"

    def __str__(self) -> str:
        """Render in the paper's figure style: condition on top, rows below."""
        lines = []
        if self.global_condition != TRUE:
            lines.append(f"| {self.global_condition} |")
        widths = [0] * self.arity
        rendered = []
        for row in self.rows:
            cells = [str(t) for t in row.terms]
            rendered.append((cells, row))
            for i, cell in enumerate(cells):
                widths[i] = max(widths[i], len(cell))
        for cells, row in rendered:
            line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
            if row.has_local_condition():
                line += f"   [{row.condition}]"
            lines.append(line.rstrip())
        return "\n".join(lines) if lines else f"(empty {self.name})"

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    # -- structure ---------------------------------------------------------------

    def variables(self) -> set[Variable]:
        out = self.global_condition.variables()
        for row in self.rows:
            out |= row.variables()
        return out

    def matrix_variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for row in self.rows:
            out |= row.matrix_variables()
        return out

    def constants(self) -> set[Constant]:
        out = self.global_condition.constants()
        for row in self.rows:
            out |= row.constants()
        return out

    def substitute(self, mapping: Mapping[Variable, Term]) -> "CTable":
        return CTable(
            self.name,
            self.arity,
            (row.substitute(mapping) for row in self.rows),
            self.global_condition.substitute(mapping),
        )

    def with_rows(self, rows: Iterable[Row]) -> "CTable":
        return CTable(self.name, self.arity, rows, self.global_condition)

    @classmethod
    def _trusted(
        cls,
        name: str,
        arity: int,
        rows: "tuple[Row, ...]",
        global_condition: Conjunction,
    ) -> "CTable":
        """Construct without validation or deduplication.

        The single audited escape hatch from the constructor's
        invariants: the caller guarantees ``rows`` is a tuple of
        pairwise-distinct :class:`Row` objects of arity ``arity``.  Used
        by :meth:`extended`; the view-maintenance layer
        (:mod:`repro.views`), whose caches track row sets explicitly and
        would otherwise pay an O(table) re-validation per O(delta)
        change; the fixpoint (:mod:`repro.queries.fixpoint`), whose fact
        sets hold distinct rows; and the renames that name a result
        without copying it — an answer served from a view
        (:mod:`repro.queries.prepared`) and the evaluator's result
        (:mod:`repro.ctalgebra.evaluate`), whose operator outputs are
        already deduplicated.
        """
        table = cls.__new__(cls)
        object.__setattr__(table, "name", name)
        object.__setattr__(table, "arity", arity)
        object.__setattr__(table, "rows", rows)
        object.__setattr__(table, "global_condition", global_condition)
        return table

    def extended(self, new_rows: Sequence[Row]) -> "CTable":
        """This table plus ``new_rows`` — the view-maintenance append path.

        The caller guarantees ``new_rows`` are :class:`Row` objects of the
        right arity, already deduplicated and absent from :attr:`rows`
        (the view layer tracks a seen-set per cached table).  This skips
        the constructor's per-row re-validation, re-hashing and
        re-deduplication of the existing rows; the tuple concatenation
        itself is still O(table), but a plain pointer copy.
        """
        return CTable._trusted(
            self.name, self.arity, self.rows + tuple(new_rows), self.global_condition
        )

    def with_global_condition(self, condition: Conjunction) -> "CTable":
        return CTable(self.name, self.arity, self.rows, condition)

    def stats(self):
        """This table's planner statistics
        (:class:`~repro.relational.stats.TableStats`, default histogram
        shape), memoised in a lazily set slot.

        A table is a value, so its statistics never go stale: an update
        builds a new table with an empty memo, and
        :meth:`TableDatabase.replacing` shares every untouched table —
        memo included.  No lock: a lost race collects the same value
        twice.  The memo pickles with the table (see
        :meth:`join_partition` for the memo that does not).
        """
        try:
            return self._stats
        except AttributeError:
            pass
        from ..relational.stats import TableStats

        value = TableStats.from_rows(self.name, self.arity, self.rows, self.global_condition)
        object.__setattr__(self, "_stats", value)
        return value

    def has_stats(self) -> bool:
        """Whether :meth:`stats` is already memoised."""
        return hasattr(self, "_stats")

    def join_partition(self, columns: "tuple[int, ...]"):
        """This table's :class:`~repro.ctalgebra.operators.JoinPartition`
        on the join columns ``columns``, memoised per column tuple.

        :func:`~repro.ctalgebra.operators.join_ct` reads it for an operand
        it is given no partition for, so a table joined by every read is
        classified once per value, not once per read.  The partition is
        shared and must never be mutated: incremental maintenance builds
        and mutates its own.  No lock: a lost race classifies the rows
        twice and keeps one equal partition.  The memo is not pickled
        (:attr:`_transient_slots`); it costs as much to ship as to
        rebuild.
        """
        try:
            memo = self._partitions
        except AttributeError:
            memo = {}
            object.__setattr__(self, "_partitions", memo)
        part = memo.get(columns)
        if part is None:
            from ..ctalgebra.operators import JoinPartition

            part = memo.setdefault(columns, JoinPartition(self, columns))
        return part

    # -- classification ------------------------------------------------------------

    def has_local_conditions(self) -> bool:
        return any(row.has_local_condition() for row in self.rows)

    def variable_occurrences(self) -> dict[Variable, int]:
        """How many times each variable occurs in the matrix."""
        counts: dict[Variable, int] = {}
        for row in self.rows:
            for term in row.terms:
                if isinstance(term, Variable):
                    counts[term] = counts.get(term, 0) + 1
        return counts

    def classify(self) -> str:
        """The tightest class among ``codd``, ``e``, ``i``, ``g``, ``c``.

        Precedence follows the paper's hierarchy: a table with no conditions
        and no repeated variable is a Codd-table; equality-only global
        conditions (or repeated variables) make an e-table; inequality-only
        global conditions over a Codd matrix make an i-table; mixed global
        conditions (or inequalities over a repeated-variable matrix) make a
        g-table; local conditions make a c-table.
        """
        if self.has_local_conditions():
            return "c"
        eqs = self.global_condition.equalities()
        neqs = self.global_condition.inequalities()
        repeated = any(n > 1 for n in self.variable_occurrences().values())
        if not eqs and not neqs:
            return "e" if repeated else "codd"
        if not neqs:
            return "e"
        if not eqs and not repeated:
            return "i"
        return "g"

    def is_codd(self) -> bool:
        return self.classify() == "codd"

    def is_e_table(self) -> bool:
        return self.classify() in ("codd", "e")

    def is_i_table(self) -> bool:
        return self.classify() in ("codd", "i")

    def is_g_table(self) -> bool:
        return self.classify() in ("codd", "e", "i", "g")


@pickles_by_slots
class TableDatabase:
    """An n-vector of c-tables: the input representation of every problem.

    The database's *global condition* is the conjunction of the member
    tables' global conditions with an optional extra database-level
    conjunction (useful when conditions relate variables of different
    tables).
    """

    __slots__ = ("_tables", "_extra_condition")

    def __init__(
        self,
        tables: Iterable[CTable] | Mapping[str, CTable],
        extra_condition: Conjunction = TRUE,
    ) -> None:
        if isinstance(tables, Mapping):
            seq = list(tables.values())
        else:
            seq = list(tables)
        names = [t.name for t in seq]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate table names: {names}")
        object.__setattr__(self, "_tables", {t.name: t for t in seq})
        object.__setattr__(self, "_extra_condition", extra_condition)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("TableDatabase is immutable")

    @staticmethod
    def single(table: CTable, extra_condition: Conjunction = TRUE) -> "TableDatabase":
        return TableDatabase([table], extra_condition)

    # -- container protocol ---------------------------------------------------------

    def __getitem__(self, name: str) -> CTable:
        return self._tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[CTable]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TableDatabase)
            and self._tables == other._tables
            and self._extra_condition == other._extra_condition
        )

    def __hash__(self) -> int:
        return hash((tuple(self._tables.items()), self._extra_condition))

    def __repr__(self) -> str:
        return f"TableDatabase([{', '.join(map(repr, self._tables.values()))}])"

    # -- accessors -------------------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def tables(self) -> tuple[CTable, ...]:
        return tuple(self._tables.values())

    def schema(self) -> DatabaseSchema:
        return DatabaseSchema(
            [RelationSchema(t.name, t.arity) for t in self._tables.values()]
        )

    def global_condition(self) -> Conjunction:
        """The conjunction of all tables' global conditions and the extra one."""
        out = self._extra_condition
        for table in self._tables.values():
            out = out.and_also(table.global_condition)
        return out

    def extra_condition(self) -> Conjunction:
        return self._extra_condition

    def variables(self) -> set[Variable]:
        out = self._extra_condition.variables()
        for table in self._tables.values():
            out |= table.variables()
        return out

    def matrix_variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for table in self._tables.values():
            out |= table.matrix_variables()
        return out

    def constants(self) -> set[Constant]:
        out = self._extra_condition.constants()
        for table in self._tables.values():
            out |= table.constants()
        return out

    def total_rows(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def substitute(self, mapping: Mapping[Variable, Term]) -> "TableDatabase":
        return TableDatabase(
            [t.substitute(mapping) for t in self._tables.values()],
            self._extra_condition.substitute(mapping),
        )

    # -- snapshots / copy-on-write ----------------------------------------------------

    def replacing(self, *tables: CTable) -> "TableDatabase":
        """A new database with the given member tables swapped in.

        The copy-on-write primitive behind updates and the serving
        layer's snapshot isolation: the result shares every unchanged
        :class:`CTable` (and every :class:`Row` inside the replaced
        ones) with this database, so producing a new version is O(number
        of tables), not O(total rows).  Both versions are immutable and
        stay valid forever — a reader holding the old database never
        observes the change.  Each replacement must name an existing
        member table.  The worker pool relies on the sharing: it ships
        only the tables that are not the objects a worker holds.
        """
        replacements = {t.name: t for t in tables}
        unknown = [name for name in replacements if name not in self._tables]
        if unknown:
            raise KeyError(f"no such table(s) to replace: {sorted(unknown)}")
        merged = {
            name: replacements.get(name, table) for name, table in self._tables.items()
        }
        out = TableDatabase.__new__(TableDatabase)
        object.__setattr__(out, "_tables", merged)
        object.__setattr__(out, "_extra_condition", self._extra_condition)
        return out

    # -- classification -----------------------------------------------------------------

    def classify(self) -> str:
        """The tightest class covering every member table.

        Variable sharing across tables (or an extra condition) upgrades the
        classification the same way repeated variables / conditions do
        within one table.
        """
        order = ["codd", "e", "i", "g", "c"]
        rank = max(order.index(t.classify()) for t in self._tables.values()) if self._tables else 0
        # Variables shared between tables act like repeated variables.
        seen: set[Variable] = set()
        shared = False
        for table in self._tables.values():
            mine = table.matrix_variables()
            if mine & seen:
                shared = True
            seen |= mine
        if shared and rank < order.index("e"):
            rank = order.index("e")
        if self._extra_condition != TRUE:
            eqs = self._extra_condition.equalities()
            neqs = self._extra_condition.inequalities()
            if eqs and neqs:
                rank = max(rank, order.index("g"))
            elif neqs:
                rank = max(rank, order.index("i") if not shared else order.index("g"))
            elif eqs:
                rank = max(rank, order.index("e"))
        return order[rank]

    def is_codd(self) -> bool:
        return self.classify() == "codd"

    def is_g_database(self) -> bool:
        return self.classify() != "c"


# ---------------------------------------------------------------------------
# Constructors in the paper's vocabulary
# ---------------------------------------------------------------------------


def codd_table(name: str, arity: int, rows: Iterable[Iterable]) -> CTable:
    """Build a Codd-table, verifying the single-occurrence discipline."""
    table = CTable(name, arity, rows)
    if table.has_local_conditions() or table.global_condition != TRUE:
        raise ValueError("a Codd-table has no conditions")
    repeated = [v.name for v, n in table.variable_occurrences().items() if n > 1]
    if repeated:
        raise ValueError(f"variables repeat in Codd-table: {sorted(repeated)}")
    return table


def e_table(name: str, arity: int, rows: Iterable[Iterable]) -> CTable:
    """Build an e-table (equalities incorporated: repeated variables)."""
    table = CTable(name, arity, rows)
    if table.has_local_conditions() or table.global_condition != TRUE:
        raise ValueError("an e-table has its equalities in the matrix, no condition list")
    return table


def i_table(
    name: str, arity: int, rows: Iterable[Iterable], condition: Conjunction | str
) -> CTable:
    """Build an i-table: Codd matrix plus inequality-only global condition."""
    from .conditions import parse_conjunction

    if isinstance(condition, str):
        condition = parse_conjunction(condition)
    if condition.equalities():
        raise ValueError("an i-table's global condition is inequalities only")
    table = CTable(name, arity, rows, condition)
    if table.has_local_conditions():
        raise ValueError("an i-table has no local conditions")
    repeated = [v.name for v, n in table.variable_occurrences().items() if n > 1]
    if repeated:
        raise ValueError(f"variables repeat in i-table matrix: {sorted(repeated)}")
    return table


def g_table(
    name: str, arity: int, rows: Iterable[Iterable], condition: Conjunction | str = TRUE
) -> CTable:
    """Build a g-table: e-table matrix plus a global condition."""
    from .conditions import parse_conjunction

    if isinstance(condition, str):
        condition = parse_conjunction(condition)
    table = CTable(name, arity, rows, condition)
    if table.has_local_conditions():
        raise ValueError("a g-table has no local conditions")
    return table


def c_table(
    name: str,
    arity: int,
    rows: Iterable[tuple],
    global_condition: Conjunction | str = TRUE,
) -> CTable:
    """Build a c-table from ``(terms, local_condition)`` pairs.

    Each row is either a bare term sequence (local condition *true*) or a
    pair ``(terms, condition)`` with the condition a :class:`Conjunction`,
    :class:`BoolCondition` or condition string.
    """
    from .conditions import parse_conjunction

    if isinstance(global_condition, str):
        global_condition = parse_conjunction(global_condition)
    built: list[Row] = []
    for entry in rows:
        if (
            isinstance(entry, (tuple, list))
            and len(entry) in (1, 2)
            and isinstance(entry[0], (tuple, list))
        ):
            # A wrapped row: ``(terms,)`` or ``(terms, condition)``.
            terms = entry[0]
            cond = entry[1] if len(entry) == 2 else None
            if isinstance(cond, str):
                cond = parse_conjunction(cond)
            built.append(Row(terms, cond))
        else:
            built.append(Row(entry))
    return CTable(name, arity, built, global_condition)
