"""Table statistics and cardinality estimation for the cost-based planner.

The rewrite planner (:mod:`repro.relational.planner`) turns syntax into
joins; this module supplies the *numbers* that let it pick a join order.
Statistics are collected in one pass over a database — either a c-table
:class:`~repro.core.tables.TableDatabase` or a complete
:class:`~repro.relational.instance.Instance` — and record, per table:

* the row count;
* per column, how many cells are ground constants vs variables, how many
  *distinct* ground constants appear, and a :class:`ColumnHistogram`
  summarising the value distribution: the most common values (MCVs) of
  skewed columns tracked exactly, the remainder bucketed into an
  equi-depth histogram (:data:`DEFAULT_HISTOGRAM_BUCKETS` buckets;
  ``TableStats.from_rows(..., buckets=0)`` builds the uniform model
  the benchmarks and tests compare against).

Collection is **condition-aware**: a variable-bearing cell whose local
(or global) condition *pins* the variable — ``Eq(x, c)`` entailed by the
row's condition, or a small ``Or`` of such equalities — is counted as a
ground cell holding the pinned constant(s) instead of as a "wild" cell.
Wild cells are tracked separately because the c-table hash operators
cannot partition them: a truly unconstrained wild row meets *every* row
on the other side, so wild fractions inflate join estimates exactly as
they inflate real cost — but a pinned row's matches die as trivially
false conditions almost everywhere, so its surviving output is a ground
row's, and the estimator charges it accordingly.

On top of the counts sits the cardinality model (:func:`estimate`):

* equality selections against a constant keep the histogram's estimated
  fraction for that constant (MCV frequency when tracked, average
  non-MCV bucket frequency otherwise; ``1/distinct`` with histograms
  disabled);
* inequality selections keep the complementary fraction (a fixed
  :data:`_NEQ_SELECTIVITY` without histograms);
* equi-joins combine per-side histograms: matched MCV mass is summed
  exactly and the remainders meet at the textbook
  ``1/max(distinct_l, distinct_r)`` rate, which degrades to exactly the
  uniform model when either side lacks a histogram.

The estimates only need to *rank* candidate join orders; they are
deliberately crude and cheap, but the histogram terms are what let the
Selinger DP avoid plans that look cheap under a uniform-frequency
assumption and explode on skewed (Zipf-like) data — see
``benchmarks/bench_histogram_selectivity.py``.

Statistics are a function of the table they describe, and c-tables are
immutable values, so a table's default-shape :class:`TableStats` is a
memo on the table itself (:meth:`repro.core.tables.CTable.stats`):
collected at most once per table value, shared by every database
version that shares the table (:meth:`~repro.core.tables.TableDatabase.
replacing`), never stale, and pickled along with the table.
:meth:`Statistics.collect` reads those memos; an ``Instance`` source
collects afresh instead.
:class:`StatsStore` is what remains of a cache: a session's collection
counter.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Mapping, Sequence

from ..core.conditions import BoolAnd, BoolAtom, BoolOr, Conjunction, Eq, UnionFind
from ..core.pickling import pickles_by_slots
from ..core.tables import Row
from ..core.terms import Constant, Variable
from .algebra import (
    ColEq,
    ColEqConst,
    ColNeq,
    ColNeqConst,
    Difference,
    Intersect,
    Join,
    Product,
    Project,
    RAExpression,
    Scan,
    Select,
    Union,
)

__all__ = [
    "ColumnHistogram",
    "ColumnStats",
    "TableStats",
    "Statistics",
    "StatsStore",
    "resolve_stats",
    "condition_pins",
    "CardEstimate",
    "estimate",
    "join_estimate",
    "join_rows",
    "DEFAULT_ROWS",
    "DEFAULT_DISTINCT",
    "DEFAULT_HISTOGRAM_BUCKETS",
    "DEFAULT_MCV_LIMIT",
]

#: Fallback cardinalities for relations with no collected statistics.
DEFAULT_ROWS = 100.0
DEFAULT_DISTINCT = 10.0

#: Default number of equi-depth buckets per column histogram.  ``0``
#: disables histograms (pure uniform-frequency model).
DEFAULT_HISTOGRAM_BUCKETS = 8

#: Default number of most-common values tracked exactly per column.
DEFAULT_MCV_LIMIT = 10

#: A value must occur at least this often to qualify as an MCV; unique-ish
#: columns therefore carry no MCV list and estimate exactly as the
#: uniform model does.
_MCV_MIN_COUNT = 2.0

#: Selectivity assumed for inequality predicates without histogram support.
_NEQ_SELECTIVITY = 0.9

#: A local-condition ``Or`` of equalities pins a variable only up to this
#: many alternative constants; larger domains stay "wild".
_SMALL_DOMAIN_LIMIT = 4


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


@pickles_by_slots
class _Bucket:
    """One equi-depth bucket: a closed value range with aggregate counts."""

    __slots__ = ("lo", "hi", "lo_key", "hi_key", "count", "distinct")

    def __init__(self, lo: Constant, hi: Constant, count: float, distinct: int) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_key", lo.sort_key())
        object.__setattr__(self, "hi_key", hi.sort_key())
        object.__setattr__(self, "count", float(count))
        object.__setattr__(self, "distinct", int(distinct))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("_Bucket is immutable")

    def __repr__(self) -> str:
        return f"[{self.lo}..{self.hi}: {self.count:g} rows, {self.distinct} distinct]"


@pickles_by_slots
class ColumnHistogram:
    """Value-distribution summary of one column: MCVs + equi-depth buckets.

    ``mcvs`` maps each most-common value to its (possibly fractional —
    see domain-pinned cells) occurrence count; every remaining value
    lives in one of the ``buckets``, each a closed value range carrying
    its total count and distinct-value count.  ``total`` is the summed
    weight of all ground (and pinned) cells.  Fractions returned by the
    lookup methods are relative to ``total``.

    Values order by :meth:`repro.core.terms.Term.sort_key`, so mixed
    ``int``/``str`` columns bucket deterministically.
    """

    __slots__ = ("total", "mcvs", "buckets", "_bucket_lo_keys")

    def __init__(
        self,
        total: float,
        mcvs: Mapping[Constant, float] | Iterable[tuple[Constant, float]],
        buckets: Sequence[_Bucket],
    ) -> None:
        object.__setattr__(self, "total", float(total))
        object.__setattr__(self, "mcvs", dict(mcvs))
        object.__setattr__(self, "buckets", tuple(buckets))
        object.__setattr__(
            self, "_bucket_lo_keys", [b.lo_key for b in self.buckets]
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ColumnHistogram is immutable")

    def __repr__(self) -> str:
        return (
            f"ColumnHistogram(total={self.total:g}, mcvs={len(self.mcvs)}, "
            f"buckets={len(self.buckets)})"
        )

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_counts(
        counts: Mapping[Constant, float],
        buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
        mcv_limit: int = DEFAULT_MCV_LIMIT,
    ) -> "ColumnHistogram | None":
        """Build a histogram from a value -> occurrence-count mapping.

        Returns ``None`` for an empty mapping or ``buckets <= 0`` (the
        caller falls back to the uniform model).  The ``mcv_limit`` most
        frequent values with count >= 2 are tracked exactly; ties at the
        cut are broken deterministically by value order, so repeated
        collections of the same table yield identical histograms.
        """
        if buckets <= 0 or not counts:
            return None
        total = float(sum(counts.values()))
        # MCVs: values strictly more frequent than the column average (and
        # occurring at least twice) — a uniform column therefore carries no
        # MCV list and estimates exactly as the uniform model does.
        # Frequent values first, value order breaking ties at the cut.
        distinct = len(counts)
        frequent = sorted(
            (
                (value, count)
                for value, count in counts.items()
                if count >= _MCV_MIN_COUNT and count * distinct > total
            ),
            key=lambda item: (-item[1], item[0].sort_key()),
        )[:mcv_limit]
        mcvs = dict(frequent)
        rest = sorted(
            ((v, c) for v, c in counts.items() if v not in mcvs),
            key=lambda item: item[0].sort_key(),
        )
        return ColumnHistogram(total, mcvs, _equi_depth(rest, buckets))

    @staticmethod
    def point(value: Constant) -> "ColumnHistogram":
        """The degenerate histogram of a column pinned to one value (the
        result shape of an equality selection)."""
        return ColumnHistogram(1.0, {value: 1.0}, ())

    def without(self, value: Constant) -> "ColumnHistogram":
        """This histogram minus ``value``'s mass (the result shape of an
        inequality selection).  Exact for MCVs; bucketed values keep their
        bucket (their individual mass is below MCV significance)."""
        count = self.mcvs.get(value)
        if count is None:
            return self
        mcvs = {v: c for v, c in self.mcvs.items() if v != value}
        return ColumnHistogram(max(self.total - count, 0.0), mcvs, self.buckets)

    # -- lookups -------------------------------------------------------------

    def _bucket_of(self, key) -> _Bucket | None:
        """The bucket whose closed range contains ``key``, if any."""
        idx = bisect_right(self._bucket_lo_keys, key) - 1
        if idx < 0:
            return None
        bucket = self.buckets[idx]
        return bucket if key <= bucket.hi_key else None

    def eq_fraction(self, value: Constant) -> float:
        """Estimated fraction of cells equal to ``value``.

        Exact for MCVs; the average per-value frequency of the containing
        bucket otherwise; ``0.0`` for values outside every bucket range
        (the column never held them when statistics were collected).
        """
        if self.total <= 0:
            return 0.0
        count = self.mcvs.get(value)
        if count is not None:
            return min(count / self.total, 1.0)
        bucket = self._bucket_of(value.sort_key())
        if bucket is None or bucket.distinct <= 0:
            return 0.0
        return min(bucket.count / bucket.distinct / self.total, 1.0)

    def neq_fraction(self, value: Constant) -> float:
        """Estimated fraction of cells different from ``value``."""
        return max(0.0, 1.0 - self.eq_fraction(value))

    def match_fraction(self, other: "ColumnHistogram") -> tuple[float, float, float]:
        """Join-matching summary against another column's histogram.

        Returns ``(common, rest_self, rest_other)``: the probability mass
        of a random pair agreeing on a value both sides track as an MCV,
        and the two leftover fractions whose matching rate the caller
        estimates with the uniform ``1/max(distinct)`` rule.
        """
        if self.total <= 0 or other.total <= 0:
            return 0.0, 1.0, 1.0
        common = 0.0
        covered_self = 0.0
        covered_other = 0.0
        small, large = (
            (self, other) if len(self.mcvs) <= len(other.mcvs) else (other, self)
        )
        for value, count in small.mcvs.items():
            other_count = large.mcvs.get(value)
            if other_count is None:
                continue
            mine, theirs = (
                (count, other_count) if small is self else (other_count, count)
            )
            common += (mine / self.total) * (theirs / other.total)
            covered_self += mine / self.total
            covered_other += theirs / other.total
        return common, max(0.0, 1.0 - covered_self), max(0.0, 1.0 - covered_other)

    def describe(self) -> str:
        """A short human-readable summary, used by ``repro eval --explain``."""
        parts = []
        if self.mcvs:
            top = sorted(
                self.mcvs.items(), key=lambda item: (-item[1], item[0].sort_key())
            )[:3]
            shown = ", ".join(
                f"{value}~{count / self.total:.0%}" for value, count in top
            )
            parts.append(f"mcv {shown}")
        if self.buckets:
            parts.append(f"{len(self.buckets)} bucket(s)")
        return "; ".join(parts) if parts else "empty"


def _equi_depth(
    sorted_counts: Sequence[tuple[Constant, float]], buckets: int
) -> list[_Bucket]:
    """Pack value/count pairs (sorted by value) into <= ``buckets``
    equi-depth buckets."""
    if not sorted_counts:
        return []
    total = sum(count for _, count in sorted_counts)
    target = total / max(1, buckets)
    out: list[_Bucket] = []
    lo: Constant | None = None
    acc = 0.0
    distinct = 0
    for value, count in sorted_counts:
        if lo is None:
            lo = value
        acc += count
        distinct += 1
        if acc >= target and len(out) < buckets - 1:
            out.append(_Bucket(lo, value, acc, distinct))
            lo, acc, distinct = None, 0.0, 0
    if distinct and lo is not None:
        out.append(_Bucket(lo, sorted_counts[-1][0], acc, distinct))
    return out


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


@pickles_by_slots
class ColumnStats:
    """Per-column counts plus the value-distribution histogram.

    ``ground`` counts constant cells, ``wild`` counts variable cells that
    nothing constrains, and ``pinned`` counts variable cells whose local
    condition fixed them to a constant (or small constant domain) — those
    contribute to ``distinct`` and to the histogram like ground cells and
    are *not* charged the wild pair-everything join cost.
    """

    __slots__ = ("ground", "wild", "distinct", "pinned", "hist")

    def __init__(
        self,
        ground: int,
        wild: int,
        distinct: int,
        pinned: int = 0,
        hist: ColumnHistogram | None = None,
    ) -> None:
        object.__setattr__(self, "ground", int(ground))
        object.__setattr__(self, "wild", int(wild))
        object.__setattr__(self, "distinct", int(distinct))
        object.__setattr__(self, "pinned", int(pinned))
        object.__setattr__(self, "hist", hist)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ColumnStats is immutable")

    def __repr__(self) -> str:
        return (
            f"ColumnStats(ground={self.ground}, wild={self.wild}, "
            f"distinct={self.distinct}, pinned={self.pinned})"
        )


@pickles_by_slots
class TableStats:
    """Statistics for one table: a row count plus per-column counts."""

    __slots__ = ("name", "arity", "rows", "columns")

    def __init__(
        self, name: str, arity: int, rows: int, columns: Sequence[ColumnStats]
    ) -> None:
        if len(columns) != arity:
            raise ValueError(f"expected {arity} column stats, got {len(columns)}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", int(arity))
        object.__setattr__(self, "rows", int(rows))
        object.__setattr__(self, "columns", tuple(columns))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("TableStats is immutable")

    def __repr__(self) -> str:
        return f"TableStats({self.name!r}, rows={self.rows}, arity={self.arity})"

    def describe(self) -> str:
        """One human-readable line, used by ``repro eval --explain``."""
        cols = ", ".join(
            f"${i}: {c.distinct} distinct"
            + (f", {c.pinned} pinned" if c.pinned else "")
            + (f", {c.wild} wild" if c.wild else "")
            for i, c in enumerate(self.columns)
        )
        return f"{self.name}/{self.arity}: {self.rows} rows ({cols})"

    def histogram_lines(self) -> list[str]:
        """Per-column histogram summaries (columns with MCVs or buckets),
        used by ``repro eval --explain``."""
        out = []
        for i, column in enumerate(self.columns):
            if column.hist is not None and (column.hist.mcvs or column.hist.buckets):
                out.append(f"{self.name}.${i}: {column.hist.describe()}")
        return out

    def to_json(self) -> dict:
        """A JSON-ready summary, used by ``repro eval --explain-json``."""
        return {
            "name": self.name,
            "arity": self.arity,
            "rows": self.rows,
            "columns": [
                {
                    "distinct": c.distinct,
                    "ground": c.ground,
                    "pinned": c.pinned,
                    "wild": c.wild,
                }
                for c in self.columns
            ],
        }

    @staticmethod
    def from_rows(
        name: str,
        arity: int,
        rows: Iterable[Sequence],
        global_condition: Conjunction | None = None,
        buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
        mcv_limit: int = DEFAULT_MCV_LIMIT,
    ) -> "TableStats":
        """Collect statistics from an iterable of rows.

        Rows may be plain term sequences (instance facts) or c-table
        :class:`~repro.core.tables.Row` objects, whose local conditions —
        together with the table's ``global_condition`` — are mined for
        variable pins.  ``buckets``/``mcv_limit`` shape the per-column
        histograms; ``buckets=0`` skips them.
        """
        ground = [0] * arity
        wild = [0] * arity
        pinned = [0] * arity
        counts: list[dict[Constant, float]] = [{} for _ in range(arity)]
        base_equalities = (
            tuple(global_condition.equalities()) if global_condition is not None else ()
        )
        # The global condition's pins are identical for every row; rows
        # without a local condition share this one closure.
        base_pins = condition_pins(None, base_equalities)
        count = 0
        for item in rows:
            count += 1
            if isinstance(item, Row):
                terms, condition = item.terms, item.condition
                if not item.has_local_condition():
                    condition = None
            else:
                terms, condition = item, None
            pins: dict[Variable, object] | None = None
            for i in range(arity):
                term = terms[i]
                if isinstance(term, Constant):
                    ground[i] += 1
                    counts[i][term] = counts[i].get(term, 0.0) + 1.0
                    continue
                if pins is None:
                    pins = (
                        base_pins
                        if condition is None
                        else condition_pins(condition, base_equalities)
                    )
                pin = pins.get(term)
                if isinstance(pin, Constant):
                    pinned[i] += 1
                    counts[i][pin] = counts[i].get(pin, 0.0) + 1.0
                elif isinstance(pin, tuple):
                    pinned[i] += 1
                    weight = 1.0 / len(pin)
                    for value in pin:
                        counts[i][value] = counts[i].get(value, 0.0) + weight
                else:
                    wild[i] += 1
        columns = [
            ColumnStats(
                ground[i],
                wild[i],
                len(counts[i]),
                pinned[i],
                ColumnHistogram.from_counts(counts[i], buckets, mcv_limit),
            )
            for i in range(arity)
        ]
        return TableStats(name, arity, count, columns)


def condition_pins(condition, base_equalities: tuple[Eq, ...]) -> dict:
    """Variables a row's condition fixes: ``{var: Constant}`` for hard pins,
    ``{var: (Constant, ...)}`` for small ``Or``-of-equalities domains.

    Conservative by design: only conjunctions of atoms (``BoolAtom`` /
    ``BoolAnd`` of them) contribute equalities to the congruence closure,
    and only a pure ``Or`` of equalities on one variable yields a domain.
    Anything fancier keeps the cell wild, never the other way round —
    over-reporting wildness only costs estimate sharpness, not
    correctness.  Shared with :func:`repro.ctalgebra.operators.join_ct`,
    which resolves hard-pinned variables into hash buckets so execution
    matches what this model charges pinned rows.
    """
    equalities = list(base_equalities)
    domain_source = None
    if condition is not None:
        if isinstance(condition, BoolAtom):
            if isinstance(condition.atom, Eq):
                equalities.append(condition.atom)
        elif isinstance(condition, BoolAnd):
            if all(isinstance(child, BoolAtom) for child in condition.children):
                equalities.extend(
                    child.atom
                    for child in condition.children
                    if isinstance(child.atom, Eq)
                )
        elif isinstance(condition, BoolOr):
            domain_source = condition
    pins: dict = {}
    if equalities:
        closure = UnionFind()
        for atom in equalities:
            closure.union(atom.left, atom.right)
        if not closure.inconsistent:
            for variable, rep in closure.substitution().items():
                if isinstance(rep, Constant):
                    pins[variable] = rep
    if domain_source is not None:
        domain = _or_domain(domain_source)
        if domain is not None:
            variable, values = domain
            pins.setdefault(variable, values)
    return pins


def _or_domain(condition: BoolOr):
    """``(variable, values)`` when every disjunct pins the *same* variable
    to a constant and the domain is small; ``None`` otherwise."""
    variable = None
    values = []
    for child in condition.children:
        if not (isinstance(child, BoolAtom) and isinstance(child.atom, Eq)):
            return None
        left, right = child.atom.left, child.atom.right
        if isinstance(left, Variable) and isinstance(right, Constant):
            var, value = left, right
        elif isinstance(right, Variable) and isinstance(left, Constant):
            var, value = right, left
        else:
            return None
        if variable is None:
            variable = var
        elif variable != var:
            return None
        values.append(value)
    if variable is None or not values or len(set(values)) > _SMALL_DOMAIN_LIMIT:
        return None
    return variable, tuple(dict.fromkeys(values))


@pickles_by_slots
class Statistics:
    """Per-table statistics for a whole database.

    :meth:`collect` accepts either a c-table database (rows are
    :class:`~repro.core.tables.Row` objects whose cells may be variables)
    or a complete instance (rows are fact tuples, all ground).  Lookup by
    name returns ``None`` for unknown relations, for which the estimator
    falls back to :data:`DEFAULT_ROWS` / :data:`DEFAULT_DISTINCT`.
    """

    __slots__ = ("_tables",)

    def __init__(self, tables: Mapping[str, TableStats] | Iterable[TableStats] = ()) -> None:
        if isinstance(tables, Mapping):
            built = dict(tables)
        else:
            built = {t.name: t for t in tables}
        object.__setattr__(self, "_tables", built)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Statistics is immutable")

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def get(self, name: str) -> TableStats | None:
        return self._tables.get(name)

    def __repr__(self) -> str:
        return f"Statistics({sorted(self._tables)})"

    @staticmethod
    def collect(source) -> "Statistics":
        """Collect statistics from a ``TableDatabase`` or an ``Instance``.

        A ``TableDatabase``'s statistics are its tables' memos
        (:meth:`~repro.core.tables.CTable.stats`), collected at most once
        per table value; an ``Instance`` is collected afresh.
        """
        tables = []
        for item in source:
            if isinstance(item, str):  # Instance: iterates relation names
                relation = source[item]
                tables.append(TableStats.from_rows(item, relation.arity, relation.facts))
            else:  # TableDatabase: iterates CTables
                tables.append(item.stats())
        return Statistics(tables)


class StatsStore:
    """A session's source of :class:`Statistics`, with a collection count.

    The statistics themselves are memos on the immutable tables
    (:meth:`~repro.core.tables.CTable.stats`), so there is nothing to
    cache or invalidate here: :meth:`snapshot` reads the memos of the
    database it is given and counts in ``table_collections`` each memo
    it had to fill.  The benchmarks use the count to prove amortisation
    (N queries over a k-table database show k collections, not N*k).
    The count is not locked: a session snapshots under its write lock.
    """

    __slots__ = ("table_collections",)

    def __init__(self) -> None:
        self.table_collections = 0

    def counters(self) -> dict:
        """Collection telemetry for ``/stats`` and ``/metrics``."""
        return {"table_collections": self.table_collections}

    def snapshot(self, db) -> Statistics:
        """The :class:`Statistics` cut of ``db``, read from its tables' memos."""
        self.table_collections += sum(1 for table in db if not table.has_stats())
        return Statistics.collect(db)


def resolve_stats(stats, source=None) -> "Statistics | None":
    """Normalise a ``stats`` argument to a :class:`Statistics` snapshot.

    The planning entry points accept ``None`` or a ready snapshot.
    ``None`` collects from ``source`` when one is given (and stays
    ``None`` otherwise — the planner treats that as "skip the ordering
    pass").
    """
    if stats is None and source is not None:
        return Statistics.collect(source)
    return stats


# ---------------------------------------------------------------------------
# Cardinality estimation
# ---------------------------------------------------------------------------


@pickles_by_slots
class CardEstimate:
    """Estimated output shape of an RA (sub)expression.

    ``rows`` is the estimated cardinality; ``distinct[i]`` the estimated
    number of distinct ground constants in column ``i``; ``wild[i]`` the
    estimated number of rows whose column ``i`` holds an *unconstrained*
    variable (those rows defeat hash partitioning downstream — pinned
    variables were already folded into the ground counts at collection);
    ``hists[i]`` the column's :class:`ColumnHistogram`, or ``None`` when
    the distribution is unknown (the estimator then assumes uniform
    frequencies).  Histogram fractions are relative to the column, so
    they survive uniform row scaling unchanged.
    """

    __slots__ = ("rows", "distinct", "wild", "hists")

    def __init__(
        self,
        rows: float,
        distinct: Sequence[float],
        wild: Sequence[float],
        hists: Sequence[ColumnHistogram | None] | None = None,
    ) -> None:
        object.__setattr__(self, "rows", max(0.0, float(rows)))
        object.__setattr__(self, "distinct", tuple(map(float, distinct)))
        object.__setattr__(self, "wild", tuple(map(float, wild)))
        if hists is None:
            hists = (None,) * len(self.distinct)
        object.__setattr__(self, "hists", tuple(hists))
        if len(self.hists) != len(self.distinct):  # pragma: no cover - guard
            raise ValueError("hists/distinct length mismatch")

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("CardEstimate is immutable")

    @property
    def arity(self) -> int:
        return len(self.distinct)

    def __repr__(self) -> str:
        return f"CardEstimate(rows={self.rows:.1f}, arity={self.arity})"

    def scaled(self, factor: float) -> "CardEstimate":
        """Uniformly keep a ``factor`` fraction of the rows."""
        factor = min(max(factor, 0.0), 1.0)
        rows = self.rows * factor
        return CardEstimate(
            rows,
            [min(d, rows) for d in self.distinct],
            [w * factor for w in self.wild],
            self.hists,
        )


def _scan_estimate(node: Scan, stats: Statistics) -> CardEstimate:
    table = stats.get(node.name)
    # An arity mismatch means the statistics are stale (collected before a
    # schema change); trusting them would index past the column list.
    if table is None or table.arity != node.arity:
        return CardEstimate(
            DEFAULT_ROWS,
            [DEFAULT_DISTINCT] * node.arity,
            [0.0] * node.arity,
        )
    return CardEstimate(
        table.rows,
        [max(1.0, c.distinct) if table.rows else 0.0 for c in table.columns],
        [float(c.wild) for c in table.columns],
        [c.hist for c in table.columns],
    )


def _select_estimate(
    est: CardEstimate,
    predicates,
    explain: list[str] | None = None,
    label: str | None = None,
) -> CardEstimate:
    def note(pred, selectivity: float, source: str) -> None:
        if explain is not None:
            where = f"({label}) " if label else ""
            explain.append(
                f"selectivity {where}{pred!r}: {selectivity:.4f} via {source}"
            )

    for pred in predicates:
        if est.rows <= 0:
            break
        if isinstance(pred, ColEqConst):
            col = pred.column
            ground = est.rows - est.wild[col]
            hist = est.hists[col]
            # Ground cells match at the histogram's estimated frequency for
            # this constant (1/distinct without one); wild cells *may* match
            # any constant, so they survive the selection as rows whose
            # condition carries the equality.
            if hist is not None:
                fraction = hist.eq_fraction(pred.constant)
                source = "mcv" if pred.constant in hist.mcvs else "histogram"
            else:
                fraction = 1.0 / max(est.distinct[col], 1.0)
                source = "1/distinct"
            matching = ground * fraction + est.wild[col]
            note(pred, matching / est.rows, source)
            est = est.scaled(matching / est.rows)
            distinct = list(est.distinct)
            distinct[col] = min(1.0, distinct[col])
            hists = list(est.hists)
            hists[col] = ColumnHistogram.point(pred.constant)
            est = CardEstimate(est.rows, distinct, est.wild, hists)
        elif isinstance(pred, ColEq):
            sel = 1.0 / max(est.distinct[pred.left], est.distinct[pred.right], 1.0)
            note(pred, sel, "1/max distinct")
            est = est.scaled(sel)
            distinct = list(est.distinct)
            low = min(distinct[pred.left], distinct[pred.right])
            distinct[pred.left] = distinct[pred.right] = low
            # The joint distribution after a column equality is unknown.
            hists = list(est.hists)
            hists[pred.left] = hists[pred.right] = None
            est = CardEstimate(est.rows, distinct, est.wild, hists)
        elif isinstance(pred, ColNeqConst):
            col = pred.column
            hist = est.hists[col]
            if hist is not None:
                ground = est.rows - est.wild[col]
                matching = ground * hist.neq_fraction(pred.constant) + est.wild[col]
                sel = matching / est.rows
                source = "histogram"
            else:
                sel = _NEQ_SELECTIVITY
                source = "constant"
            note(pred, sel, source)
            est = est.scaled(sel)
            if hist is not None:
                # Keep the column model self-consistent: the excluded
                # value's MCV mass is gone, so a later = on it estimates
                # at most a tail-bucket frequency, not the hot one.
                hists = list(est.hists)
                hists[col] = hist.without(pred.constant)
                est = CardEstimate(est.rows, est.distinct, est.wild, hists)
        elif isinstance(pred, ColNeq):
            note(pred, _NEQ_SELECTIVITY, "constant")
            est = est.scaled(_NEQ_SELECTIVITY)
    return est


def _join_column_selectivity(
    left: CardEstimate, right: CardEstimate, l: int, r: int
) -> float:
    """Matching probability of one join column pair.

    The uniform rule ``1/max(distinct)`` — except that when both sides
    carry histograms, mass on shared most-common values matches exactly
    (the dominant term on skewed key columns) and only the leftovers fall
    back to the uniform rate.
    """
    base = 1.0 / max(left.distinct[l], right.distinct[r], 1.0)
    hl, hr = left.hists[l], right.hists[r]
    if hl is None or hr is None:
        return base
    common, rest_l, rest_r = hl.match_fraction(hr)
    return min(1.0, common + rest_l * rest_r * base)


def join_rows(
    left: CardEstimate,
    right: CardEstimate,
    on: Sequence[tuple[int, int]],
) -> float:
    """The estimated row count of ``Join(left, right, on)`` — what
    :func:`join_estimate` puts in its ``rows``, without the per-column
    shape, for costing a candidate join.

    Ground rows meet the other side's ground rows at the per-column rate
    of :func:`_join_column_selectivity` (histogram MCV mass exact,
    uniform ``1/max(distinct)`` remainder); rows with an unconstrained
    variable in any join column cannot be hash partitioned and meet
    *every* row on the other side.  With no ``on`` pairs this degenerates
    to the product estimate.
    """
    wild_l = max([left.wild[l] for l, _ in on], default=0.0)
    wild_r = max([right.wild[r] for _, r in on], default=0.0)
    wild_l = min(wild_l, left.rows)
    wild_r = min(wild_r, right.rows)
    ground_l = left.rows - wild_l
    ground_r = right.rows - wild_r

    selectivity = 1.0
    for l, r in on:
        selectivity *= _join_column_selectivity(left, right, l, r)

    rows = (
        ground_l * ground_r * selectivity
        + wild_l * right.rows
        + wild_r * left.rows
        - wild_l * wild_r  # wild-wild pairs counted once, not twice
    )
    return max(rows, 0.0)


def join_estimate(
    left: CardEstimate,
    right: CardEstimate,
    on: Sequence[tuple[int, int]],
    rows: float | None = None,
) -> CardEstimate:
    """Estimate ``Join(left, right, on)``: :func:`join_rows` rows (pass
    them as ``rows`` when already computed), with each side's distinct
    counts capped by them and its wild counts scaled by the fraction of
    pairs kept."""
    if rows is None:
        rows = join_rows(left, right, on)
    distinct = [min(d, rows) for d in left.distinct] + [
        min(d, rows) for d in right.distinct
    ]
    total_pairs = max(left.rows * right.rows, 1.0)
    keep = min(rows / total_pairs, 1.0)
    wild = [w * right.rows * keep for w in left.wild] + [
        w * left.rows * keep for w in right.wild
    ]
    return CardEstimate(rows, distinct, wild, left.hists + right.hists)


def estimate(
    node: RAExpression, stats: Statistics, explain: list[str] | None = None
) -> CardEstimate:
    """Estimate the output cardinality of an RA expression bottom-up.

    ``explain``, if given, accumulates one line per selection predicate
    stating the selectivity it was charged and where the number came from
    (MCV, histogram bucket, or the uniform fallback) — surfaced by
    ``repro eval --explain``.
    """
    if isinstance(node, Scan):
        return _scan_estimate(node, stats)
    if isinstance(node, Select):
        label = None
        if explain is not None:
            label = ", ".join(sorted(node.relation_names()))
        return _select_estimate(
            estimate(node.child, stats, explain), node.predicates, explain, label
        )
    if isinstance(node, Project):
        child = estimate(node.child, stats, explain)
        return CardEstimate(
            child.rows,
            [child.distinct[c] for c in node.columns],
            [child.wild[c] for c in node.columns],
            [child.hists[c] for c in node.columns],
        )
    if isinstance(node, Join):
        return join_estimate(
            estimate(node.left, stats, explain),
            estimate(node.right, stats, explain),
            node.on,
        )
    if isinstance(node, Product):
        return join_estimate(
            estimate(node.left, stats, explain),
            estimate(node.right, stats, explain),
            (),
        )
    if isinstance(node, Union):
        left, right = estimate(node.left, stats, explain), estimate(
            node.right, stats, explain
        )
        rows = left.rows + right.rows
        return CardEstimate(
            rows,
            [min(l + r, rows) for l, r in zip(left.distinct, right.distinct)],
            [l + r for l, r in zip(left.wild, right.wild)],
        )
    if isinstance(node, Intersect):
        left, right = estimate(node.left, stats, explain), estimate(
            node.right, stats, explain
        )
        return CardEstimate(
            min(left.rows, right.rows),
            [min(l, r) for l, r in zip(left.distinct, right.distinct)],
            [min(l, r) for l, r in zip(left.wild, right.wild)],
        )
    if isinstance(node, Difference):
        # Upper bound: the right side only removes rows.
        return estimate(node.left, stats, explain)
    raise TypeError(f"unknown RA node: {node!r}")
