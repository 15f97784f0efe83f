"""Evaluating relational algebra expressions over c-table databases.

Recursive translation of an RA AST (:mod:`repro.relational.algebra`) into
the lifted operators of :mod:`repro.ctalgebra.operators`.  The result is a
single c-table representing the view; positive expressions stay within the
paper's positive existential fragment, and :class:`Difference` exercises the
full-closure extension.

One walker (:func:`_eval`) serves every entry point:

* :func:`evaluate_ct` — the naive evaluator: executes the AST literally,
  with :class:`Join` nodes desugared to select-over-product.  Quadratic on
  joins, obviously correct; it doubles as the differential-testing oracle.
* :func:`evaluate_ct_optimized` — runs the rewrite planner
  (:func:`repro.relational.planner.plan`) first, then executes
  :class:`Join` nodes with the hash-partitioning :func:`join_ct`.
* :func:`evaluate_ct_ordered` — additionally collects table statistics
  from the database (:class:`repro.relational.stats.Statistics`: row
  counts, ground/wild/pinned cell counts, and per-column equi-depth
  histograms with most-common-value tracking) and lets the
  histogram-aware cost model re-order n-way join chains before
  execution — the Selinger DP (bushy plans), which hands chains too long
  to enumerate to the greedy left-deep orderer.  ``stats`` accepts other
  statistics than the tables' memos (by default the memos are read, so
  collection is paid once per table value); pass an ``explain`` list to
  capture the ordering decisions and per-predicate selectivities.
* :func:`evaluate_ct_analyzed` — the same plan under EXPLAIN ANALYZE:
  the walker calls an observer around each node's operator
  (:class:`repro.obs.analyze.AnalyzeObserver`).  Without an observer the
  walker does no instrumentation work.
* :func:`evaluate_ct_planned` — the shared body of the last two, which
  also returns the plan it ran.

``rep(evaluate_ct(e, D)) == { e(I) : I in rep(D) }`` is validated by the
integration tests against both the instance-level evaluator and the world
enumeration; ``rep(evaluate_ct_optimized(e, D)) == rep(evaluate_ct(e,
D))`` by the planner's differential property tests; and the three-way
agreement (naive / rewrite-planned / cost-ordered) by the randomized
harness in ``tests/test_plan_equivalence.py``.
"""

from __future__ import annotations

import time

from ..core.tables import CTable, TableDatabase
from ..relational.algebra import (
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
from ..relational.planner import plan
from ..relational.stats import Statistics, resolve_stats
from .operators import (
    difference_ct,
    intersect_ct,
    join_ct,
    product_ct,
    project_ct,
    select_ct,
    union_ct,
)

__all__ = [
    "apply_node",
    "evaluate_ct",
    "evaluate_ct_analyzed",
    "evaluate_ct_database",
    "evaluate_ct_optimized",
    "evaluate_ct_ordered",
    "evaluate_ct_planned",
]


def evaluate_ct(expression: RAExpression, db: TableDatabase, name: str = "view") -> CTable:
    """Evaluate an RA expression over a c-table database, yielding a c-table.

    The returned table's global condition accumulates the global conditions
    of every scanned table; pair it with the database's extra condition via
    :func:`evaluate_ct_database` when building a full view database.
    """
    table = _eval(expression, db, optimized=False)
    return CTable(name, table.arity, table.rows, table.global_condition)


def evaluate_ct_optimized(
    expression: RAExpression, db: TableDatabase, name: str = "view"
) -> CTable:
    """Plan, then evaluate: the optimizing counterpart of :func:`evaluate_ct`.

    The expression is first rewritten by :func:`repro.relational.planner.
    plan` (join fusion + selection push-down); :class:`Join` nodes then
    execute via the hash-partitioning :func:`repro.ctalgebra.operators.
    join_ct` instead of a materialised product.  Semantics are unchanged:
    ``rep`` of the result equals ``rep`` of the naive result.
    """
    table = _eval(plan(expression), db, optimized=True)
    return CTable(name, table.arity, table.rows, table.global_condition)


def evaluate_ct_ordered(
    expression: RAExpression,
    db: TableDatabase,
    name: str = "view",
    stats: Statistics | None = None,
    explain: list[str] | None = None,
) -> CTable:
    """Plan with statistics, re-order joins by cost, then evaluate.

    ``stats`` defaults to ``db``'s statistics (each table's memo,
    histograms included); pass other
    :class:`~repro.relational.stats.Statistics` to plan against them,
    e.g. the uniform model built with ``TableStats.from_rows(...,
    buckets=0)``.  ``explain``, if given, accumulates one line per
    re-ordered join chain describing the chosen shape and the estimated
    intermediate cardinalities, plus the selectivity charged to each leaf
    selection predicate.  Semantics are unchanged: ``rep`` of the result
    equals ``rep`` of the naive result.
    """
    return evaluate_ct_planned(expression, db, name, stats, explain)[0]


def evaluate_ct_analyzed(
    expression: RAExpression,
    db: TableDatabase,
    name: str = "view",
    stats: Statistics | None = None,
    explain: list[str] | None = None,
):
    """EXPLAIN ANALYZE: plan, execute with per-node instrumentation.

    Same plan and same result as :func:`evaluate_ct_ordered`, but each
    plan node is timed individually and annotated with the cost model's
    estimated rows, its actual output rows and — for joins — the
    hash-partition bucket/wild counts.  Returns ``(table, analysis)``
    with ``analysis`` a :class:`repro.obs.analyze.PlanAnalysis`.
    """
    table, _planned, analysis = evaluate_ct_planned(
        expression, db, name, stats, explain, analyze=True
    )
    return table, analysis


def evaluate_ct_planned(
    expression: RAExpression,
    db: TableDatabase,
    name: str = "view",
    stats: Statistics | None = None,
    explain: list[str] | None = None,
    analyze: bool = False,
):
    """Plan with statistics and execute; returns ``(table, planned, analysis)``.

    The body of :func:`evaluate_ct_ordered` and :func:`evaluate_ct_analyzed`,
    for callers that also show the plan that ran.  With ``analyze`` the
    walker runs under an :class:`~repro.obs.analyze.AnalyzeObserver` and
    ``analysis`` is its :class:`~repro.obs.analyze.PlanAnalysis`; without
    it ``analysis`` is ``None`` and the walker is uninstrumented.
    """
    if analyze:
        from ..obs.analyze import AnalyzeObserver, PlanAnalysis

        start = time.perf_counter()
    snapshot = resolve_stats(stats, db)
    planned = plan(expression, stats=snapshot, explain=explain)
    if not analyze:
        table = _eval(planned, db, optimized=True)
        analysis = None
    else:
        plan_ms = (time.perf_counter() - start) * 1e3
        observer = AnalyzeObserver(snapshot)
        table = _eval(planned, db, optimized=True, observe=observer)
        analysis = PlanAnalysis(
            observer.root,
            plan_ms=plan_ms,
            total_ms=(time.perf_counter() - start) * 1e3,
        )
    return CTable(name, table.arity, table.rows, table.global_condition), planned, analysis


def evaluate_ct_database(
    expressions: dict[str, RAExpression],
    db: TableDatabase,
    optimize: bool = False,
    stats: Statistics | None = None,
) -> TableDatabase:
    """Evaluate a named vector of RA expressions into a view database.

    With ``optimize=True`` every view runs through the cost-ordered path
    (:func:`evaluate_ct_ordered`) and statistics are collected **once**
    and shared by all view expressions; ``stats`` accepts a pre-collected
    snapshot.  ``stats`` only applies to the optimized path — the naive
    evaluator plans nothing.
    """
    if optimize:
        snapshot = resolve_stats(stats, db)
        tables = [
            evaluate_ct_ordered(expr, db, name, stats=snapshot)
            for name, expr in expressions.items()
        ]
    else:
        tables = [evaluate_ct(expr, db, name) for name, expr in expressions.items()]
    return TableDatabase(tables, db.global_condition())


def _eval(node: RAExpression, db: TableDatabase, optimized: bool, observe=None) -> CTable:
    """The plan walker: evaluate the children, then apply the node's operator.

    Unless ``optimized``, :class:`Join` nodes run as select-over-product
    (the naive evaluator).  ``observe``, if given, is called as
    ``observe(node, run)`` once per node after its children ran;
    ``run(extras)`` applies the operator and returns its table, and the
    observer returns that table.  EXPLAIN ANALYZE is such an observer.
    """
    if not optimized and isinstance(node, Join):
        node = node.as_select_product()
    inputs = [_eval(child, db, optimized, observe) for child in node.children()]
    if observe is None:
        return apply_node(node, inputs, db)
    return observe(node, lambda extras: apply_node(node, inputs, db, extras))


def apply_node(node: RAExpression, inputs: list, db: TableDatabase, extras=None) -> CTable:
    """One node's lifted operator over its evaluated inputs: the one
    per-node operator dispatch, shared by :func:`_eval` and the
    maintained plan nodes of :class:`repro.views.manager.PlanCache`.
    ``extras`` receives the join's hash-partition shape (see
    :func:`join_ct`)."""
    if isinstance(node, Scan):
        table = db[node.name]
        if table.arity != node.arity:
            raise ValueError(
                f"scan of {node.name!r} expects arity {node.arity}, table has {table.arity}"
            )
        return table
    if isinstance(node, Select):
        return select_ct(inputs[0], node.predicates)
    if isinstance(node, Project):
        return project_ct(inputs[0], node.columns)
    if isinstance(node, Join):
        return join_ct(inputs[0], inputs[1], node.on, instrument=extras)
    if isinstance(node, Product):
        return product_ct(*inputs)
    if isinstance(node, Union):
        return union_ct(*inputs)
    if isinstance(node, Intersect):
        return intersect_ct(*inputs)
    if isinstance(node, Difference):
        return difference_ct(*inputs)
    raise TypeError(f"unknown RA node: {node!r}")
