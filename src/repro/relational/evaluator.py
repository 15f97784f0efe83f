"""Evaluation of relational algebra expressions over instances.

A straightforward recursive evaluator: each node maps a set of facts to a
set of facts.  Data complexity is polynomial for a fixed expression, which
is the QPTIME guarantee the paper requires of all query programs.  The
planner's :class:`Join` nodes execute as genuine hash joins (bucket the
right side by join key, probe with the left), so planned expressions are
faster here too, not only over c-tables.  With ``optimize=True`` the
evaluator first plans the expression with statistics collected from the
instance, so n-way joins run in a cost-chosen order.
"""

from __future__ import annotations

from .algebra import (
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
from .instance import Fact, Instance, Relation

__all__ = ["evaluate", "evaluate_to_relation"]


def evaluate_to_relation(
    expression: RAExpression,
    instance: Instance,
    optimize: bool = False,
    stats=None,
) -> Relation:
    """Evaluate ``expression`` over ``instance`` and return a relation.

    ``optimize=True`` runs the rewrite planner plus the statistics-driven
    join-ordering pass (:mod:`repro.relational.planner`) before executing;
    the result is identical, joins just associate in a cheaper order.
    ``stats`` takes a pre-collected
    :class:`~repro.relational.stats.Statistics` to avoid re-scanning the
    instance per expression.
    """
    if optimize:
        from .planner import plan
        from .stats import resolve_stats

        stats = resolve_stats(stats, instance)
        expression = plan(expression, stats=stats)
    facts = _eval(expression, instance)
    return Relation(expression.arity, facts)


def evaluate(
    expressions: dict[str, RAExpression],
    instance: Instance,
    optimize: bool = False,
) -> Instance:
    """Evaluate a named vector of expressions: the query's output instance.

    With ``optimize=True`` statistics are collected once and shared by
    every expression's planning pass.
    """
    stats = None
    if optimize:
        from .stats import Statistics

        stats = Statistics.collect(instance)
    return Instance(
        {
            name: evaluate_to_relation(expr, instance, optimize=optimize, stats=stats)
            for name, expr in expressions.items()
        }
    )


def _eval(node: RAExpression, instance: Instance) -> set[Fact]:
    if isinstance(node, Scan):
        relation = instance[node.name]
        if relation.arity != node.arity:
            raise ValueError(
                f"scan of {node.name!r} expects arity {node.arity}, "
                f"instance has {relation.arity}"
            )
        return set(relation.facts)
    if isinstance(node, Select):
        rows = _eval(node.child, instance)
        return {row for row in rows if all(p.holds(row) for p in node.predicates)}
    if isinstance(node, Project):
        rows = _eval(node.child, instance)
        cols = node.columns
        return {tuple(row[c] for c in cols) for row in rows}
    if isinstance(node, Join):
        left = _eval(node.left, instance)
        right = _eval(node.right, instance)
        # Hash join: bucket the right side by its join-key projection.
        rcols = [r for _, r in node.on]
        lcols = [l for l, _ in node.on]
        buckets: dict[tuple, list[Fact]] = {}
        for fact in right:
            buckets.setdefault(tuple(fact[c] for c in rcols), []).append(fact)
        return {
            l + r
            for l in left
            for r in buckets.get(tuple(l[c] for c in lcols), ())
        }
    if isinstance(node, Product):
        left = _eval(node.left, instance)
        right = _eval(node.right, instance)
        return {l + r for l in left for r in right}
    if isinstance(node, Union):
        return _eval(node.left, instance) | _eval(node.right, instance)
    if isinstance(node, Intersect):
        return _eval(node.left, instance) & _eval(node.right, instance)
    if isinstance(node, Difference):
        return _eval(node.left, instance) - _eval(node.right, instance)
    raise TypeError(f"unknown RA node: {node!r}")
