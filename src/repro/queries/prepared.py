"""One query pipeline: prepare once, match views in one place, execute once.

Every front end — ``repro eval``, ``DatabaseSession.query``, the
server's ``QueryDispatcher`` and its pool workers — answers a query in
the same three steps:

1. :func:`prepare` parses and compiles the text once: a UCQ to a
   relational algebra expression, a recursive program to a
   :class:`~repro.queries.fixpoint.CTFixpoint`.
2. :func:`match_view` looks for a materialized view with the query's
   fingerprint.  A naive request is the oracle and never asks.
3. :func:`execute` evaluates over one database version: the naive
   evaluator or the cost-ordered plan (optionally under EXPLAIN
   ANALYZE) for a UCQ, the refixpoint oracle or the semi-naive fixpoint
   for a program.

Failures come out as one :class:`QueryError`: text that does not parse
or compile reads ``query: ...``; an unknown relation or an arity clash
reads ``evaluation: ...``.  Each front end re-raises the message as its
own error type.

The parser, the UCQ compiler and the fingerprint functions are imported
where they are called, so each call looks them up in their defining
modules (where ``perfbench/spans.py`` wraps them).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from ..core.tables import CTable, TableDatabase
from ..ctalgebra.evaluate import evaluate_ct, evaluate_ct_planned
from ..obs.tracing import span
from .fixpoint import CTFixpoint, naive_ct_refixpoint

__all__ = ["Execution", "PreparedQuery", "QueryError", "execute", "match_view", "prepare"]


class QueryError(ValueError):
    """A query that cannot be answered; the message starts with
    ``query:`` (parse or compile failure) or ``evaluation:`` (unknown
    relation, arity clash)."""


class PreparedQuery:
    """A query compiled once, ready to match views and execute.

    ``kind`` is ``"ucq"`` or ``"datalog"``; ``name`` names the result
    table (the UCQ's head predicate, or the program's first output);
    ``compiled`` is the RA expression or the
    :class:`~repro.queries.fixpoint.CTFixpoint`; ``ordering`` is the
    join orderer :func:`execute` plans with.
    """

    def __init__(self, kind: str, name: str, compiled, ordering: str = "dp") -> None:
        self.kind = kind
        self.name = name
        self.compiled = compiled
        self.ordering = ordering

    @cached_property
    def fingerprint(self) -> "str | None":
        """The view-matching and request-cache key, computed on first use.

        :func:`~repro.relational.planner.plan_fingerprint` of a UCQ,
        :func:`~repro.queries.fixpoint.datalog_fingerprint` of a
        single-output program, and ``None`` for a program with several
        outputs, which no view and no cache entry (one table each) holds.
        """
        if self.kind == "ucq":
            from ..relational.planner import plan_fingerprint

            return plan_fingerprint(self.compiled)
        if len(self.compiled.outputs) == 1:
            from .fixpoint import datalog_fingerprint

            return datalog_fingerprint(self.compiled)
        return None


class Execution(NamedTuple):
    """What :func:`execute` produced.

    ``tables``: the result tables, one for a UCQ, one per output
    predicate (in output order) for a program; ``table`` is the first.
    ``plans``: the ``(head, expression)`` pairs that ran, cost-ordered
    or, under ``naive``, as compiled.  ``explain`` (explain lines) and
    ``analyze`` (the JSON-ready EXPLAIN ANALYZE payload) are filled only
    when asked for, and never under ``naive``.
    """

    tables: tuple
    plans: tuple
    explain: "list[str] | None" = None
    analyze: "dict | None" = None

    @property
    def table(self) -> CTable:
        return self.tables[0]


def prepare(text: str, datalog: bool = False, ordering: str = "dp") -> PreparedQuery:
    """Parse and compile query text: a UCQ, or with ``datalog`` a
    recursive program.  Raises :class:`QueryError` (``query: ...``)."""
    from ..relational.parser import ParseError, parse_datalog, parse_query
    from ..relational.planner import PlanError, ra_of_ucq

    with span("compile", datalog=datalog):
        try:
            if datalog:
                program = CTFixpoint(parse_datalog(text), ordering=ordering)
                return PreparedQuery("datalog", program.outputs[0], program, ordering)
            query = parse_query(text)
            return PreparedQuery("ucq", query.rules[0].head.pred, ra_of_ucq(query), ordering)
        except (ParseError, PlanError, ValueError) as exc:
            raise QueryError(f"query: {exc}") from exc


def match_view(prepared: PreparedQuery, candidates) -> "tuple[str, CTable] | None":
    """The first candidate view answering ``prepared``, or ``None``.

    ``candidates`` are ``(name, fingerprint, table)`` triples, e.g. a
    snapshot's view cut or the fresh entries of a view sidecar.  A view
    answers when its source fingerprint equals the query's: matching is
    syntactic, so a hit is sound — the view's table is the query's value
    over the version the candidates were cut from.  Returns the view's
    name and its table renamed to the query's result name.
    """
    wanted = prepared.fingerprint
    if wanted is None:
        return None
    for name, fingerprint, table in candidates:
        if fingerprint == wanted:
            return name, CTable._trusted(
                prepared.name, table.arity, table.rows, table.global_condition
            )
    return None


def execute(
    prepared: PreparedQuery,
    db: TableDatabase,
    stats=None,
    naive: bool = False,
    explain: bool = False,
    analyze: bool = False,
) -> Execution:
    """Evaluate a prepared query over one database version.

    ``stats`` is the matching :class:`~repro.relational.stats.Statistics`
    cut or a :class:`~repro.relational.stats.StatsStore` (collected from
    ``db`` when ``None``; unused under ``naive``).  ``naive`` runs the
    oracle: the literal select-over-product evaluator for a UCQ, the
    whole-program refixpoint for a program.  Raises :class:`QueryError`
    (``evaluation: ...``).
    """
    with span("execute", naive=naive):
        try:
            if prepared.kind == "datalog":
                return _execute_program(prepared.compiled, db, stats, naive, explain, analyze)
            return _execute_ucq(prepared, db, stats, naive, explain, analyze)
        except KeyError as exc:
            raise QueryError(f"evaluation: unknown relation {exc}") from exc
        except ValueError as exc:
            raise QueryError(f"evaluation: {exc}") from exc


def _execute_ucq(prepared, db, stats, naive, explain, analyze) -> Execution:
    expression = prepared.compiled
    if naive:
        table = evaluate_ct(expression, db, name=prepared.name)
        return Execution((table,), ((prepared.name, expression),))
    lines: "list[str] | None" = [] if explain else None
    table, planned, analysis = evaluate_ct_planned(
        expression, db, name=prepared.name, stats=stats, explain=lines,
        ordering=prepared.ordering, analyze=analyze,
    )
    payload = analysis.to_json() if analysis is not None else None
    return Execution((table,), ((prepared.name, planned),), lines, payload)


def _execute_program(program, db, stats, naive, explain, analyze) -> Execution:
    if naive:
        return Execution(tuple(naive_ct_refixpoint(program, db)), program.rule_plans)
    evaluation = program.evaluation(db, stats=stats)
    payload = None
    if analyze:
        rounds = evaluation.round_stats
        payload = {
            "kind": "datalog",
            "rounds": rounds,
            "total_ms": round(sum(r["ms"] for r in rounds), 3),
        }
    plans = tuple((head, root.expr) for head, root in evaluation.rule_roots)
    trace = evaluation.trace if explain else None
    return Execution(tuple(evaluation.database()), plans, trace, payload)
