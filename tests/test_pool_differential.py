"""Differential test: the worker pool answers exactly like the inline path.

A pool worker receives query *text* and runs the same ``prepare`` /
``execute`` pipeline as the in-process rung, but in another interpreter
over a pickled, delta-shipped copy of the snapshot.  Anything that does
not survive that trip intact — hashing, interning, constant types —
shows up here as a different answer.  Seeded random UCQs run over small
databases built to stress exactly that: string constants next to equal-
looking numbers (``'1'`` and ``1`` are different constants), duplicate
rows, and labelled nulls shared across tables under local conditions.

Each query is answered through the pool rung of a
``QueryDispatcher(workers=1, cache_size=0)`` and inline through
:meth:`DatabaseSession.query`, plain and naive, with and without
``explain``; the two results must represent the same set of worlds
(compared by ``strong_canonicalize``), at the same version, with the
same explain lines.
"""

from __future__ import annotations

import random

import pytest

from repro.core.conditions import Conjunction, Eq, Neq
from repro.core.tables import TableDatabase, c_table
from repro.core.terms import Constant, Variable
from repro.core.worlds import enumerate_worlds, strong_canonicalize
from repro.server import DatabaseSession, SessionError
from repro.server.pool import QueryDispatcher

RELATIONS = {"R": 2, "S": 2, "T": 1}
#: The string '1' and the number 1 are distinct constants.
VALUES = ("a", "b", "1", 1, 2)
NULLS = ("?x", "?y")
QUERY_VARIABLES = ("X", "Y", "Z")


def _literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else str(value)


def random_database(rng: random.Random) -> TableDatabase:
    tables = []
    for name, arity in RELATIONS.items():
        rows = []
        for _ in range(rng.randint(1, 3)):
            terms = tuple(
                rng.choice(NULLS) if rng.random() < 0.25 else rng.choice(VALUES)
                for _ in range(arity)
            )
            condition = None
            if rng.random() < 0.3:
                op = rng.choice((Eq, Neq))
                condition = Conjunction(
                    [op(Variable(rng.choice("xy")), Constant(rng.choice(VALUES)))]
                )
            rows.append((terms, condition))
        # A duplicate row (the constructor drops it) and a row whose
        # terms repeat the first row's under a different condition.
        rows.append(rows[-1])
        first_terms, first_condition = rows[0]
        if first_condition is None:
            other = Conjunction([Neq(Variable("x"), Constant("a"))])
        else:
            other = None
        rows.append((first_terms, other))
        tables.append(c_table(name, arity, rows))
    return TableDatabase(tables)


def _random_rule(rng: random.Random, head_arity: int) -> str:
    body, used = [], []
    for position in range(rng.randint(1, 3)):
        relation = rng.choice(sorted(RELATIONS))
        terms = []
        for column in range(RELATIONS[relation]):
            if (position, column) != (0, 0) and rng.random() < 0.2:
                terms.append(_literal(rng.choice(VALUES)))
            else:
                variable = rng.choice(QUERY_VARIABLES)
                terms.append(variable)
                used.append(variable)
        body.append(f"{relation}({', '.join(terms)})")
    if rng.random() < 0.3:
        body.append(f"{rng.choice(used)} = {_literal(rng.choice(VALUES))}")
    if rng.random() < 0.3:
        body.append(f"{rng.choice(used)} != {rng.choice(used)}")
    head = ", ".join(rng.choice(used) for _ in range(head_arity))
    return f"Q({head}) :- {', '.join(body)}."


def random_ucq(rng: random.Random) -> str:
    head_arity = rng.randint(1, 2)
    return " ".join(_random_rule(rng, head_arity) for _ in range(rng.randint(1, 2)))


def _worlds(table, protected):
    worlds = enumerate_worlds(TableDatabase.single(table), extra_constants=protected)
    return {strong_canonicalize(world, protected) for world in worlds}


@pytest.fixture(scope="module")
def dispatcher():
    dispatcher = QueryDispatcher(workers=1, cache_size=0)
    yield dispatcher
    dispatcher.close()


OPTIONS = [
    {"naive": naive, "explain": explain}
    for naive in (False, True)
    for explain in (False, True)
]


@pytest.mark.parametrize("seed", range(40))
def test_pool_answers_like_inline(dispatcher, seed):
    rng = random.Random(0xB001 + seed)
    db = random_database(rng)
    session = DatabaseSession(f"db{seed}", db)
    protected = sorted(
        db.constants() | {Constant(value) for value in VALUES}, key=Constant.sort_key
    )
    for _ in range(3):
        query = random_ucq(rng)
        for options in OPTIONS:
            inline = session.query(query, **options)
            pooled, served_by = dispatcher.query(session, query, **options)
            assert served_by == "pool", query
            assert pooled.version == inline.version
            assert pooled.explain == inline.explain, query
            assert pooled.table.arity == inline.table.arity
            assert _worlds(pooled.table, protected) == _worlds(inline.table, protected), (
                query, options,
            )


@pytest.mark.parametrize(
    "query",
    ["Q(X) :- Missing(X).", "Q(X) :- R(X, Y, Z).", "Q(X :- R(X, Y)."],
)
def test_pool_reports_errors_like_inline(dispatcher, query):
    session = DatabaseSession("errors", random_database(random.Random(7)))
    with pytest.raises(SessionError) as inline:
        session.query(query)
    with pytest.raises(SessionError) as pooled:
        dispatcher.query(session, query)
    assert str(pooled.value) == str(inline.value)
