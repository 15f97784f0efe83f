"""A model-checked serving session (hypothesis ``RuleBasedStateMachine``).

The machine drives one file-backed :class:`DatabaseSession` over a small
null-bearing database (two binary relations, at most 8 rows, the nulls
``x`` and ``y``, some local conditions, constants from {0, 1, 2}) with
interleaved update batches (some of them invalid), view define/drop,
queries through a ``QueryDispatcher(workers=0)`` (cache, view and inline
rungs, plain and naive) and persist → reload through
:meth:`SessionRegistry.open_file`.  The reference is pure: the ops
accepted since the last reload, replayed with ``apply_update`` (no views
attached) over the database that reload produced, and the naive
evaluator over that replay.

After every step:

* the version counts the ops accepted since the last reload, and a
  rejected batch changes nothing;
* the published database equals the replay;
* every answer and every view materialization represents the same set
  of worlds (after ``strong_canonicalize``) as ``evaluate_ct`` over the
  replay;
* every published table carries its statistics memo, and the memo
  describes the table exactly, histograms included: the memos are never
  stale.

The text notation does not round-trip syntactically (a rewritten
condition can reload in another, equivalent form), so a reload is
checked on world sets — and exactly for JSON — and the model continues
from the reloaded value.  The pool rung is covered by
``tests/test_pool_differential.py``.
"""

from __future__ import annotations

import json
import shutil
import tempfile

from functools import reduce
from pathlib import Path

import pytest

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.conditions import Conjunction, Eq, Neq
from repro.core.tables import CTable, Row, TableDatabase
from repro.core.terms import Constant, Variable
from repro.core.worlds import enumerate_worlds, strong_canonicalize
from repro.ctalgebra import evaluate_ct
from repro.extensions.updates import apply_update
from repro.io.jsonio import database_to_json
from repro.io.text import dumps_database
from repro.relational.parser import parse_query
from repro.relational.planner import ra_of_ucq
from repro.relational.stats import TableStats
from repro.server import SessionError, SessionRegistry
from repro.server.pool import QueryDispatcher

RELATIONS = ("R", "S")
VALUES = (0, 1, 2)
PROTECTED = [Constant(v) for v in VALUES]
TERMS = VALUES + ("?x", "?y")

VIEWS = {
    "VJ": "VJ(X, Z) :- R(X, Y), S(Y, Z).",
    "VU": "VU(X) :- R(X, Y). VU(X) :- S(Y, X).",
    "VS": "VS(X) :- R(X, 1).",
    "VI": "VI(X, Y) :- R(X, Y), S(X, Y).",
}
#: Query text -> the view it matches (same body and head, another name).
QUERIES = {
    "Q(X, Z) :- R(X, Y), S(Y, Z).": "VJ",
    "Q(X) :- R(X, Y). Q(X) :- S(Y, X).": "VU",
    "Q(X) :- R(X, 1).": "VS",
    "Q(X, Y) :- R(X, Y), S(X, Y).": "VI",
    "Q(X) :- R(X, X), S(X, 2).": None,
    "Q(X, Z) :- R(X, Y), R(Y, Z), X != Z.": None,
}


def _compile(text: str):
    return ra_of_ucq(parse_query(text))


def _worlds(db: TableDatabase) -> set:
    return {strong_canonicalize(w, PROTECTED) for w in enumerate_worlds(db, extra_constants=PROTECTED)}


def _table_worlds(table: CTable) -> set:
    return _worlds(TableDatabase.single(table))


_conditions = st.one_of(
    st.none(),
    st.builds(
        lambda op, var, value: Conjunction([op(Variable(var), Constant(value))]),
        st.sampled_from((Eq, Neq)), st.sampled_from("xy"), st.sampled_from(VALUES),
    ),
)
_rows = st.builds(Row, st.tuples(st.sampled_from(TERMS), st.sampled_from(TERMS)), _conditions)


@st.composite
def databases(draw) -> TableDatabase:
    rows = draw(st.lists(st.tuples(st.sampled_from(RELATIONS), _rows), max_size=8))
    return TableDatabase(
        CTable(name, 2, [row for owner, row in rows if owner == name]) for name in RELATIONS
    )


@st.composite
def ops(draw) -> tuple:
    """One update op; about one in five is invalid (hypothesis favours
    small integers, so the valid case sits at 0)."""
    kind = draw(st.sampled_from(("insert", "delete", "modify")))
    facts = [list(draw(st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES))))
             for _ in range(2 if kind == "modify" else 1)]
    relation = "R" if draw(st.booleans()) else "S"
    flaw = draw(st.integers(0, 14))
    if flaw == 12:
        relation = "T"  # unknown relation
    elif flaw == 13:
        facts[-1].append(0)  # wrong arity
    elif flaw == 14:
        facts[0][0] = "?v"  # not a constant
    return (kind, relation, *facts)


def _valid(op) -> bool:
    return op[1] in RELATIONS and all(
        len(fact) == 2 and "?v" not in fact for fact in op[2:]
    )


class SessionModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="session-model-"))
        self.dispatcher = QueryDispatcher(workers=0)
        self.views: set[str] = set()

    def teardown(self) -> None:
        self.dispatcher.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- the reference ------------------------------------------------------

    def _reload(self) -> None:
        self.session, stale = SessionRegistry().open_file("m", str(self.path))
        assert stale == ()
        self.base = self.session.snapshot().db
        self.accepted: list = []
        self.steps_since_reload = 0

    def replay(self) -> TableDatabase:
        return reduce(apply_update, self.accepted, self.base)

    def _check_answer(self, table: CTable, text: str) -> None:
        expected = evaluate_ct(_compile(text), self.replay(), name=table.name)
        assert table.arity == expected.arity
        assert _table_worlds(table) == _table_worlds(expected), text

    # -- rules --------------------------------------------------------------

    @initialize(db=databases(), notation=st.sampled_from(("text", "json")))
    def load(self, db: TableDatabase, notation: str) -> None:
        self.notation = notation
        self.path = self.directory / ("db.pwt" if notation == "text" else "db.json")
        if notation == "text":
            self.path.write_text(dumps_database(db), encoding="utf-8")
        else:
            self.path.write_text(json.dumps(database_to_json(db)), encoding="utf-8")
        self._reload()
        assert _worlds(self.base) == _worlds(db)

    @rule(batch=st.lists(ops(), min_size=1, max_size=3))
    def apply(self, batch) -> None:
        before = self.session.snapshot()
        if all(_valid(op) for op in batch):
            self.accepted.extend(batch)
            assert self.session.apply(batch) == len(self.accepted)
        else:
            with pytest.raises(SessionError):
                self.session.apply(batch)
            assert self.session.snapshot() is before

    @rule(name=st.sampled_from(sorted(VIEWS)))
    def define_view(self, name: str) -> None:
        if name in self.views:
            with pytest.raises(SessionError):
                self.session.define_view(VIEWS[name])
            return
        self.session.define_view(VIEWS[name])
        self.views.add(name)

    @rule(name=st.sampled_from(sorted(VIEWS)))
    def drop_view(self, name: str) -> None:
        if name not in self.views:
            with pytest.raises(SessionError):
                self.session.drop_view(name)
            return
        self.session.drop_view(name)
        self.views.discard(name)

    @rule(
        text=st.sampled_from(sorted(QUERIES)),
        use_views=st.booleans(),
        naive=st.booleans(),
        repeat=st.booleans(),
    )
    def query(self, text: str, use_views: bool, naive: bool, repeat: bool) -> None:
        result, served_by = self.dispatcher.query(
            self.session, text, use_views=use_views, naive=naive
        )
        matched = use_views and not naive and QUERIES[text] in self.views
        assert served_by in (("cache", "view") if matched else ("cache", "inline"))
        assert result.version == len(self.accepted)
        self._check_answer(result.table, text)
        if repeat:
            again, served_by = self.dispatcher.query(
                self.session, text, use_views=use_views, naive=naive
            )
            assert served_by == "cache" and again is result

    # A rule without arguments is the one hypothesis draws first; the
    # precondition keeps reloads from crowding out the other rules.
    @precondition(lambda self: self.steps_since_reload >= 3)
    @rule()
    def persist_and_reload(self) -> None:
        published = self.session.snapshot().db
        assert self.session.persist() == str(self.path)
        self._reload()
        if self.notation == "json":
            assert self.base == published
        assert _worlds(self.base) == _worlds(published)
        assert {name for name, *_ in self.session.snapshot().views} == self.views

    # -- invariants ---------------------------------------------------------

    @invariant()
    def version_counts_accepted_ops(self) -> None:
        assert self.session.version == len(self.accepted)
        self.steps_since_reload += 1

    @invariant()
    def published_database_is_the_replay(self) -> None:
        assert self.session.snapshot().db == self.replay()

    @invariant()
    def views_match_the_naive_evaluator(self) -> None:
        snap = self.session.snapshot()
        assert {name for name, *_ in snap.views} == self.views
        for name, _text, _fingerprint, table in snap.views:
            self._check_answer(table, VIEWS[name])

    @invariant()
    def statistics_describe_the_published_tables(self) -> None:
        for table in self.session.snapshot().db:
            assert table.has_stats()  # publishing fills the memo
            shipped = table.stats()
            fresh = TableStats.from_rows(
                table.name, table.arity, table.rows, table.global_condition
            )
            assert shipped.to_json() == fresh.to_json()
            for mine, theirs in zip(shipped.columns, fresh.columns):
                assert (mine.hist is None) == (theirs.hist is None)
                if mine.hist is not None:
                    assert mine.hist.total == theirs.hist.total
                    assert mine.hist.mcvs == theirs.hist.mcvs
                    assert [(b.lo, b.hi, b.count, b.distinct) for b in mine.hist.buckets] == [
                        (b.lo, b.hi, b.count, b.distinct) for b in theirs.hist.buckets
                    ]


SessionModel.TestCase.settings = settings(
    max_examples=80,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSessionModel = SessionModel.TestCase
