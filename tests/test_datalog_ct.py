"""Recursive Datalog over c-tables: the differential-oracle harness.

The contract (ISSUE 9): for a pure Datalog program ``P`` and a c-table
database ``D``, the semi-naive engine of :mod:`repro.queries.fixpoint`
must satisfy ``rep(fixpoint(P, D)) = {ground_fixpoint(P, I) : I in
rep(D)}`` — evaluating on the condition-bearing tables commutes with
instantiating a world.  Three independent references pin it down:

* :func:`~repro.queries.fixpoint.naive_ct_refixpoint` — whole-program
  re-evaluation through :func:`~repro.ctalgebra.evaluate.evaluate_ct`
  each round, sharing no delta machinery with the engine under test;
* the **gold** per-world semantics — enumerate ``rep(D)`` and run the
  *ground* :class:`~repro.queries.datalog.DatalogQuery` fixpoint in each
  world;
* **incremental** ``insert_base`` — feeding inserts through the
  standing evaluation must land at the same fixpoint as recomputing
  from scratch over the updated base.

World sets are compared after
:func:`~repro.core.worlds.strong_canonicalize`, as in
``tests/test_views.py`` — different derivation orders may keep
different (equivalent) condition representatives, so syntactic row
equality is too strict.  The randomized harness holds the engine to
identical canonical world sets across 105+ randomized uncertain-graph
programs (condition-bearing edges, Or-domains, variables shared across
rows, disconnected components, empty deltas).

Also here: seeded property tests for the *ground* engines
(``naive_fixpoint == seminaive_fixpoint`` fact-for-fact over random
pure programs, marked ``slow``), the fail-fast arity regression test,
a hypothesis differential test holding the fact set's memoised ``add``
to the unmemoised loop, and unit tests for ``canonical_condition`` /
``datalog_fingerprint``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import BoolAnd, BoolAtom, BoolOr, Conjunction, Eq, Neq
from repro.core.tables import CTable, Row, TableDatabase
from repro.core.terms import Constant, Variable
from repro.core.worlds import enumerate_worlds, strong_canonicalize
from repro.queries import fixpoint
from repro.queries.datalog import DatalogQuery, naive_fixpoint, seminaive_fixpoint
from repro.queries.fixpoint import (
    CTFixpoint,
    canonical_condition,
    datalog_fingerprint,
    naive_ct_refixpoint,
)
from repro.queries.rules import Atom, Rule, atom
from repro.relational.instance import Instance, Relation
from repro.relational.parser import parse_datalog
from repro.workloads import (
    reachability_program,
    same_generation_program,
    transitive_closure_program,
    uncertain_graph_database,
)

PROGRAMS = (
    transitive_closure_program(),
    reachability_program(),
    same_generation_program(),
)


def _world_set(db, extra, query=None):
    worlds = enumerate_worlds(db, query=query, extra_constants=extra)
    return {strong_canonicalize(w, extra) for w in worlds}


def _extra(*dbs):
    constants = set()
    for db in dbs:
        constants |= db.constants()
    return sorted(constants, key=Constant.sort_key)


def assert_rep_equal(left, right):
    extra = _extra(left, right)
    assert _world_set(left, extra) == _world_set(right, extra)


def _random_db(rng, with_source):
    return uncertain_graph_database(
        rng,
        num_nodes=rng.randint(3, 5),
        num_edges=rng.randint(0, 7),
        num_sources=rng.randint(1, 2) if with_source else 0,
        num_variables=2,
        var_probability=0.25,
        cond_probability=0.4,
        or_probability=0.5,
    )


# ---------------------------------------------------------------------------
# The randomized differential harness
# ---------------------------------------------------------------------------

#: 105 randomized uncertain-graph programs, each compared world-set to
#: world-set against the independent naive refixpoint oracle.
RANDOM_CASES = list(range(105))


class TestDifferentialHarness:
    @pytest.mark.parametrize("seed", RANDOM_CASES)
    def test_seminaive_matches_naive_oracle(self, seed):
        rng = random.Random(0xDA7A + seed)
        text = PROGRAMS[seed % len(PROGRAMS)]
        db = _random_db(rng, with_source="source" in text)
        program = CTFixpoint(parse_datalog(text))
        assert_rep_equal(program.run(db), naive_ct_refixpoint(program, db))

    @pytest.mark.parametrize("seed", range(25))
    def test_gold_per_world_ground_fixpoint(self, seed):
        # The definitional check: the c-table fixpoint's world set is
        # exactly the set of ground fixpoints of the input's worlds.
        rng = random.Random(0x601D + seed)
        text = PROGRAMS[seed % len(PROGRAMS)]
        db = _random_db(rng, with_source="source" in text)
        program = CTFixpoint(parse_datalog(text))
        out = program.run(db)
        extra = _extra(db, out)
        gold = _world_set(db, extra, query=program.program)
        assert _world_set(out, extra) == gold


class TestIncrementalInserts:
    @pytest.mark.parametrize("seed", range(15))
    def test_insert_base_matches_recompute(self, seed):
        # A standing evaluation fed inserts one at a time must land at
        # the same fixpoint as compiling fresh over the updated base.
        rng = random.Random(0x1A5E + seed)
        db = _random_db(rng, with_source=False)
        program = CTFixpoint(parse_datalog(transitive_closure_program()))
        evaluation = program.evaluation(db)
        rows = list(db["edge"].rows)
        nodes = max(rng.randint(3, 5), 3)
        for _ in range(4):
            row = Row((Constant(rng.randrange(nodes)), Constant(rng.randrange(nodes))))
            evaluation.insert_base("edge", (row,))
            rows.append(row)
            db = TableDatabase([CTable("edge", 2, rows)])
            assert_rep_equal(evaluation.database(), program.run(db))

    def test_duplicate_insert_is_an_empty_delta(self):
        db = TableDatabase(
            [CTable("edge", 2, [(Constant(0), Constant(1)), (Constant(1), Constant(2))])]
        )
        program = CTFixpoint(parse_datalog(transitive_closure_program()))
        evaluation = program.evaluation(db)
        before = set(evaluation.table("TC").rows)
        # The row is already in the base: absorbed with zero rounds run.
        assert evaluation.insert_base("edge", (Row((Constant(0), Constant(1))),)) == 0
        assert set(evaluation.table("TC").rows) == before

    def test_subsumed_derivation_does_not_loop(self):
        # edge(0,1) conditional on v=0, then inserted unconditionally:
        # the stronger row subsumes the weaker derivations and the
        # fixpoint saturates instead of oscillating.
        v = Variable("v")
        db = TableDatabase(
            [
                CTable(
                    "edge",
                    2,
                    [
                        Row((Constant(0), Constant(1)), Conjunction([Eq(v, Constant(0))])),
                        Row((Constant(1), Constant(2))),
                    ],
                )
            ]
        )
        program = CTFixpoint(parse_datalog(transitive_closure_program()))
        evaluation = program.evaluation(db)
        evaluation.insert_base("edge", (Row((Constant(0), Constant(1))),))
        rows = list(db["edge"].rows) + [Row((Constant(0), Constant(1)))]
        assert_rep_equal(
            evaluation.database(),
            program.run(TableDatabase([CTable("edge", 2, rows)])),
        )


class TestEdgeCases:
    def test_empty_graph(self):
        db = TableDatabase([CTable("edge", 2, [])])
        out = CTFixpoint(parse_datalog(transitive_closure_program())).run(db)
        assert len(out["TC"]) == 0

    def test_disconnected_components_stay_disconnected(self):
        facts = [(0, 1), (1, 2), (10, 11)]
        db = TableDatabase(
            [CTable("edge", 2, [(Constant(a), Constant(b)) for a, b in facts])]
        )
        out = CTFixpoint(parse_datalog(transitive_closure_program())).run(db)
        closed = {(a.value, b.value) for a, b in (r.terms for r in out["TC"].rows)}
        assert closed == {(0, 1), (1, 2), (0, 2), (10, 11)}

    def test_or_domain_edge_splits_worlds(self):
        # edge(0, v) present only when v in {1, 2}: three closure worlds
        # (v=1 chains through to 3, v=2 dead-ends, any other value of v
        # drops the edge entirely).
        v = Variable("v")
        db = TableDatabase(
            [
                CTable(
                    "edge",
                    2,
                    [
                        Row(
                            (Constant(0), v),
                            BoolOr(
                                (
                                    BoolAtom(Eq(v, Constant(1))),
                                    BoolAtom(Eq(v, Constant(2))),
                                )
                            ),
                        ),
                        Row((Constant(1), Constant(3))),
                    ],
                )
            ]
        )
        program = CTFixpoint(parse_datalog(transitive_closure_program()))
        out = program.run(db)
        extra = _extra(db, out)
        worlds = _world_set(out, extra)
        assert len(worlds) == 3
        assert_rep_equal(out, naive_ct_refixpoint(program, db))

    def test_self_loop_terminates(self):
        db = TableDatabase([CTable("edge", 2, [(Constant(0), Constant(0))])])
        out = CTFixpoint(parse_datalog(transitive_closure_program())).run(db)
        assert [r.terms for r in out["TC"].rows] == [(Constant(0), Constant(0))]

    def test_cycle_closes_completely(self):
        facts = [(0, 1), (1, 2), (2, 0)]
        db = TableDatabase(
            [CTable("edge", 2, [(Constant(a), Constant(b)) for a, b in facts])]
        )
        out = CTFixpoint(parse_datalog(transitive_closure_program())).run(db)
        assert len(out["TC"]) == 9  # the full 3x3 relation

    def test_multiple_outputs(self):
        db = TableDatabase(
            [CTable("edge", 2, [(Constant(0), Constant(1))]),
             CTable("source", 1, [(Constant(0),)])]
        )
        text = transitive_closure_program() + " " + reachability_program()
        out = CTFixpoint(parse_datalog(text)).run(db)
        assert set(out.names()) == {"TC", "reach"}
        assert len(out["reach"]) == 2


# ---------------------------------------------------------------------------
# Ground engines: naive == semi-naive, fact for fact
# ---------------------------------------------------------------------------


def _random_ground_program(rng):
    """A random safe pure-Datalog program over EDB ``e/2``."""
    variables = ["X", "Y", "Z", "W"]
    idb = ["p", "q"]
    rules = []
    for head_pred in idb:
        for _ in range(rng.randint(1, 2)):
            body = []
            for _ in range(rng.randint(1, 3)):
                pred = rng.choice(["e", "e", "p", "q"])
                body.append(atom(pred, rng.choice(variables), rng.choice(variables)))
            bound = sorted({v.name for a in body for v in a.variables()})
            if not bound:
                continue
            head_terms = [
                rng.choice(bound) if rng.random() < 0.8 else rng.randrange(3)
                for _ in range(2)
            ]
            rules.append(Rule(atom(head_pred, *head_terms), body))
    if not rules:
        rules.append(Rule(atom("p", "X", "Y"), [atom("e", "X", "Y")]))
    return rules


def _random_edb(rng, num_constants=4, num_facts=6):
    facts = {
        (Constant(rng.randrange(num_constants)), Constant(rng.randrange(num_constants)))
        for _ in range(num_facts)
    }
    return Instance({"e": Relation(2, facts)})


@pytest.mark.slow
class TestGroundEngineProperties:
    @pytest.mark.parametrize("seed", range(60))
    def test_naive_equals_seminaive(self, seed):
        rng = random.Random(0x6E0 + seed)
        rules = _random_ground_program(rng)
        instance = _random_edb(rng)
        naive = naive_fixpoint(rules, instance)
        semi = seminaive_fixpoint(rules, instance)
        assert set(naive) == set(semi)
        for name in naive:
            assert naive[name] == semi[name], name

    @pytest.mark.parametrize("engine", ["naive", "seminaive"])
    def test_engines_agree_through_datalog_query(self, engine):
        rng = random.Random(0xE2E)
        instance = _random_edb(rng)
        rules = parse_datalog(transitive_closure_program()).rules
        query = DatalogQuery(rules, engine=engine)
        out = query(instance)
        gold = naive_fixpoint(rules, instance)
        assert set(out["TC"].facts) == gold["TC"]


# ---------------------------------------------------------------------------
# Fail-fast arity validation (regression: _arities ran with no schema)
# ---------------------------------------------------------------------------


class TestArityValidation:
    def test_call_rejects_schema_mismatch(self):
        query = DatalogQuery(parse_datalog(transitive_closure_program()).rules)
        bad = Instance({"edge": Relation(3, {(Constant(0), Constant(1), Constant(2))})})
        with pytest.raises(ValueError, match="instance relation has arity 3"):
            query(bad)

    def test_output_schema_rejects_schema_mismatch(self):
        query = DatalogQuery(parse_datalog(transitive_closure_program()).rules)
        bad = Instance({"edge": Relation(3, set())})
        with pytest.raises(ValueError, match="arity"):
            query.output_schema(bad.schema())

    def test_ctfixpoint_rejects_database_mismatch(self):
        program = CTFixpoint(parse_datalog(transitive_closure_program()))
        db = TableDatabase([CTable("edge", 3, [])])
        with pytest.raises(ValueError, match="arity"):
            program.run(db)


# ---------------------------------------------------------------------------
# The fact set's memos against the unmemoised add loop
# ---------------------------------------------------------------------------


class _UnmemoisedFactSet:
    """The reference: ``_FactSet.add`` without its memos, so every call
    canonicalises and every bucket comparison runs the subsumption test."""

    def __init__(self):
        self.buckets = {}

    def add(self, row):
        parts = fixpoint._canonical_parts(row.condition)
        if parts is None:
            return None
        condition, dnf = parts
        bucket = self.buckets.setdefault(row.terms, [])
        for existing, existing_dnf in bucket:
            if existing.condition == condition:
                return None
            if fixpoint._dnf_subsumes(existing_dnf, dnf):
                return None
        new_row = Row(row.terms, condition)
        bucket.append((new_row, dnf))
        return new_row

    def rows(self):
        for bucket in self.buckets.values():
            for row, _ in bucket:
                yield row


_X, _Y = Variable("x"), Variable("y")
_ZERO, _ONE = Constant(0), Constant(1)
#: Two variables, two constants; conjoining them yields contradictions
#: (``x = 0 & x != 0``, ``x = 0 & y = 1 & x = y``).
_MEMO_ATOMS = (
    Eq(_X, _ZERO), Neq(_X, _ZERO), Eq(_Y, _ONE), Neq(_Y, _ONE), Eq(_X, _Y), Neq(_X, _Y),
)
_MEMO_TERMS = (
    (Constant("a"), Constant("b")),
    (Constant("a"), _X),
    (_Y, Constant("b")),
)

_conditions = st.recursive(
    st.sampled_from(_MEMO_ATOMS).map(BoolAtom),
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(lambda cs: BoolAnd(tuple(cs))),
        st.lists(children, max_size=3).map(lambda cs: BoolOr(tuple(cs))),
    ),
    max_leaves=8,
)


def _rebuilt(condition):
    """A structurally equal copy sharing no condition node."""
    if isinstance(condition, BoolAtom):
        atom = condition.atom
        return BoolAtom(type(atom)(atom.left, atom.right))
    return type(condition)(tuple(_rebuilt(child) for child in condition.children))


def _copy(condition, kind):
    if kind == "rebuilt":
        return _rebuilt(condition)
    if kind == "flattened":
        return condition.flattened()
    return canonical_condition(condition) or condition


class TestFactSetMemo:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(_MEMO_TERMS) - 1),
                _conditions,
                st.sampled_from(("rebuilt", "flattened", "canonical")),
            ),
            max_size=12,
        )
    )
    def test_memoised_add_matches_the_unmemoised_loop(self, stream):
        memoised, reference = fixpoint._FactSet(), _UnmemoisedFactSet()
        for index, condition, kind in stream:
            terms = _MEMO_TERMS[index]
            for fed in (condition, _copy(condition, kind)):
                row = Row(terms, fed)
                assert memoised.add(row) == reference.add(row)
        assert list(memoised.rows()) == list(reference.rows())
        assert memoised.count == len(list(reference.rows()))

    def test_a_copy_is_canonicalised_once(self, monkeypatch):
        condition = BoolOr((
            BoolAnd((BoolAtom(Eq(_X, _ZERO)), BoolAtom(Neq(_Y, _ONE)))),
            BoolAtom(Eq(_X, _Y)),
        ))
        copies = (_rebuilt(condition), canonical_condition(condition))
        calls = []
        canonical_parts = fixpoint._canonical_parts
        monkeypatch.setattr(
            fixpoint, "_canonical_parts", lambda c: calls.append(c) or canonical_parts(c)
        )
        facts = fixpoint._FactSet()
        first = facts.add(Row(_MEMO_TERMS[0], condition))
        assert first is not None
        for copy, terms in zip(copies, _MEMO_TERMS[1:]):
            assert facts.add(Row(_MEMO_TERMS[0], copy)) is None
            # A copy in an empty bucket is new, and takes the shared
            # canonical object.
            assert facts.add(Row(terms, copy)).condition is first.condition
        assert calls == [condition]


# ---------------------------------------------------------------------------
# Canonicalization and fingerprint units
# ---------------------------------------------------------------------------


class TestCanonicalCondition:
    def test_unsatisfiable_is_none(self):
        v = Variable("v")
        impossible = BoolAnd(
            (BoolAtom(Eq(v, Constant(0))), BoolAtom(Eq(v, Constant(1))))
        )
        assert canonical_condition(impossible) is None

    def test_disjunct_order_is_canonical(self):
        v = Variable("v")
        a = BoolAtom(Eq(v, Constant(0)))
        b = BoolAtom(Eq(v, Constant(1)))
        assert canonical_condition(BoolOr((a, b))) == canonical_condition(
            BoolOr((b, a))
        )

    def test_subsumed_disjunct_is_dropped(self):
        v, w = Variable("v"), Variable("w")
        weak = BoolAtom(Eq(v, Constant(0)))
        strong = BoolAnd((weak, BoolAtom(Eq(w, Constant(1)))))
        assert canonical_condition(BoolOr((weak, strong))) == canonical_condition(weak)


class TestDatalogFingerprint:
    def test_rule_order_is_irrelevant(self):
        a = "TC(X,Y) :- edge(X,Y). TC(X,Z) :- TC(X,Y), edge(Y,Z)."
        b = "TC(X,Z) :- TC(X,Y), edge(Y,Z). TC(X,Y) :- edge(X,Y)."
        assert datalog_fingerprint(parse_datalog(a)) == datalog_fingerprint(
            parse_datalog(b)
        )

    def test_output_choice_matters(self):
        text = transitive_closure_program() + " " + "P(X,Y) :- TC(X,Y)."
        rules = parse_datalog(text).rules
        assert datalog_fingerprint(
            DatalogQuery(rules, outputs=("TC",))
        ) != datalog_fingerprint(DatalogQuery(rules, outputs=("P",)))

    def test_accepts_fixpoint_and_query_alike(self):
        program = parse_datalog(transitive_closure_program())
        assert datalog_fingerprint(program) == datalog_fingerprint(
            CTFixpoint(program)
        )
