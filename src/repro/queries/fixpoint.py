"""Recursive Datalog over c-tables: semi-naive least fixpoints.

The paper's third query family — fixpoints of positive existential
queries — evaluated over *conditioned* tables rather than ground
instances.  A pure Datalog program (no ``!=``) compiles rule-by-rule
through :func:`repro.relational.planner.ra_of_ucq` and the cost-based
planner, and the resulting plan forest runs to a least fixpoint on the
view manager's maintained-plan engine
(:class:`repro.views.manager.PlanCache`): every round is one insert
walk of the pending deltas through the rule roots, so round N's newly
derived c-rows feed round N+1 through the insert-delta rules of
:mod:`repro.ctalgebra.delta`, against caches and join partitions kept
from round to round.

Why this is sound: every lifted operator commutes with valuations, so
each semi-naive round commutes with ``rep`` — for any valuation ``v``,
``v`` applied to the c-table fixpoint is exactly the ground fixpoint of
the program on ``v``'s world.  The per-world fixpoints the paper defines
are therefore represented all at once::

    rep(fixpoint(P, D)) == { ground_fixpoint(P, I) : I in rep(D) }

Termination needs care that ground Datalog does not: two syntactically
different rows can represent the same facts, so naive row-set dedup may
never saturate.  Derived rows are therefore *canonicalised* — the local
condition is rewritten to a sorted, subsumption-pruned disjunctive
normal form (:func:`canonical_condition`) — and a new row is accepted
only if no retained row with the same terms has a condition its DNF
implies (:class:`_FactSet`).  Terms and condition atoms are drawn from
the finite pool generated by the base tables and the program, so the
canonical rows form a finite set and the fixpoint terminates.  The
subsumption test itself is validated by the differential harness in
``tests/test_datalog_ct.py``, which holds the semi-naive engine
``strong_canonicalize``-world-set-equal to :func:`naive_ct_refixpoint`
(whole-program re-evaluation each round through the independent
:func:`repro.ctalgebra.evaluate.evaluate_ct` path) and to per-world
ground fixpoints.

The test runs once per derived row, and derived rows carry the same few
condition values many times over, so each fact set memoises the
canonical form per condition and the subsumption verdict per pair of
canonical conditions.  Both are functions of structure, so a hit
returns what the call would have, and both are bounded by the distinct
conditions built from the same finite pool (:class:`_FactSet`).

Three layers:

* :class:`CTFixpoint` — the compiled program: rule plans, predicate
  split (EDB/IDB), arities.  Stateless; cheap to keep around.
* :class:`FixpointEvaluation` — one materialised fixpoint over one
  database: a plan cache over the rule bodies, per-predicate fact sets
  and the round loop.  Supports *incremental re-fixpoint*: inserting
  base rows seeds a delta and re-runs rounds from the saturated state
  (monotonicity makes this exact), which is what
  :class:`repro.views.ViewManager` uses to maintain recursive views.
* :func:`naive_ct_refixpoint` — the differential-testing oracle and
  benchmark baseline: re-derives every rule from scratch each round.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from ..core.conditions import (
    BOOL_TRUE,
    TRUE,
    BoolAnd,
    BoolAtom,
    BoolCondition,
    BoolOr,
    Conjunction,
)
from ..core.tables import CTable, Row, TableDatabase
from ..ctalgebra.evaluate import evaluate_ct
from ..relational.algebra import RAExpression, Scan
from ..relational.planner import plan, ra_of_ucq
from ..relational.stats import Statistics
from .datalog import DatalogQuery
from .rules import Rule, UCQQuery

# Not called here since rounds run on the view manager's PlanCache, but
# perfbench/spans.py wraps these names in this module, so they stay.
from ..ctalgebra.delta import (  # noqa: F401
    delta_join,
    delta_product,
    delta_project,
    delta_select,
    delta_union,
)
from ..relational.planner import plan_fingerprint  # noqa: F401

__all__ = [
    "CTFixpoint",
    "FixpointEvaluation",
    "canonical_condition",
    "datalog_fingerprint",
    "naive_ct_refixpoint",
]


# ---------------------------------------------------------------------------
# Canonical rows: the termination test
# ---------------------------------------------------------------------------


def _conjunction_sort_key(conj: Conjunction) -> tuple:
    return tuple(a.sort_key() for a in conj.atoms)


def _bool_of_conjunction(conj: Conjunction) -> BoolCondition:
    atoms = tuple(BoolAtom(a) for a in conj.atoms)
    if len(atoms) == 1:
        return atoms[0]
    return BoolAnd(atoms)


def _canonical_parts(
    condition: BoolCondition,
) -> tuple[BoolCondition, tuple[Conjunction, ...]] | None:
    """Canonical form plus its DNF, or ``None`` when unsatisfiable."""
    if condition == BOOL_TRUE:
        return BOOL_TRUE, condition.to_dnf()
    disjuncts = condition.to_dnf()
    if not disjuncts:
        return None
    if any(not d.atoms for d in disjuncts):
        return BOOL_TRUE, BOOL_TRUE.to_dnf()
    ordered = tuple(sorted(disjuncts, key=_conjunction_sort_key))
    parts = tuple(_bool_of_conjunction(d) for d in ordered)
    canonical = parts[0] if len(parts) == 1 else BoolOr(parts)
    return canonical, ordered


def canonical_condition(condition: BoolCondition) -> BoolCondition | None:
    """Rewrite a row condition into canonical DNF, or ``None`` when false.

    The canonical form is the sorted, satisfiability- and
    subsumption-pruned disjunctive normal form, rebuilt as an
    or-of-ands tree.  Semantically equal conditions that differ only in
    operator tree shape (e.g. the same matches discovered in different
    rounds) map to equal canonical conditions, which is what lets the
    fixpoint's duplicate test saturate.
    """
    parts = _canonical_parts(condition)
    return None if parts is None else parts[0]


def _dnf_subsumes(
    weaker: Sequence[Conjunction], stronger: Sequence[Conjunction]
) -> bool:
    """Does ``stronger`` imply ``weaker`` (as DNF world sets)?

    Sufficient criterion: every disjunct of ``stronger`` semantically
    implies some disjunct of ``weaker`` (congruence-closure implication
    via :meth:`Conjunction.implies`).  Sound but not complete — an
    incomplete test only keeps a few redundant rows, never loses worlds.
    """
    return all(any(s.implies(w) for w in weaker) for s in stronger)


class _FactSet:
    """The canonical rows of one predicate, with subsumption-based dedup.

    Rows are bucketed by their term tuple; within a bucket a candidate is
    dropped when an existing row's condition already covers it (same
    canonical condition, or its DNF is implied).  ``add`` returns the
    canonicalised row when it was genuinely new — exactly the rows that
    become the next round's delta.

    Derived conditions are fresh objects but rarely fresh values, so
    two memos make each distinct value cost one canonicalisation and
    each distinct ``(existing, candidate)`` pair one subsumption test.
    ``_canonical`` maps a condition to its :func:`_canonical_parts`
    result, and files each canonical form under its own key too (a
    canonical condition is its own canonical form), so a copy of one
    hits and equal rows share one canonical object.  ``_subsumes`` maps
    a pair of canonical conditions to :func:`_dnf_subsumes` on their
    DNFs.  Both functions read only their argument's structure, and
    condition equality is structural, so a hit returns exactly what the
    call would have.  The memos hold one entry per distinct condition
    given (plus its canonical form) and per distinct pair met in a
    bucket, all built from the finite atom pool of the termination
    argument; they live as long as the fact set, so a standing recursive
    view keeps them across :meth:`FixpointEvaluation.insert_base`.
    """

    __slots__ = ("buckets", "count", "_canonical", "_subsumes")

    def __init__(self) -> None:
        self.buckets: dict[tuple, list[tuple[Row, tuple[Conjunction, ...]]]] = {}
        self.count = 0
        self._canonical: dict[
            BoolCondition, tuple[BoolCondition, tuple[Conjunction, ...]] | None
        ] = {}
        self._subsumes: dict[tuple[BoolCondition, BoolCondition], bool] = {}

    def add(self, row: Row) -> Row | None:
        try:
            parts = self._canonical[row.condition]
        except KeyError:
            parts = _canonical_parts(row.condition)
            if parts is not None:
                parts = self._canonical.setdefault(parts[0], parts)
            self._canonical[row.condition] = parts
        if parts is None:
            return None
        condition, dnf = parts
        bucket = self.buckets.setdefault(row.terms, [])
        for existing, existing_dnf in bucket:
            if existing.condition == condition:
                return None
            pair = (existing.condition, condition)
            verdict = self._subsumes.get(pair)
            if verdict is None:
                verdict = self._subsumes[pair] = _dnf_subsumes(existing_dnf, dnf)
            if verdict:
                return None
        new_row = Row._trusted(row.terms, condition)
        bucket.append((new_row, dnf))
        self.count += 1
        return new_row

    def rows(self) -> Iterator[Row]:
        for bucket in self.buckets.values():
            for row, _ in bucket:
                yield row


# ---------------------------------------------------------------------------
# The compiled program
# ---------------------------------------------------------------------------


def _program_rules(program) -> tuple[tuple[Rule, ...], tuple[str, ...] | None, str]:
    if isinstance(program, DatalogQuery):
        return program.rules, program.outputs, program.name
    return tuple(program), None, "fixpoint"


class CTFixpoint:
    """A pure Datalog program compiled for c-table fixpoint evaluation.

    Accepts a :class:`~repro.queries.datalog.DatalogQuery` or a bare rule
    sequence.  Each proper rule's body compiles through
    :func:`~repro.relational.planner.ra_of_ucq` into product-of-scans +
    selections + head projection; bodyless ground rules become constant
    facts seeded into round zero.  Join ordering happens per evaluation,
    against the evaluated database's statistics memos.
    """

    def __init__(
        self,
        program,
        outputs: Sequence[str] | None = None,
        name: str | None = None,
    ) -> None:
        rules, program_outputs, program_name = _program_rules(program)
        # DatalogQuery re-validates purity and per-predicate arities.
        self.program = DatalogQuery(
            rules, outputs=outputs or program_outputs, name=name or program_name
        )
        self.rules = self.program.rules
        self.idb = self.program.idb
        self.outputs = self.program.outputs
        self.name = self.program.name
        self.arities: dict[str, int] = dict(self.program._arities)
        self.edb = frozenset(
            body_atom.pred
            for rule in self.rules
            for body_atom in rule.body
            if body_atom.pred not in self.idb
        )
        self.facts: list[Rule] = []
        plans: list[tuple[str, RAExpression]] = []
        for rule in self.rules:
            if not rule.body:
                for term in rule.head.terms:
                    if not term.is_constant():
                        raise ValueError(f"fact rule {rule!r} has a non-constant head")
                self.facts.append(rule)
            else:
                plans.append((rule.head.pred, ra_of_ucq(UCQQuery([rule]))))
        self.rule_plans = tuple(plans)

    def __repr__(self) -> str:
        return (
            f"CTFixpoint({self.name!r}, {len(self.rules)} rules, "
            f"outputs={list(self.outputs)})"
        )

    def referenced(self) -> frozenset[str]:
        """Every predicate the program reads or derives."""
        return frozenset(self.arities)

    def validate_schema(self, db: TableDatabase) -> None:
        """Fail fast when a database table disagrees with the program.

        EDB predicates must exist (matching the UCQ engine's unknown-
        relation error); IDB predicates may seed from a table but need
        not be present.
        """
        for name, arity in self.arities.items():
            if name in db and db[name].arity != arity:
                raise ValueError(
                    f"predicate {name!r} has arity {arity} in the program but "
                    f"the database table has arity {db[name].arity}"
                )
            if name in self.edb and name not in db:
                raise KeyError(name)

    def evaluation(self, db: TableDatabase) -> "FixpointEvaluation":
        """Compile against ``db``'s statistics and run to the least fixpoint."""
        return FixpointEvaluation(self, db)

    def run(self, db: TableDatabase) -> TableDatabase:
        """Evaluate to the least fixpoint; the one-shot entry point."""
        return self.evaluation(db).database()


def datalog_fingerprint(program) -> str:
    """A syntactic fingerprint of a Datalog program + output choice.

    Used where UCQ views use :func:`~repro.relational.planner.
    plan_fingerprint`: recursive-view matching in the view manager, the
    server's snapshot view lookup and the dispatcher's result cache.  The
    rule *set* is order-insensitive; variable naming is not normalised
    (syntactic, like the plan fingerprints).  The ``datalog[`` prefix
    keeps the namespace disjoint from plan fingerprints, which always
    start with an operator name.
    """
    if isinstance(program, CTFixpoint):
        program = program.program
    if not isinstance(program, DatalogQuery):
        program = DatalogQuery(program)
    body = ";".join(sorted(repr(rule) for rule in program.rules))
    heads = ",".join(program.outputs)
    return f"datalog[{heads}]{{{body}}}"


# ---------------------------------------------------------------------------
# The semi-naive engine
# ---------------------------------------------------------------------------


class FixpointEvaluation:
    """A materialised fixpoint of one program over one database.

    The rule bodies' planned trees live in one
    :class:`~repro.views.manager.PlanCache` — the view manager's
    maintained-plan engine — built over a database of empty relations,
    one per predicate, so every cache starts empty.  Round zero inserts
    the base rows and seed facts; every round is one
    :meth:`~repro.views.manager.PlanCache.insert_walk` of the pending
    deltas through the rule roots, and the roots' new rows pass through
    the per-predicate fact sets to become the next round's deltas.
    Trees share nodes across rules by plan fingerprint, so the scans of
    a shared relation (and any repeated subplans) keep a single cache
    the delta rules read consistently, and join nodes keep their
    partitions across rounds.

    The caches and fact sets stay live, so a later base-table insert can
    re-run rounds *from the saturated state* instead of recomputing —
    the recursive-view maintenance path.
    """

    def __init__(self, query: CTFixpoint, db: TableDatabase) -> None:
        # views.manager imports this module, so the cache is imported late.
        from ..views.manager import PlanCache

        query.validate_schema(db)
        self.query = query
        self.db = db
        self.rounds = 0
        #: One dict per round of the initial run: ``round`` (1-based),
        #: ``deltas`` (predicate -> delta row count) and ``ms`` wall time.
        #: The explain lines, ``--explain-json`` and the server's analyze
        #: flag all read it; :meth:`insert_base` adds nothing to it.
        self.round_stats: list[dict] = []
        self.facts: dict[str, _FactSet] = {pred: _FactSet() for pred in query.idb}
        empty = TableDatabase(
            [CTable(name, arity, ()) for name, arity in query.arities.items()]
        )
        self.cache = PlanCache(empty, Counter())
        stats = Statistics.collect(db)
        self.rule_roots = tuple(
            (head, self.cache.intern(plan(expr, stats=stats)))
            for head, expr in query.rule_plans
        )
        # Every predicate gets a scan node, even one no rule plan reads
        # (possible when every reading rule is a ground fact), so a later
        # insert has somewhere to land.
        self._scans = {
            name: self.cache.intern(Scan(name, arity))
            for name, arity in query.arities.items()
        }
        for node in self.cache.nodes.values():
            self.cache.materialize(node)
        self._seed(db)

    def _seed(self, db: TableDatabase) -> None:
        """Round zero: every base row and every ground fact is a delta."""
        deltas: dict[str, tuple[Row, ...]] = {}
        for name in self.query.arities:
            if name in self.query.idb:
                continue
            if name in db:
                deltas[name] = db[name].rows
        # IDB predicates may carry seed rows in the database, and ground
        # fact rules seed their head predicate; both pass through the fact
        # set so they are canonicalised like any derived row.
        idb_seed: dict[str, list[Row]] = {}
        for pred in self.query.idb:
            if pred in db:
                idb_seed.setdefault(pred, []).extend(db[pred].rows)
        for fact_rule in self.query.facts:
            idb_seed.setdefault(fact_rule.head.pred, []).append(
                Row(fact_rule.head.terms)
            )
        for pred, rows in idb_seed.items():
            accepted = [r for r in (self.facts[pred].add(row) for row in rows) if r]
            if accepted:
                deltas[pred] = deltas.get(pred, ()) + tuple(accepted)
        self._run(deltas, self.round_stats)

    # -- the round loop -----------------------------------------------------

    def _run(
        self, deltas: Mapping[str, tuple[Row, ...]], record: "list | None" = None
    ) -> int:
        """Run semi-naive rounds until no delta survives; return the count.

        Each round appends one entry to ``record`` when given.
        """
        from time import perf_counter

        from ..obs.tracing import current_trace

        rounds = 0
        pending = {name: rows for name, rows in deltas.items() if rows}
        active_trace = current_trace()
        cache = self.cache
        while pending:
            rounds += 1
            self.rounds += 1
            delta_sizes = {
                name: len(rows) for name, rows in sorted(pending.items())
            }
            round_start = perf_counter()
            produced: dict[str, list[Row]] = {}
            cache.begin()
            for head, root in self.rule_roots:
                fresh = cache.insert_walk(root, pending)[1]
                if fresh:
                    produced.setdefault(head, []).extend(fresh)
            pending = {}
            for head, rows in produced.items():
                accepted = tuple(
                    r for r in (self.facts[head].add(row) for row in rows) if r
                )
                if accepted:
                    pending[head] = accepted
            round_ms = (perf_counter() - round_start) * 1e3
            if record is not None:
                record.append(
                    {"round": self.rounds, "deltas": delta_sizes, "ms": round(round_ms, 3)}
                )
            if active_trace is not None:
                active_trace.add(
                    f"fixpoint.round:{self.rounds}", round_ms, **delta_sizes
                )
        return rounds

    # -- results ------------------------------------------------------------

    def table(self, pred: str, name: str | None = None) -> CTable:
        """The materialised c-table of one IDB predicate."""
        fact_set = self.facts[pred]
        return CTable._trusted(
            name or pred,
            self.query.arities[pred],
            tuple(fact_set.rows()),
            TRUE,
        )

    def database(self) -> TableDatabase:
        """The output vector, conditioned like the source database.

        Output tables carry ``TRUE`` globals; the source's accumulated
        global condition rides along as the database extra condition,
        mirroring :func:`repro.ctalgebra.evaluate.evaluate_ct_database`.
        """
        tables = [self.table(pred) for pred in self.query.outputs]
        return TableDatabase(tables, self.db.global_condition())

    # -- incremental maintenance -------------------------------------------

    def insert_base(self, relation: str, rows: Iterable[Row]) -> int:
        """Re-fixpoint incrementally after base rows were inserted.

        Seeds the relation's delta with the genuinely new rows and re-runs
        semi-naive rounds from the saturated caches.  Exact because the
        program is monotone; returns the number of rounds run (0 when the
        insert was absorbed without deriving anything).
        """
        if relation not in self.query.arities:
            return 0
        row_list = [row if isinstance(row, Row) else Row(row) for row in rows]
        if relation in self.query.idb:
            fact_set = self.facts[relation]
            fresh = tuple(r for r in (fact_set.add(row) for row in row_list) if r)
        else:
            scan = self._scans[relation]
            fresh = tuple(row for row in row_list if row not in scan.seen)
        if not fresh:
            return 0
        return self._run({relation: fresh})


# ---------------------------------------------------------------------------
# The naive oracle
# ---------------------------------------------------------------------------


def naive_ct_refixpoint(program, db: TableDatabase, outputs=None) -> TableDatabase:
    """Whole-program refixpoint: the oracle and benchmark baseline.

    Each round re-evaluates every rule body from scratch over (base
    tables + current IDB tables) through the naive
    :func:`~repro.ctalgebra.evaluate.evaluate_ct` — no deltas, no plan
    caches, no join ordering — and feeds the results through the same
    canonical fact sets.  Quadratic in rounds, independently derived:
    exactly what a differential oracle should be.
    """
    query = program if isinstance(program, CTFixpoint) else CTFixpoint(program, outputs)
    query.validate_schema(db)
    facts: dict[str, _FactSet] = {pred: _FactSet() for pred in query.idb}
    for pred in query.idb:
        if pred in db:
            for row in db[pred].rows:
                facts[pred].add(row)
    for fact_rule in query.facts:
        facts[fact_rule.head.pred].add(Row(fact_rule.head.terms))

    def eval_db() -> TableDatabase:
        tables = []
        for name, arity in query.arities.items():
            if name in query.idb:
                tables.append(
                    CTable(name, arity, tuple(facts[name].rows()))
                )
            elif name in db:
                tables.append(CTable(name, arity, db[name].rows))
            else:
                tables.append(CTable(name, arity, ()))
        return TableDatabase(tables)

    changed = True
    while changed:
        changed = False
        current = eval_db()
        for head, expr in query.rule_plans:
            derived = evaluate_ct(expr, current, name=head)
            fact_set = facts[head]
            for row in derived.rows:
                if fact_set.add(row) is not None:
                    changed = True
    tables = [
        CTable._trusted(pred, query.arities[pred], tuple(facts[pred].rows()), TRUE)
        for pred in (outputs or query.outputs)
    ]
    return TableDatabase(tables, db.global_condition())
