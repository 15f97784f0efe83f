"""Materialized c-table views with incremental delta maintenance.

A :class:`ViewManager` registers relational algebra expressions (parsed
rule text or programmatic ASTs) as **materialized views** over a c-table
database: each view is evaluated once through the cost-based planner
(:func:`repro.relational.planner.plan`, Selinger DP ordering) and its
result — plus every intermediate of the planned tree — is cached.
Thereafter the manager keeps the materializations consistent with the
database *incrementally*:

* **inserts** propagate through the planned tree as small delta
  c-tables, combined with the cached subplan results by the per-operator
  delta rules of :mod:`repro.ctalgebra.delta` (a one-row insert into a
  star fact table touches each join once, against the cached dimension
  tables, instead of re-running the whole view);
* **deletes** whose c-table semantics purely *remove* rows (the deleted
  fact matched ground rows only — no local condition was rewritten)
  propagate as **removal deltas**: the update reports the rows it
  dropped, the scan applies that report in O(delta), and the output
  rows each operator derived from the removed inputs are reconstructed
  exactly (same operator, same cached siblings — construction is
  deterministic) and subtracted from the caches, guarded by per-node
  soundness conditions (see :meth:`ViewManager._removal_delta`);
* a delete whose fact unified with a variable-bearing row, so a
  base-row *condition* was rewritten in place, or whose removal fails
  a guard above, triggers *targeted recomputation*: only the plan
  nodes whose subtree reads the touched relation are re-executed,
  against the cached results of their untouched siblings, never the
  whole view from cold (a modification is a delete then an insert,
  each half on its own path);
* an insert reaching the **right side of a difference** also falls back
  to recomputation of that node (and its ancestors): new right rows
  strengthen existing output conditions, which no additive delta can
  express.

Plan subtrees are shared **across views** by structural fingerprint
(:func:`repro.relational.planner.plan_fingerprint`): two views whose
planned trees contain the same join subtree share one cached
intermediate, maintained once per update.  Per-view dependency tracking
(the set of relations a view reads) makes updates to unrelated relations
free.

The cached nodes and the walks over them are one engine,
:class:`PlanCache`: interning, materialization, the insert walk over a
``{relation: rows}`` delta map, the removal walk, maintained join
partitions and term counts.  :class:`ViewManager` keeps every view's
tree in one cache and adds what is view-specific: the registry,
dependency tracking, recursive views, counters and the log.  The
semi-naive engine (:class:`~repro.queries.fixpoint.FixpointEvaluation`)
runs each of its rounds as an insert walk over a cache of its own.

Recursive (Datalog) programs register through :meth:`ViewManager.
define_datalog`: the view holds a live
:class:`~repro.queries.fixpoint.FixpointEvaluation`, so inserts maintain
it by *incremental re-fixpoint* — the inserted row seeds a delta and
semi-naive rounds resume from the saturated caches and partitions —
while deletions and modifications re-fixpoint from scratch (see
:class:`_RecursiveView`).

The manager plugs into the mutation path of
:mod:`repro.extensions.updates`: ``insert_fact(db, ..., views=manager)``
notifies the manager with the updated database.  Views are planned
against the database's statistics memos
(:meth:`~repro.core.tables.CTable.stats`), so there is no statistics
cache to keep in step with it.
Correctness is *representation-level*: after any update sequence, each
maintained view ``rep``-equals a full re-evaluation of its expression
over the updated database (the maintained rows may differ syntactically
— e.g. an intersection delta re-emits a row instead of growing its match
disjunction — which is why the differential harness in
``tests/test_views.py`` compares ``strong_canonicalize``d world sets).
"""

from __future__ import annotations

import threading

from collections import Counter
from operator import attrgetter
from typing import Iterable, Mapping

from ..core.conditions import TRUE
from ..core.tables import CTable, Row, TableDatabase
from ..core.terms import as_constant
from ..ctalgebra.delta import (
    delta_difference,
    delta_intersect,
    delta_join,
    delta_product,
    delta_project,
    delta_select,
    delta_union,
)
from ..ctalgebra.evaluate import apply_node
from ..ctalgebra.operators import (
    JoinPartition,
    join_ct,
    project_ct,
    select_ct,
)

# Not called here since nodes materialize through apply_node, but
# perfbench/spans.py wraps these names in this module, so they stay.
from ..ctalgebra.operators import difference_ct, intersect_ct, product_ct, union_ct  # noqa: F401
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
from ..obs.metrics import CounterGroup
from ..queries.fixpoint import CTFixpoint, datalog_fingerprint
from ..relational.planner import plan, plan_fingerprint, ra_of_ucq
from ..relational.stats import Statistics

__all__ = ["PlanCache", "ViewManager", "ViewError"]

#: Per-epoch walk results: nothing changed / rows appended / node rebuilt.
_NONE = ("none", ())
_RECOMPUTE = ("recompute", ())


class ViewError(ValueError):
    """Raised for bad view registrations (duplicate names, unknown views,
    uncompilable queries)."""


class _PlanNode:
    """One node of a planned tree, with its cached materialization.

    Nodes are interned per :class:`PlanCache` by :func:`plan_fingerprint`,
    so trees that overlap share both the node and its cache.
    ``seen`` mirrors ``cache.rows`` as a set, making delta appends and
    removals O(delta); ``counts`` is ``None`` until the soundness guard
    of the join removal delta first reads it, then maps each term tuple
    of the cache to how many of its rows carry it (rows with equal terms
    differ in their conditions), with no zero entries;
    ``epoch``/``result`` memoise the per-pass walk so a shared node does
    its work once per update (or fixpoint round), not once per root.

    ``partitions`` holds, for Join/Product nodes, the maintained
    :class:`~repro.ctalgebra.operators.JoinPartition` of each child's
    cache (keyed ``0``/``1``), built lazily on the first delta that
    needs it and kept in sync with the child caches thereafter — so a
    dimension-side one-row insert joins against the big cached fact
    side without re-partitioning it.  Partitions are per *parent* node
    (two parents joining the same child on different columns each keep
    their own), never a table's read-only
    :meth:`~repro.core.tables.CTable.join_partition` memo, since the
    sync mutates them; they are dropped whenever the child's cache
    changes in a way the walk results cannot mirror (recomputation,
    refresh).
    """

    __slots__ = (
        "expr", "fingerprint", "children", "relations",
        "cache", "seen", "counts", "epoch", "result", "partitions",
    )

    def __init__(self, expr: RAExpression, fingerprint: str, children: list["_PlanNode"]) -> None:
        self.expr = expr
        self.fingerprint = fingerprint
        self.children = children
        self.relations = frozenset(expr.relation_names())
        self.cache: CTable | None = None
        self.seen: set[Row] = set()
        self.counts: Counter | None = None
        self.epoch = -1
        self.result = _NONE
        self.partitions: dict[int, JoinPartition] = {}


class _View:
    __slots__ = ("name", "query_text", "source", "source_fingerprint", "planned", "root")

    def __init__(self, name, query_text, source, planned, root) -> None:
        self.name = name
        self.query_text = query_text
        self.source = source
        self.source_fingerprint = plan_fingerprint(source)
        self.planned = planned
        self.root = root

    @property
    def relations(self) -> frozenset:
        return self.root.relations


class _RecursiveView:
    """A recursive (Datalog) view, maintained by re-fixpoint.

    Holds a live :class:`~repro.queries.fixpoint.FixpointEvaluation`:
    base-table inserts re-run semi-naive rounds from the saturated
    caches (exact, because Datalog is monotone); deletions and
    modifications discard the evaluation and re-fixpoint from scratch —
    the recursive analogue of targeted recomputation, since a removed
    or rewritten base row may have fed every round after it (a fact set
    merges derivations under subsumption, so its rows carry no trace of
    which base rows they came from).
    ``source_fingerprint`` is a :func:`~repro.queries.fixpoint.
    datalog_fingerprint`, disjoint from plan fingerprints, so UCQ view
    matching never collides with recursive programs.
    """

    __slots__ = (
        "name", "query_text", "program", "evaluation", "output",
        "source_fingerprint", "relations", "cache",
    )

    def __init__(self, name, query_text, program, evaluation, output) -> None:
        self.name = name
        self.query_text = query_text
        self.program = program
        self.evaluation = evaluation
        self.output = output
        self.source_fingerprint = datalog_fingerprint(program)
        self.relations = program.referenced()
        self.cache = evaluation.table(output, name=name)


class ViewManager:
    """Registry + incremental maintainer of materialized c-table views.

    Each view's joins are cost-ordered against the database's
    statistics when the view is defined.

    ``counters`` exposes the maintenance telemetry the benchmarks and
    ``--explain`` surface: ``delta_rows``/``removed_rows``/
    ``delta_nodes`` (additive maintenance), ``recomputed_nodes``
    (targeted fallback), ``difference_fallbacks``, and
    ``skipped_updates`` (no dependent view).  ``last_maintenance`` is a
    bounded rolling log of human-readable lines, one per notification,
    most recent last — a modify therefore contributes both its delete
    and its insert line.
    """

    #: How many maintenance-log lines are retained.
    LOG_LIMIT = 50

    def __init__(self, db: TableDatabase) -> None:
        #: Reentrant; every public entry point below acquires it.
        self.lock = threading.RLock()
        self._views: dict[str, _View] = {}
        self.last_maintenance: list[str] = []
        # A CounterGroup *is* a dict (existing readers index it and copy
        # it unchanged); the thread-safe snapshot() additionally feeds
        # the server's /stats and /metrics surfaces.  Writes below stay
        # plain item assignments — they already run under self.lock.
        self.counters = CounterGroup(
            (
                "delta_rows",
                "removed_rows",
                "delta_nodes",
                "recomputed_nodes",
                "difference_fallbacks",
                "skipped_updates",
                "partition_builds",
                "partition_reuses",
                "refixpoint_rounds",
                "refixpoint_recomputes",
            )
        )
        #: Every UCQ view's planned tree, nodes shared across views.
        self._cache = PlanCache(db, self.counters)

    # -- registry ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def names(self) -> tuple[str, ...]:
        return tuple(self._views)

    @property
    def database(self) -> TableDatabase:
        return self._cache.db

    @property
    def subplan_count(self) -> int:
        """How many distinct plan nodes (cached subplans) are live —
        views sharing subtrees share nodes, so this is less than the sum
        of per-view tree sizes when sharing happens."""
        return len(self._cache.nodes)

    def define(self, name: str, query: "str | RAExpression") -> CTable:
        """Register and materialize a view; returns the materialization.

        ``query`` is either an :class:`RAExpression` or rule text (a UCQ
        in the ``repro eval`` syntax, compiled via
        :func:`~repro.relational.planner.ra_of_ucq`).
        """
        with self.lock:
            if name in self._views:
                raise ViewError(f"view {name!r} is already defined (drop it first)")
            query_text = None
            if isinstance(query, str):
                query_text = query
                source = self._compile(query)
            else:
                source = query
            cache = self._cache
            planned = plan(source, stats=Statistics.collect(cache.db))
            # Transactional: a failure while materializing (unknown relation,
            # arity mismatch) must not leave freshly-interned, partially
            # cached nodes behind — no view would own them, so notifications
            # would never maintain them and a later define() sharing a
            # fingerprint would silently reuse the stale cache.
            nodes_before = dict(cache.nodes)
            root = cache.intern(planned)
            try:
                cache.materialize(root)
            except Exception:
                cache.nodes = nodes_before
                raise
            view = _View(name, query_text, source, planned, root)
            self._views[name] = view
            return self.get(name)

    def define_datalog(
        self, name: str, program, output: "str | None" = None
    ) -> CTable:
        """Register and materialize a **recursive** (Datalog) view.

        ``program`` is rule text (recursion allowed), a
        :class:`~repro.queries.DatalogQuery`, a rule sequence or a
        pre-compiled :class:`~repro.queries.CTFixpoint`.  The view
        materializes one derived predicate — ``output``, defaulting to
        the view's own name — as its table; the full fixpoint state stays
        live so base-table inserts maintain it incrementally.
        """
        with self.lock:
            if name in self._views:
                raise ViewError(f"view {name!r} is already defined (drop it first)")
            query_text = None
            if isinstance(program, str):
                query_text = program
                compiled = self._compile_datalog(program)
            elif isinstance(program, CTFixpoint):
                compiled = program
            else:
                try:
                    compiled = CTFixpoint(program)
                except ValueError as exc:
                    raise ViewError(f"cannot compile recursive view: {exc}") from exc
            chosen = output if output is not None else name
            if chosen not in compiled.idb:
                raise ViewError(
                    f"recursive view output {chosen!r} is not a derived "
                    f"predicate of the program (have {sorted(compiled.idb)})"
                )
            try:
                evaluation = compiled.evaluation(self._cache.db)
            except ValueError as exc:
                raise ViewError(f"cannot materialize recursive view: {exc}") from exc
            self._views[name] = _RecursiveView(
                name, query_text, compiled, evaluation, chosen
            )
            return self.get(name)

    @staticmethod
    def text_is_recursive(query_text: str) -> bool:
        """Does rule text define a recursive (Datalog) program?"""
        from ..relational.parser import ParseError, parse_rules

        try:
            rules = parse_rules(query_text)
        except (ParseError, ValueError) as exc:
            raise ViewError(f"cannot compile view query: {exc}") from exc
        heads = {rule.head.pred for rule in rules}
        return any(
            body_atom.pred in heads for rule in rules for body_atom in rule.body
        )

    def define_text(self, name: str, query_text: str) -> CTable:
        """Register a view from rule text, recursive or not.

        The text-facing front door shared by the sidecar registry and the
        server: recursive programs dispatch to :meth:`define_datalog`,
        plain UCQs to :meth:`define`.
        """
        if self.text_is_recursive(query_text):
            return self.define_datalog(name, query_text)
        return self.define(name, query_text)

    def drop(self, name: str) -> None:
        """Forget a view; subplan caches no other view uses are released."""
        with self.lock:
            if name not in self._views:
                raise ViewError(f"no view named {name!r}")
            del self._views[name]
            live: dict[str, _PlanNode] = {}
            for view in self._views.values():
                if isinstance(view, _View):
                    live.update(self._cache.collect(view.root))
            self._cache.nodes = live

    def get(self, name: str) -> CTable:
        """The current materialization of a view, as a c-table bearing the
        view's name.  O(1): the cached rows are already validated and
        deduplicated, so this is a rename, not a copy."""
        with self.lock:
            view = self._view(name)
            if isinstance(view, _RecursiveView):
                return view.cache
            cache = view.root.cache
            return CTable._trusted(
                view.name, cache.arity, cache.rows, cache.global_condition
            )

    def query_text(self, name: str) -> "str | None":
        """The rule text a view was registered from (``None`` when the
        view was registered as a programmatic expression)."""
        return self._view(name).query_text

    def materializations(self) -> tuple:
        """Every view as ``(name, query_text, source_fingerprint, table)``.

        One consistent cut across all views, taken under :attr:`lock` —
        the serving layer publishes this alongside each database version
        so a reader's snapshot can answer ``--use-views`` queries without
        ever touching the (mutable) manager again.  The tables are the
        O(1) renamed caches of :meth:`get`.
        """
        with self.lock:
            return tuple(
                (view.name, view.query_text, view.source_fingerprint, self.get(name))
                for name, view in self._views.items()
            )

    def relations(self, name: str) -> frozenset:
        """The base relations a view reads (its dependency set)."""
        return self._view(name).relations

    def readers(self, relation: str) -> tuple[str, ...]:
        """The views that depend on ``relation``, in definition order."""
        return tuple(
            name for name, view in self._views.items() if relation in view.relations
        )

    def refresh(self, name: str | None = None, db: TableDatabase | None = None) -> None:
        """Recompute one view (or all) from the current database.

        Never needed for consistency — the notifications keep caches
        fresh — but it is how a caller rebinds the manager after
        replacing the database *outside* the update operators (pass the
        new ``db``), and the CLI's explicit re-materialization command.
        A replaced database invalidates **every** cache, so ``db`` and
        ``name`` cannot be combined: refreshing one view against a new
        database would leave the others permanently inconsistent.
        """
        with self.lock:
            if db is not None:
                if name is not None:
                    raise ViewError(
                        "refresh(name=..., db=...) would leave every other view "
                        "stale against the new database; rebind with db= alone"
                    )
                self._cache.db = db
            self._cache.begin()
            views = [self._view(name)] if name is not None else list(self._views.values())
            for view in views:
                if isinstance(view, _RecursiveView):
                    self._refixpoint(view)
                else:
                    self._cache.refresh_walk(view.root)

    # -- mutation notifications ----------------------------------------------

    def notify_insert(self, relation: str, fact: Iterable, db: TableDatabase) -> None:
        """A ground fact was inserted into ``relation``; ``db`` is the
        updated database.  Dependent views are maintained by delta rules,
        falling back to targeted recomputation under difference."""
        with self.lock:
            affected = self._begin(relation, db, "insert into")
            if not affected:
                return
            row = Row(tuple(as_constant(v) for v in fact))
            before = dict(self.counters)
            for view in affected:
                if isinstance(view, _RecursiveView):
                    self._recursive_insert(view, relation, row)
                else:
                    self._cache.insert_walk(view.root, {relation: (row,)})
            self._log_delta(relation, "insert into", affected, before)

    def notify_delete(
        self, relation: str, fact: Iterable, db: TableDatabase,
        dropped: tuple, rewritten: bool,
    ) -> None:
        """A ground fact was deleted from ``relation``; ``db`` is the
        updated database.  ``dropped`` and ``rewritten`` are the update's
        report (see :func:`repro.extensions.updates.delete_fact`): the
        rows it dropped from the table, and whether it strengthened any
        row's condition in place.  Pure row removals propagate as removal
        deltas from the dropped rows, in O(delta) at the scan;
        condition-rewriting deletions (the fact unified with a null)
        recompute dependent subtrees against cached siblings — targeted,
        never the whole tree when any subtree avoids the relation."""
        with self.lock:
            affected = self._begin(relation, db, "delete from")
            if not affected:
                return
            before = dict(self.counters)
            for view in affected:
                if isinstance(view, _RecursiveView):
                    # No removal delta exists for a fixpoint: a rewritten
                    # (or removed) base row invalidates every round that
                    # consumed it, so re-fixpoint from scratch.
                    self._refixpoint(view)
                else:
                    self._cache.delete_walk(view.root, relation, dropped, rewritten)
            removed = self.counters["removed_rows"] - before["removed_rows"]
            recomputed = self.counters["recomputed_nodes"] - before["recomputed_nodes"]
            refixpoints = (
                self.counters["refixpoint_recomputes"] - before["refixpoint_recomputes"]
            )
            line = f"delete from {relation}: {len(affected)} view(s), -{removed} row(s)"
            if recomputed:
                # Only priced when something recomputed: collect the distinct
                # nodes of every affected tree (shared ones once) and report
                # how many kept their caches.
                nodes: dict[str, _PlanNode] = {}
                for view in affected:
                    if isinstance(view, _View):
                        nodes.update(self._cache.collect(view.root))
                line += (
                    f", {recomputed} node(s) recomputed, "
                    f"{max(len(nodes) - recomputed, 0)} cached subplan(s) reused"
                )
            if refixpoints:
                line += f", {refixpoints} recursive view(s) re-fixpointed"
            self._log(line)

    def notify_modify(
        self, relation: str, old: Iterable, new: Iterable, db: TableDatabase,
        dropped: tuple, rewritten: bool,
    ) -> None:
        """A fact was modified.  The update path implements modify as
        delete-then-insert and notifies each half separately; this entry
        point exists for callers applying a modification atomically (both
        halves run under one acquisition of :attr:`lock`).  ``dropped``
        and ``rewritten`` are the delete half's report."""
        with self.lock:
            self.notify_delete(relation, old, db, dropped, rewritten)
            self.notify_insert(relation, new, db)

    # -- internals -----------------------------------------------------------

    def _view(self, name: str) -> _View:
        try:
            return self._views[name]
        except KeyError:
            raise ViewError(f"no view named {name!r}") from None

    @staticmethod
    def _compile(query_text: str) -> RAExpression:
        from ..relational.parser import ParseError, parse_query

        try:
            return ra_of_ucq(parse_query(query_text))
        except (ParseError, ValueError) as exc:
            raise ViewError(f"cannot compile view query: {exc}") from exc

    def _compile_datalog(self, query_text: str) -> CTFixpoint:
        from ..relational.parser import ParseError, parse_datalog

        try:
            return CTFixpoint(parse_datalog(query_text))
        except (ParseError, ValueError) as exc:
            raise ViewError(f"cannot compile recursive view: {exc}") from exc

    def _recursive_insert(self, view: _RecursiveView, relation: str, row: Row) -> None:
        """Incremental maintenance of a recursive view: seed the insert as
        a delta and re-run semi-naive rounds from the saturated caches."""
        evaluation = view.evaluation
        before = sum(fs.count for fs in evaluation.facts.values())
        rounds = evaluation.insert_base(relation, (row,))
        derived = sum(fs.count for fs in evaluation.facts.values()) - before
        self.counters["refixpoint_rounds"] += rounds
        if derived:
            self.counters["delta_rows"] += derived
            self.counters["delta_nodes"] += 1
            view.cache = evaluation.table(view.output, name=view.name)

    def _refixpoint(self, view: _RecursiveView) -> None:
        """Recompute a recursive view from scratch over the current
        database (the delete/modify/refresh fallback)."""
        view.evaluation = view.program.evaluation(self._cache.db)
        view.cache = view.evaluation.table(view.output, name=view.name)
        self.counters["refixpoint_recomputes"] += 1

    def _begin(self, relation: str, db: TableDatabase, verb: str) -> list[_View]:
        """Shared notification prologue: rebind the database, start a
        cache pass, and find the dependent views."""
        self._cache.db = db
        self._cache.begin()
        affected = [v for v in self._views.values() if relation in v.relations]
        if not affected:
            self.counters["skipped_updates"] += 1
            self._log(f"{verb} {relation}: no dependent views")
        return affected

    def _log(self, line: str) -> None:
        self.last_maintenance.append(line)
        del self.last_maintenance[: -self.LOG_LIMIT]

    def _log_delta(self, relation: str, verb: str, affected, before) -> None:
        rows = self.counters["delta_rows"] - before["delta_rows"]
        nodes = self.counters["delta_nodes"] - before["delta_nodes"]
        recomputed = self.counters["recomputed_nodes"] - before["recomputed_nodes"]
        line = (
            f"{verb} {relation}: {len(affected)} view(s), "
            f"+{rows} row(s) via {nodes} delta node(s)"
        )
        if recomputed:
            line += f", {recomputed} node(s) recomputed (difference fallback)"
        self._log(line)


class PlanCache:
    """Interned plan nodes with their cached materializations, and the
    walks that keep those caches equal to a re-evaluation.

    The one maintained-plan engine.  :class:`ViewManager` keeps every
    view's planned tree in one cache over the live database;
    :class:`~repro.queries.fixpoint.FixpointEvaluation` keeps its rule
    bodies' trees in one cache over a database of empty relations and
    runs each semi-naive round as one :meth:`insert_walk` of the round's
    deltas.

    * :meth:`intern` shares nodes by
      :func:`~repro.relational.planner.plan_fingerprint`;
      :meth:`materialize` and :meth:`rebuild` evaluate a node through
      :func:`~repro.ctalgebra.evaluate.apply_node`, the evaluator's own
      per-node operator dispatch.
    * :meth:`insert_walk` propagates inserted base rows through the
      insert-delta rules of :mod:`repro.ctalgebra.delta`,
      :meth:`delete_walk` propagates removals through the reconstructed
      removal deltas of :meth:`_removal_delta`, and :meth:`refresh_walk`
      rebuilds from the database.  Each is memoised per :attr:`epoch`
      (bumped by :meth:`begin`), so a node shared by several roots does
      its work once per pass.
    * Join and product nodes keep maintained partitions of their
      children's caches (:meth:`_partition_for`); term counts are built
      on the first removal guard that reads them (:meth:`_counts`).

    ``counters`` is the caller's counter mapping; the walks add to
    ``delta_rows``, ``delta_nodes``, ``removed_rows``,
    ``recomputed_nodes``, ``difference_fallbacks``, ``partition_builds``
    and ``partition_reuses``.
    """

    def __init__(self, db: TableDatabase, counters) -> None:
        self.db = db
        self.counters = counters
        self.nodes: dict[str, _PlanNode] = {}
        self.epoch = 0

    def begin(self) -> None:
        """Start a new pass: every node walks afresh."""
        self.epoch += 1

    def intern(self, expr: RAExpression) -> _PlanNode:
        fingerprint = plan_fingerprint(expr)
        node = self.nodes.get(fingerprint)
        if node is not None:
            return node
        children = [self.intern(child) for child in expr.children()]
        node = _PlanNode(expr, fingerprint, children)
        self.nodes[fingerprint] = node
        return node

    @staticmethod
    def collect(root: _PlanNode) -> dict[str, _PlanNode]:
        """Every node of one tree, shared ones once, by fingerprint."""
        out: dict[str, _PlanNode] = {}

        def walk(node: _PlanNode) -> None:
            if node.fingerprint in out:
                return
            out[node.fingerprint] = node
            for child in node.children:
                walk(child)

        walk(root)
        return out

    def materialize(self, node: _PlanNode) -> None:
        if node.cache is not None:
            return
        for child in node.children:
            self.materialize(child)
        self.rebuild(node)

    def rebuild(self, node: _PlanNode) -> None:
        """(Re)compute a node from the database / its children's caches."""
        node.cache = apply_node(node.expr, [child.cache for child in node.children], self.db)
        node.seen = set(node.cache.rows)
        node.counts = None
        # A rebuild means the children's caches changed in ways the walk
        # results don't describe; any maintained partitions are stale.
        node.partitions.clear()

    # -- bookkeeping ---------------------------------------------------------

    @staticmethod
    def _delta_table(node: _PlanNode, rows: tuple) -> CTable:
        """A walk result's rows as a delta operand.  They come out of a
        seen-set (or the update's report), so they are already distinct."""
        return CTable._trusted("delta", node.expr.arity, rows, TRUE)

    @staticmethod
    def _counts(node: _PlanNode) -> Counter:
        """The node's term counts, built from its cache on first use and
        kept in step with it afterwards."""
        if node.counts is None:
            node.counts = Counter(map(attrgetter("terms"), node.cache.rows))
        return node.counts

    @staticmethod
    def _absorb(node: _PlanNode, rows) -> tuple:
        """Add the rows not yet cached to a node's cache; returns them.

        Deduplicates within ``rows`` as well as against ``seen`` — the
        updated-left join delta emits each ``dL >< dR`` pair from both
        of its terms, and a union delta repeats a row derivable from
        both branches; the cache must stay a set either way.
        """
        seen = node.seen
        fresh: list[Row] = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                fresh.append(row)
        new = tuple(fresh)
        if new:
            node.cache = node.cache.extended(new)
            if node.counts is not None:
                node.counts.update(map(attrgetter("terms"), new))
        return new

    def _append(self, node: _PlanNode, rows) -> tuple:
        """:meth:`_absorb` an operator node's delta rows, counted."""
        new = self._absorb(node, rows)
        if new:
            self.counters["delta_rows"] += len(new)
            self.counters["delta_nodes"] += 1
        return new

    def _subtract(self, node: _PlanNode, removed: tuple) -> tuple:
        """Drop reconstructed removal-delta rows from a node's cache;
        returns the rows it actually dropped (a reconstruction may
        include rows the cache never held, e.g. pairs its hash join
        pruned)."""
        gone = tuple(row for row in dict.fromkeys(removed) if row in node.seen)
        if gone:
            dropped = set(gone)
            table = node.cache
            rows = tuple(row for row in table.rows if row not in dropped)
            node.cache = CTable._trusted(
                table.name, table.arity, rows, table.global_condition
            )
            self._forget(node, gone)
            self.counters["removed_rows"] += len(gone)
            self.counters["delta_nodes"] += 1
        return gone

    @staticmethod
    def _forget(node: _PlanNode, rows) -> None:
        """Take rows that left a node's cache out of its ``seen`` and, once
        built, its ``counts``; a term tuple whose count reaches 0 leaves
        the map."""
        node.seen.difference_update(rows)
        counts = node.counts
        if counts is None:
            return
        for row in rows:
            left = counts[row.terms] - 1
            if left:
                counts[row.terms] = left
            else:
                del counts[row.terms]

    def _partition_for(self, node: _PlanNode, index: int) -> JoinPartition:
        """The maintained partition of child ``index``'s cache for this
        Join/Product node's join columns — built from the child's
        *current* cache on first use, reused (and kept in sync by
        :meth:`_sync_partitions`) afterwards."""
        part = node.partitions.get(index)
        if part is not None:
            self.counters["partition_reuses"] += 1
            return part
        on = node.expr.on if isinstance(node.expr, Join) else ()
        columns = [l for l, _ in on] if index == 0 else [r for _, r in on]
        part = JoinPartition(node.children[index].cache, columns)
        node.partitions[index] = part
        self.counters["partition_builds"] += 1
        return part

    @staticmethod
    def _sync_partitions(node: _PlanNode, results) -> list:
        """Mirror the children's walk results into any maintained
        partitions, keeping them equal to the (just updated) child
        caches.  A result the walk cannot mirror drops the partition;
        it will be rebuilt from the fresh cache on next use.  Returns,
        per child, the partition of just its delta rows where a
        maintained partition classified them (``None`` elsewhere), for
        the delta join to take instead of classifying them again."""
        added = [None] * len(results)
        for index, (kind, rows) in enumerate(results):
            part = node.partitions.get(index)
            if part is None:
                continue
            if kind == "delta":
                added[index] = part.add_rows(rows)
            elif kind == "removed":
                part.remove_rows(rows)
            elif kind == "recompute":
                del node.partitions[index]
        return added

    def _recompute_node(self, node: _PlanNode):
        """Targeted fallback: rebuild one node from its (already updated)
        children caches and poison the additive path upward."""
        self.rebuild(node)
        self.counters["recomputed_nodes"] += 1
        node.result = _RECOMPUTE
        return node.result

    # -- the walks -----------------------------------------------------------

    def insert_walk(self, node: _PlanNode, deltas: Mapping[str, tuple]):
        """Propagate inserted base rows through one node.

        ``deltas`` maps each touched relation to its inserted rows: one
        row for a view update, a whole round's new facts for a fixpoint.
        A scan appends the rows it has not seen (an idempotent re-insert
        leaves ``rep`` unchanged); every other node combines its
        children's results with their caches by the delta rule of its
        operator.  Returns ``("none", ())`` (nothing changed),
        ``("delta", rows)`` (rows were appended to the cache), or
        ``("recompute", ())`` (the node was rebuilt — ancestors must
        rebuild too).  Only a difference whose right side gained rows
        rebuilds; a fixpoint plan holds scans, selections, projections,
        joins, products and unions only, so its walks never do.
        """
        if node.epoch == self.epoch:
            return node.result
        node.epoch = self.epoch
        if node.relations.isdisjoint(deltas):
            node.result = _NONE
            return _NONE
        expr = node.expr

        if isinstance(expr, Scan):
            new = self._absorb(node, deltas[expr.name])
            node.result = ("delta", new) if new else _NONE
            return node.result

        if isinstance(expr, (Select, Project)):
            child = node.children[0]
            child_result = self.insert_walk(child, deltas)
            if child_result[0] == "recompute":
                return self._recompute_node(node)
            if child_result[0] == "none":
                node.result = _NONE
                return _NONE
            delta_in = self._delta_table(child, child_result[1])
            if isinstance(expr, Select):
                delta = delta_select(delta_in, expr.predicates)
            else:
                delta = delta_project(delta_in, expr.columns)
            new = self._append(node, delta.rows)
            node.result = ("delta", new) if new else _NONE
            return node.result

        left, right = node.children
        left_before = left.cache  # the pre-update cache unless already walked
        right_result = self.insert_walk(right, deltas)
        left_result = self.insert_walk(left, deltas)
        if left_result[0] == "recompute" or right_result[0] == "recompute":
            return self._recompute_node(node)
        if left_result[0] == "none" and right_result[0] == "none":
            node.result = _NONE
            return _NONE
        left_delta = (
            self._delta_table(left, left_result[1]) if left_result[0] == "delta" else None
        )
        right_delta = (
            self._delta_table(right, right_result[1]) if right_result[0] == "delta" else None
        )

        if isinstance(expr, (Join, Product)):
            # Keep any maintained partitions equal to the just-updated
            # child caches, then join each delta against the *partition*
            # of the big cached side instead of re-partitioning it.
            # With a left partition the left operand is effectively the
            # updated cache (the partition mirrors it) — the sound
            # staleness choice per the delta-rule docstring; the extra
            # dL >< dR pairs it emits are absorbed by _append.
            # The delta rows a maintained partition just classified join
            # through the partition of those rows it handed back.
            left_added, right_added = self._sync_partitions(
                node, (left_result, right_result)
            )
            partitions = dict(
                left_partition=(
                    self._partition_for(node, 0) if right_delta is not None else None
                ),
                right_partition=(
                    self._partition_for(node, 1) if left_delta is not None else None
                ),
                left_delta_partition=left_added,
                right_delta_partition=right_added,
            )
            if isinstance(expr, Join):
                delta = delta_join(
                    left.cache, left_delta, right.cache, right_delta, expr.on, **partitions
                )
            else:
                delta = delta_product(
                    left.cache, left_delta, right.cache, right_delta, **partitions
                )
        elif isinstance(expr, Union):
            delta = delta_union(expr.arity, left_delta, right_delta)
        elif isinstance(expr, Intersect):
            delta = delta_intersect(left_before, left_delta, right.cache, right_delta)
        elif isinstance(expr, Difference):
            if right_delta is not None:
                # New right rows strengthen existing output conditions:
                # no additive delta exists.  Rebuild from updated children.
                self.counters["difference_fallbacks"] += 1
                return self._recompute_node(node)
            delta = delta_difference(left_delta, right.cache)
        else:  # pragma: no cover - apply_node already rejects unknown nodes
            raise TypeError(f"unknown RA node: {expr!r}")

        new = self._append(node, delta.rows)
        node.result = ("delta", new) if new else _NONE
        return node.result

    def delete_walk(self, node: _PlanNode, relation: str, dropped: tuple, rewritten: bool):
        """Propagate a deletion through one node.

        Like :meth:`insert_walk` but for removals.  The scan takes the
        update's report (``dropped`` rows, ``rewritten`` flag) instead of
        diffing tables.  When the base delete purely removed rows (and
        the per-operator guards of :meth:`_removal_delta` hold), the rows
        each node derived from the removed inputs are reconstructed and
        subtracted — O(delta + cache scan) instead of a join.  Returns
        ``("none", ())``, ``("removed", rows)`` or ``("recompute", ())``;
        any failure degrades to targeted recomputation of this node
        (children are already up to date), never the whole tree.
        """
        if node.epoch == self.epoch:
            return node.result
        node.epoch = self.epoch
        if relation not in node.relations:
            node.result = _NONE
            return _NONE
        if isinstance(node.expr, Scan):
            if rewritten:
                # A condition was strengthened in place: no removal delta
                # exists.  Re-reading the table is a cache swap, not a
                # recomputation — the counter reports the ancestors.
                self.rebuild(node)
                node.result = _RECOMPUTE
            elif dropped:
                node.cache = self.db[node.expr.name]
                self._forget(node, dropped)
                node.result = ("removed", dropped)
            else:
                node.result = _NONE  # the deletion matched nothing
            return node.result
        results = [
            self.delete_walk(child, relation, dropped, rewritten) for child in node.children
        ]
        if all(result[0] == "none" for result in results):
            node.result = _NONE
            return _NONE
        if any(result[0] == "recompute" for result in results):
            return self._recompute_node(node)
        removal = self._removal_delta(node, results)
        if removal is None:
            return self._recompute_node(node)
        self._sync_partitions(node, results)
        removal = self._subtract(node, removal)
        # An empty removal derived nothing here: the cache is unchanged
        # and ancestors can skip their guard checks.
        node.result = ("removed", removal) if removal else _NONE
        return node.result

    def _removal_delta(self, node: _PlanNode, results) -> "tuple | None":
        """Reconstruct the output rows a node loses when its children
        lost ``results``'s removal rows; ``None`` when no sound delta
        exists and the node must recompute.

        Soundness rests on two facts.  First, **construction identity**:
        every cached row was built by the same deterministic operator
        from the same inputs, so re-running the operator on just the
        removed child rows (against the unchanged sibling cache)
        reproduces the affected cached rows *exactly* — for operators
        whose per-row output depends only on that row and the sibling
        (select, project, join, product, union).  Intersection and
        difference fail this: a cached row's match disjunction reflects
        the right side *as of when the row was (re)emitted*, so they
        always recompute.  Second, **no shared derivations**: a
        subtracted row must not be derivable from surviving inputs.
        Select and intersect-like shapes are injective per input row;
        projections qualify only when they keep every input column (no
        merging); unions check both children's seen-sets row by row.
        Joins and products embed the affected child's terms verbatim, so
        a removed row's outputs can coincide only with outputs of a row
        carrying the same terms: they qualify when no removed row's
        terms still count above 0 in the affected (already updated)
        child.  That makes the guard exact — the cache stays equal, row
        for row, to a re-evaluation, whatever the removed rows' local
        conditions.
        """
        expr = node.expr
        if isinstance(expr, Select):
            child = node.children[0]
            removed = self._delta_table(child, results[0][1])
            return tuple(select_ct(removed, expr.predicates, name="delta").rows)
        if isinstance(expr, Project):
            child = node.children[0]
            if set(expr.columns) != set(range(child.cache.arity)):
                return None  # a merging projection: derivations may collide
            removed = self._delta_table(child, results[0][1])
            return tuple(project_ct(removed, expr.columns, name="delta").rows)
        if isinstance(expr, (Join, Product)):
            (left, right), (lres, rres) = node.children, results
            if lres[0] == "removed" and rres[0] == "removed":
                return None  # a self-join on the touched relation
            affected, sibling = (left, right) if lres[0] == "removed" else (right, left)
            removed_rows = (lres if lres[0] == "removed" else rres)[1]
            counts = self._counts(affected)
            if any(counts[row.terms] for row in removed_rows):
                return None  # a survivor shares terms: derivations may collide
            removed = self._delta_table(affected, removed_rows)
            on = expr.on if isinstance(expr, Join) else ()
            # The sibling's cache is unchanged by this update (its walk
            # result was "none"), so its maintained partition — built
            # here if absent — is valid and saves re-partitioning it.
            if affected is left:
                out = join_ct(
                    removed, sibling.cache, on, name="delta",
                    right_partition=self._partition_for(node, 1),
                )
            else:
                out = join_ct(
                    sibling.cache, removed, on, name="delta",
                    left_partition=self._partition_for(node, 0),
                )
            return tuple(out.rows)
        if isinstance(expr, Union):
            left, right = node.children
            candidates = []
            if results[0][0] == "removed":
                candidates.extend(results[0][1])
            if results[1][0] == "removed":
                candidates.extend(results[1][1])
            # A row still derivable from either branch survives.
            return tuple(
                row
                for row in dict.fromkeys(candidates)
                if row not in left.seen and row not in right.seen
            )
        # Intersect/Difference: cached match conditions are
        # history-dependent (see docstring) — recompute.
        return None

    def refresh_walk(self, node: _PlanNode) -> None:
        """Rebuild one tree from the database, children first."""
        if node.epoch == self.epoch:
            return
        node.epoch = self.epoch
        for child in node.children:
            self.refresh_walk(child)
        self.rebuild(node)
        node.result = _RECOMPUTE
