"""A query planner for relational algebra expressions: rewrites plus
statistics-driven join ordering.

The naive evaluators execute the AST literally, so ``Select(Product(L, R))``
materialises the full |L|x|R| product before filtering.  :func:`plan`
rewrites an expression into an equivalent one that the optimising
evaluators execute asymptotically faster:

* **join fusion** — a selection over a product whose predicates equate a
  left column with a right column becomes a first-class :class:`Join`
  node, implemented by hash partitioning downstream;
* **selection push-down** — remaining predicates move to the smallest
  subexpression whose columns they mention: into either product/join side,
  through projections (columns remapped), through unions and intersections
  (both branches), and into the left side of a difference;
* **selection fusion** — adjacent selections merge into one.

When a :class:`~repro.relational.stats.Statistics` object is supplied,
:func:`plan` additionally runs a **cost-based join-ordering** pass,
:func:`order_joins_dp`: every maximal fused ``Join``/``Product`` chain
is flattened into a join graph (leaves plus cross-leaf equality edges)
and rebuilt in a cheaper association order, with a final projection
restoring the original column order.  The pass is a Selinger-style
dynamic program.  It enumerates the *connected* subsets of the join
graph bottom-up, memoising the best ``(cost, plan)`` per subset, where
cost is the cumulative estimated cardinality of every intermediate
result.  Because a subset's best plan may join two composite subplans,
the result is a **bushy** tree, not just a left-deep chain — on
snowflake-shaped graphs (two selective arms meeting on a many-many
edge) bushy plans beat every left-deep order.  Disconnected join graphs
are handled by planning each connected component and joining the
components smallest-first.

The chain's size picks the orderer; nothing else does.  Above
:data:`DP_LEAF_THRESHOLD` leaves the subset enumeration is no longer
worth its exponential cost and the chain goes to the greedy orderer,
:func:`order_joins`: start from the smallest estimated leaf, then
repeatedly adjoin the *connected* leaf minimising the estimated
intermediate cardinality (cartesian growth only when nothing connects),
rebuilding the chain left-deep.  To compare a greedy plan against the
default one, order a rewritten tree directly:
``order_joins(plan(e), stats)``.

Estimates come from the histogram-backed cost model in
:mod:`repro.relational.stats`: per-column equi-depth histograms with
most-common-value tracking price equality/inequality selections and join
columns by their *actual* value frequencies (falling back to the uniform
``1/distinct`` textbook rule when histograms are disabled or missing),
and ground/variable cell counts are tracked so that rows the c-table
hash operators cannot partition are charged their true pair-everything
cost — variable cells whose local condition pins them to a constant
count as ground, not wild.

The rewrites and the re-ordering are purely syntactic/algebraic
equivalences, so they are valid both over complete instances and over
c-tables (where each operator is the lifted version and ``rep`` commutes
with it); the differential tests in ``tests/test_planner.py`` and the
three-way harness in ``tests/test_plan_equivalence.py`` check the latter
against the world-enumeration oracle.

:func:`ra_of_ucq` additionally compiles a (safe-range) UCQ into the
algebra so that rule-syntax queries can ride the same planner — that is
the path the CLI's ``eval`` subcommand uses (``repro eval --explain``
prints the statistics and the chosen join order).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.terms import Constant, Variable
from .algebra import (
    ColEq,
    ColEqConst,
    ColNeq,
    ColNeqConst,
    Difference,
    Intersect,
    Join,
    Predicate,
    Product,
    Project,
    RAExpression,
    Scan,
    Select,
    Union,
)
from .stats import CardEstimate, Statistics, estimate, join_estimate, join_rows

__all__ = [
    "plan",
    "push_select",
    "order_joins",
    "order_joins_dp",
    "plan_fingerprint",
    "ra_of_ucq",
    "PlanError",
    "DP_LEAF_THRESHOLD",
]

#: Above this many join-graph leaves the Selinger enumeration (exponential
#: in the leaf count) falls back to the greedy left-deep orderer.
DP_LEAF_THRESHOLD = 10


class PlanError(ValueError):
    """Raised when a query cannot be compiled to the planned algebra."""


def plan(
    expression: RAExpression,
    stats: Statistics | None = None,
    explain: list[str] | None = None,
) -> RAExpression:
    """Rewrite ``expression`` into an equivalent, join-aware form.

    With ``stats``, n-way join chains are additionally re-ordered by the
    cost model (:func:`order_joins_dp`, which hands chains of more than
    :data:`DP_LEAF_THRESHOLD` leaves to the greedy :func:`order_joins`).
    ``explain``, if given, is a list that accumulates human-readable
    lines describing each ordering decision, including the selectivity
    each leaf selection predicate was charged (and whether it came from
    an MCV, a histogram bucket, or the uniform fallback).
    """
    planned = _plan(expression)
    if stats is not None:
        planned = order_joins_dp(planned, stats, explain)
    return planned


def _plan(node: RAExpression) -> RAExpression:
    if isinstance(node, Scan):
        return node
    if isinstance(node, Select):
        child = _plan(node.child)
        return push_select(child, node.predicates)
    if isinstance(node, Project):
        return Project(_plan(node.child), node.columns)
    if isinstance(node, Product):
        # A bare product is a join on no columns: downstream still benefits
        # from the join operator's dead-row pruning.
        return Join(_plan(node.left), _plan(node.right), ())
    if isinstance(node, Join):
        return Join(_plan(node.left), _plan(node.right), node.on)
    if isinstance(node, Union):
        return Union(_plan(node.left), _plan(node.right))
    if isinstance(node, Intersect):
        return Intersect(_plan(node.left), _plan(node.right))
    if isinstance(node, Difference):
        return Difference(_plan(node.left), _plan(node.right))
    raise TypeError(f"unknown RA node: {node!r}")


def push_select(node: RAExpression, predicates: Sequence[Predicate]) -> RAExpression:
    """Apply ``predicates`` to an already-planned ``node``, pushed as deep
    as each predicate's column footprint allows."""
    preds = list(predicates)
    if not preds:
        return node

    if isinstance(node, Select):
        # Fuse adjacent selections, then retry the push on the child.
        return push_select(node.child, list(node.predicates) + preds)

    if isinstance(node, Project):
        pushable, residual = [], []
        for pred in preds:
            remapped = _remap_through_project(pred, node.columns)
            if remapped is None:
                residual.append(pred)
            else:
                pushable.append(remapped)
        out: RAExpression = node
        if pushable:
            out = Project(push_select(node.child, pushable), node.columns)
        return _select(out, residual)

    if isinstance(node, (Product, Join)):
        return _push_into_product_like(node, preds)

    if isinstance(node, (Union, Intersect)):
        # sigma(L op R) == sigma(L) op sigma(R) for union and intersection.
        return type(node)(
            push_select(node.left, preds), push_select(node.right, preds)
        )

    if isinstance(node, Difference):
        # sigma(L - R) == sigma(L) - R; filtering R would be unsound.
        return Difference(push_select(node.left, preds), node.right)

    return _select(node, preds)


def _select(node: RAExpression, predicates: Sequence[Predicate]) -> RAExpression:
    return Select(node, predicates) if predicates else node


def _remap_through_project(pred: Predicate, columns: Sequence[int]) -> Predicate | None:
    """Rewrite a predicate over a projection's output to its input columns.

    Always possible (every output column is some input column); ``None`` is
    reserved for predicate kinds the planner does not know how to remap.
    """
    if isinstance(pred, ColEq):
        return ColEq(columns[pred.left], columns[pred.right])
    if isinstance(pred, ColNeq):
        return ColNeq(columns[pred.left], columns[pred.right])
    if isinstance(pred, ColEqConst):
        return ColEqConst(columns[pred.column], pred.constant)
    if isinstance(pred, ColNeqConst):
        return ColNeqConst(columns[pred.column], pred.constant)
    return None


def _shift(pred: Predicate, offset: int) -> Predicate:
    """Rebase a predicate's columns by ``-offset`` (push to the right side)."""
    if isinstance(pred, ColEq):
        return ColEq(pred.left - offset, pred.right - offset)
    if isinstance(pred, ColNeq):
        return ColNeq(pred.left - offset, pred.right - offset)
    if isinstance(pred, ColEqConst):
        return ColEqConst(pred.column - offset, pred.constant)
    return ColNeqConst(pred.column - offset, pred.constant)


def _push_into_product_like(
    node: Product | Join, predicates: Sequence[Predicate]
) -> RAExpression:
    """Split predicates over a product/join into left, right, join and
    residual parts, and rebuild as a :class:`Join`."""
    split = node.left.arity
    on = list(node.on) if isinstance(node, Join) else []
    left_preds: list[Predicate] = []
    right_preds: list[Predicate] = []
    residual: list[Predicate] = []
    for pred in predicates:
        if isinstance(pred, (ColEqConst, ColNeqConst)):
            if pred.column < split:
                left_preds.append(pred)
            else:
                right_preds.append(_shift(pred, split))
        elif isinstance(pred, (ColEq, ColNeq)):
            lo, hi = sorted((pred.left, pred.right))
            if hi < split:
                left_preds.append(type(pred)(lo, hi))
            elif lo >= split:
                right_preds.append(_shift(type(pred)(lo, hi), split))
            elif isinstance(pred, ColEq):
                on.append((lo, hi - split))
            else:
                # A cross-side inequality cannot become a hash key; it
                # stays as a residual filter above the join.
                residual.append(pred)
        else:
            residual.append(pred)
    left = push_select(node.left, left_preds)
    right = push_select(node.right, right_preds)
    return _select(Join(left, right, on), residual)


# ---------------------------------------------------------------------------
# Subplan fingerprinting
# ---------------------------------------------------------------------------


def _predicate_fingerprint(pred: Predicate) -> str:
    if isinstance(pred, ColEq):
        return f"eq:{pred.left}:{pred.right}"
    if isinstance(pred, ColNeq):
        return f"neq:{pred.left}:{pred.right}"
    if isinstance(pred, ColEqConst):
        return f"eqc:{pred.column}:{pred.constant.sort_key()!r}"
    if isinstance(pred, ColNeqConst):
        return f"neqc:{pred.column}:{pred.constant.sort_key()!r}"
    raise TypeError(f"unknown predicate {pred!r}")


def plan_fingerprint(node: RAExpression) -> str:
    """A canonical structural fingerprint of an RA expression.

    Two expressions share a fingerprint iff they are the same tree up to
    the order of predicates inside one ``Select`` conjunction and of the
    ``on`` pairs of one ``Join`` (both are conjunctions, so order is
    irrelevant).  The fingerprint is what the view layer
    (:mod:`repro.views`) keys its caches on: a registered view answers a
    query when their compiled expressions match, and two views'
    *planned* trees share cached subplan results exactly where their
    subtree fingerprints coincide.  Purely syntactic by design — no
    semantic equivalence reasoning, so a match is always sound.
    """
    if isinstance(node, Scan):
        return f"scan:{node.name}/{node.arity}"
    if isinstance(node, Select):
        preds = ",".join(sorted(_predicate_fingerprint(p) for p in node.predicates))
        return f"select[{preds}]({plan_fingerprint(node.child)})"
    if isinstance(node, Project):
        cols = ",".join(str(c) for c in node.columns)
        return f"project[{cols}]({plan_fingerprint(node.child)})"
    if isinstance(node, Join):
        on = ",".join(f"{l}={r}" for l, r in sorted(node.on))
        return (
            f"join[{on}]({plan_fingerprint(node.left)},{plan_fingerprint(node.right)})"
        )
    if isinstance(node, (Product, Union, Intersect, Difference)):
        tag = type(node).__name__.lower()
        return f"{tag}({plan_fingerprint(node.left)},{plan_fingerprint(node.right)})"
    raise TypeError(f"unknown RA node: {node!r}")


# ---------------------------------------------------------------------------
# Cost-based join ordering
# ---------------------------------------------------------------------------


def order_joins(
    node: RAExpression,
    stats: Statistics,
    explain: list[str] | None = None,
) -> RAExpression:
    """Greedily re-order every n-way (n >= 3) join chain of a planned
    expression into a left-deep chain, smallest estimated intermediate
    first.

    The transformation is an equivalence: the same leaves are joined on
    the same column equalities, only the association order changes, and a
    final :class:`Project` restores the original column order.
    """
    return _order_chains(node, stats, explain, _rebuild_ordered)


def order_joins_dp(
    node: RAExpression,
    stats: Statistics,
    explain: list[str] | None = None,
    max_dp_leaves: int = DP_LEAF_THRESHOLD,
) -> RAExpression:
    """Selinger-style re-ordering of every n-way (n >= 3) join chain.

    Enumerates connected subsets of each chain's join graph bottom-up,
    memoising the best (cumulative estimated intermediate cardinality,
    plan) per subset; the chosen tree may be **bushy**.  Chains with more
    than ``max_dp_leaves`` leaves fall back to the greedy orderer — the
    subset enumeration is exponential in the leaf count.  Like
    :func:`order_joins` this is a pure reassociation with the original
    column order restored.
    """

    def rebuild(leaves, edges, stats_, explain_):
        if len(leaves) > max_dp_leaves:
            if explain_ is not None:
                explain_.append(
                    f"dp fallback: {len(leaves)} leaves > {max_dp_leaves}, using greedy"
                )
            return _rebuild_ordered(leaves, edges, stats_, explain_)
        return _rebuild_dp(leaves, edges, stats_, explain_)

    return _order_chains(node, stats, explain, rebuild)


def _order_chains(
    node: RAExpression,
    stats: Statistics,
    explain: list[str] | None,
    rebuild,
) -> RAExpression:
    """Walk the expression, handing every maximal 3+-leaf join chain to
    ``rebuild(leaves, edges, stats, explain)``."""
    if isinstance(node, (Join, Product)):
        leaves, edges = _flatten_join_chain(node)
        if len(leaves) >= 3:
            ordered_leaves = [
                _order_chains(leaf, stats, explain, rebuild) for leaf, _ in leaves
            ]
            return rebuild(
                [(leaf, base) for leaf, (_, base) in zip(ordered_leaves, leaves)],
                edges,
                stats,
                explain,
            )
        if isinstance(node, Join):
            return Join(
                _order_chains(node.left, stats, explain, rebuild),
                _order_chains(node.right, stats, explain, rebuild),
                node.on,
            )
        return Product(
            _order_chains(node.left, stats, explain, rebuild),
            _order_chains(node.right, stats, explain, rebuild),
        )
    if isinstance(node, Scan):
        return node
    if isinstance(node, Select):
        return Select(_order_chains(node.child, stats, explain, rebuild), node.predicates)
    if isinstance(node, Project):
        return Project(_order_chains(node.child, stats, explain, rebuild), node.columns)
    if isinstance(node, (Union, Intersect, Difference)):
        return type(node)(
            _order_chains(node.left, stats, explain, rebuild),
            _order_chains(node.right, stats, explain, rebuild),
        )
    raise TypeError(f"unknown RA node: {node!r}")


def _flatten_join_chain(
    node: RAExpression,
) -> tuple[list[tuple[RAExpression, int]], list[tuple[int, int]]]:
    """Flatten a maximal ``Join``/``Product`` chain.

    Returns ``(leaves, edges)``: leaves as ``(expression, base_column)``
    pairs in left-to-right order, and every join equality as a pair of
    *global* column indices into the chain's concatenated output.
    """
    leaves: list[tuple[RAExpression, int]] = []
    edges: list[tuple[int, int]] = []

    def walk(n: RAExpression, base: int) -> None:
        if isinstance(n, (Join, Product)):
            walk(n.left, base)
            walk(n.right, base + n.left.arity)
            if isinstance(n, Join):
                for l, r in n.on:
                    edges.append((base + l, base + n.left.arity + r))
        else:
            leaves.append((n, base))

    walk(node, 0)
    return leaves, edges


def _leaf_label(leaf: RAExpression) -> str:
    """A short name for a join-graph leaf, for explain output."""
    if isinstance(leaf, Scan):
        return leaf.name
    names = sorted(leaf.relation_names())
    return f"{type(leaf).__name__.lower()}({', '.join(names)})"


def _chain_layout(leaves, edges, stats, explain=None):
    """Shared rebuild prologue: map each global column of the original
    chain to ``(leaf index, local col)``, localise the join edges to those
    pairs, and estimate every leaf (logging per-predicate selectivities
    to ``explain``)."""
    owner: dict[int, tuple[int, int]] = {}
    for i, (leaf, base) in enumerate(leaves):
        for c in range(leaf.arity):
            owner[base + c] = (i, c)
    local_edges = [(owner[a], owner[b]) for a, b in edges]
    estimates = [estimate(leaf, stats, explain) for leaf, _ in leaves]
    return owner, local_edges, estimates


def _restore_columns(
    tree: RAExpression, owner: dict[int, tuple[int, int]], base_of: dict[int, int]
) -> RAExpression:
    """Shared rebuild epilogue: project the reassociated ``tree`` back to
    the chain's original column order (``base_of`` maps each leaf index to
    its base column inside ``tree``)."""
    restore = [base_of[owner[g][0]] + owner[g][1] for g in sorted(owner)]
    assert len(restore) == tree.arity
    if restore == list(range(len(restore))):
        return tree
    return Project(tree, restore)


def _rebuild_ordered(
    leaves: list[tuple[RAExpression, int]],
    edges: list[tuple[int, int]],
    stats: Statistics,
    explain: list[str] | None,
) -> RAExpression:
    """Greedily order the join graph and rebuild a left-deep chain."""
    # Edges as ((leaf, col), (leaf, col)); an edge is applied when its
    # second endpoint joins the placed set.
    owner, local_edges, estimates = _chain_layout(leaves, edges, stats, explain)

    remaining = set(range(len(leaves)))
    start = min(remaining, key=lambda i: (estimates[i].rows, i))
    order = [start]
    remaining.discard(start)
    running = estimates[start]
    steps: list[float] = [running.rows]

    def edges_to(candidate: int, placed: set[int]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Edges connecting ``candidate`` to the placed set, oriented
        (placed endpoint, candidate endpoint)."""
        out = []
        for (li, lc), (ri, rc) in local_edges:
            if li == candidate and ri in placed:
                out.append(((ri, rc), (li, lc)))
            elif ri == candidate and li in placed:
                out.append(((li, lc), (ri, rc)))
        return out

    while remaining:
        placed = set(order)
        connected = [i for i in remaining if edges_to(i, placed)]
        pool = connected or sorted(remaining)

        best = None
        best_est: CardEstimate | None = None
        for i in pool:
            pairs = [
                (_placed_column(order, leaves, pi, pc), cc)
                for (pi, pc), (_, cc) in edges_to(i, placed)
            ]
            cand = join_estimate(running, estimates[i], pairs)
            if best_est is None or (cand.rows, i) < (best_est.rows, best):
                best, best_est = i, cand
        order.append(best)
        remaining.discard(best)
        running = best_est
        steps.append(best_est.rows)

    if explain is not None:
        labels = " >< ".join(
            f"{_leaf_label(leaves[i][0])}"
            + (f" (~{steps[k]:.0f})" if k == 0 else f" -> ~{steps[k]:.0f} rows")
            for k, i in enumerate(order)
        )
        explain.append(f"join order: {labels}")

    # Rebuild left-deep in the chosen order.
    new_base: dict[int, int] = {}
    tree: RAExpression | None = None
    width = 0
    for i in order:
        leaf, _ = leaves[i]
        if tree is None:
            tree = leaf
            new_base[i] = 0
            width = leaf.arity
            continue
        placed = set(new_base)
        pairs = [
            (new_base[pi] + pc, cc)
            for (pi, pc), (_, cc) in edges_to(i, placed)
        ]
        tree = Join(tree, leaf, pairs)
        new_base[i] = width
        width += leaf.arity

    return _restore_columns(tree, owner, new_base)


def _placed_column(
    order: list[int],
    leaves: list[tuple[RAExpression, int]],
    leaf_index: int,
    local_col: int,
) -> int:
    """The column of ``(leaf_index, local_col)`` inside the running
    left-deep intermediate built in ``order``."""
    offset = 0
    for i in order:
        if i == leaf_index:
            return offset + local_col
        offset += leaves[i][0].arity
    raise ValueError(f"leaf {leaf_index} not yet placed")  # pragma: no cover


# ---------------------------------------------------------------------------
# Selinger-style dynamic programming (bushy plans)
# ---------------------------------------------------------------------------


class _SubPlan:
    """A memoised DP entry: the best plan found for one leaf subset.

    ``cost`` is the cumulative estimated cardinality of the plan's
    intermediates, ``est`` its output estimate, ``arity`` its output
    width, and ``offsets`` maps each member leaf's index to the base
    column of that leaf in its output.  A leaf entry holds its
    expression in ``leaf``; a join entry holds the two entries it joins
    (``left``, ``right``) and the column ``pairs`` between them.  The
    :class:`Join` tree and the explain label are built from those only
    for the final plan (:meth:`tree`, :meth:`label`).
    """

    __slots__ = ("cost", "est", "arity", "offsets", "leaf", "left", "right", "pairs")

    def __init__(
        self,
        cost: float,
        est: CardEstimate,
        arity: int,
        offsets: dict[int, int],
        leaf: RAExpression | None = None,
        left: "_SubPlan | None" = None,
        right: "_SubPlan | None" = None,
        pairs: list[tuple[int, int]] | None = None,
    ) -> None:
        self.cost = cost
        self.est = est
        self.arity = arity
        self.offsets = offsets
        self.leaf = leaf
        self.left = left
        self.right = right
        self.pairs = pairs

    def tree(self) -> RAExpression:
        if self.leaf is not None:
            return self.leaf
        return Join(self.left.tree(), self.right.tree(), self.pairs)

    def label(self) -> str:
        """The human-readable shape, with per-subplan row estimates."""
        if self.leaf is not None:
            return _leaf_label(self.leaf)
        separator = " >< " if self.pairs else " x "
        return f"({self.left.label()}{separator}{self.right.label()} ~{self.est.rows:.0f})"


def _join_graph_components(n: int, local_edges) -> list[list[int]]:
    """Connected components of the join graph, each sorted ascending."""
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for (li, _), (ri, _) in local_edges:
        adjacency[li].add(ri)
        adjacency[ri].add(li)
    seen: set[int] = set()
    components: list[list[int]] = []
    for i in range(n):
        if i in seen:
            continue
        stack, members = [i], []
        seen.add(i)
        while stack:
            j = stack.pop()
            members.append(j)
            for k in adjacency[j]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        components.append(sorted(members))
    return components


def _rebuild_dp(
    leaves: list[tuple[RAExpression, int]],
    edges: list[tuple[int, int]],
    stats: Statistics,
    explain: list[str] | None,
) -> RAExpression:
    """Find the cheapest (possibly bushy) join tree by dynamic programming.

    Classic Selinger enumeration over leaf subsets, as bitmasks: a
    subset's best plan is the cheapest way of joining two disjoint
    *connected* sub-subsets with at least one join edge between them,
    where cost is the cumulative estimated cardinality of every
    intermediate result (leaves are free — every plan scans them once).
    Cross products are only introduced between connected components,
    smallest estimated component first.
    """
    owner, local_edges, estimates = _chain_layout(leaves, edges, stats, explain)

    def cross_pairs(left: _SubPlan, right: _SubPlan) -> list[tuple[int, int]]:
        """Join-edge column pairs crossing from ``left``'s to ``right``'s
        leaves, as (left output column, right output column)."""
        pairs = []
        for (li, lc), (ri, rc) in local_edges:
            if li in left.offsets and ri in right.offsets:
                pairs.append((left.offsets[li] + lc, right.offsets[ri] + rc))
            elif ri in left.offsets and li in right.offsets:
                pairs.append((left.offsets[ri] + rc, right.offsets[li] + lc))
        return pairs

    def combine(left: _SubPlan, right: _SubPlan, pairs, rows=None) -> _SubPlan:
        est = join_estimate(left.est, right.est, pairs, rows)
        cost = left.cost + right.cost + est.rows
        offsets = dict(left.offsets)
        for leaf, offset in right.offsets.items():
            offsets[leaf] = offset + left.arity
        return _SubPlan(
            cost, est, left.arity + right.arity, offsets, left=left, right=right, pairs=pairs
        )

    def best_component_plan(members: list[int]) -> _SubPlan:
        best: dict[int, _SubPlan] = {
            1 << i: _SubPlan(0.0, estimates[i], leaves[i][0].arity, {i: 0}, leaf=leaves[i][0])
            for i in members
        }
        component_mask = 0
        for i in members:
            component_mask |= 1 << i
        masks = []
        sub = component_mask
        while sub:
            if sub.bit_count() >= 2:
                masks.append(sub)
            sub = (sub - 1) & component_mask
        masks.sort(key=lambda m: (m.bit_count(), m))
        for mask in masks:
            low = mask & -mask
            # Each split is costed by its row count alone; only the
            # winner gets an estimate and offsets.
            winner = None
            s1 = (mask - 1) & mask
            while s1:
                # Each unordered split once: keep the lowest leaf on the left.
                if s1 & low:
                    p1, p2 = best.get(s1), best.get(mask ^ s1)
                    if p1 is not None and p2 is not None:
                        pairs = cross_pairs(p1, p2)
                        if pairs:
                            rows = join_rows(p1.est, p2.est, pairs)
                            cost = p1.cost + p2.cost + rows
                            if winner is None or cost < winner[0]:
                                winner = (cost, p1, p2, pairs, rows)
                s1 = (s1 - 1) & mask
            if winner is not None:
                best[mask] = combine(*winner[1:])
        return best[component_mask]

    components = _join_graph_components(len(leaves), local_edges)
    plans = [best_component_plan(members) for members in components]
    plans.sort(key=lambda p: (p.est.rows, min(p.offsets)))
    total = plans[0]
    for nxt in plans[1:]:
        total = combine(total, nxt, [])

    if explain is not None:
        explain.append(f"join order: {total.label()}")

    return _restore_columns(total.tree(), owner, total.offsets)


# ---------------------------------------------------------------------------
# UCQ -> relational algebra
# ---------------------------------------------------------------------------


def ra_of_ucq(query) -> RAExpression:
    """Compile a safe-range UCQ (:class:`repro.queries.rules.UCQQuery`)
    into the positional algebra.

    Each rule becomes product-of-scans + selections (repeated variables,
    body constants, side conditions) + a head projection; rules union
    together.  Raises :class:`PlanError` for rules outside the compilable
    fragment: head variables missing from the body, head constants, or
    side conditions over unbound variables.
    """
    heads = {(rule.head.pred, rule.head.arity) for rule in query.rules}
    if len(heads) != 1:
        raise PlanError(
            f"expected one head predicate, got {sorted(h for h, _ in heads)}"
        )
    exprs = [_ra_of_rule(rule) for rule in query.rules]
    out = exprs[0]
    for expr in exprs[1:]:
        out = Union(out, expr)
    return out


def _ra_of_rule(rule) -> RAExpression:
    if not rule.body:
        raise PlanError(f"rule {rule!r} has an empty body")
    expr: RAExpression = None  # type: ignore[assignment]
    columns: list = []  # the term of each positional column, in query terms
    for body_atom in rule.body:
        scan = Scan(body_atom.pred, body_atom.arity)
        expr = scan if expr is None else Product(expr, scan)
        columns.extend(body_atom.terms)

    predicates: list[Predicate] = []
    first_seen: dict[Variable, int] = {}
    for i, term in enumerate(columns):
        if isinstance(term, Constant):
            predicates.append(ColEqConst(i, term))
        else:
            if term in first_seen:
                predicates.append(ColEq(first_seen[term], i))
            else:
                first_seen[term] = i

    for cond in rule.conditions:
        predicates.append(_predicate_of_condition(cond, first_seen))

    head_columns = []
    for term in rule.head.terms:
        if isinstance(term, Constant):
            raise PlanError(f"head constant {term} is not range-restricted")
        if term not in first_seen:
            raise PlanError(f"head variable {term} does not occur in the body")
        head_columns.append(first_seen[term])

    return Project(_select(expr, predicates), head_columns)


def _predicate_of_condition(cond, first_seen: dict) -> Predicate:
    from ..core.conditions import Eq

    is_eq = isinstance(cond, Eq)
    left, right = cond.left, cond.right

    def col(term) -> int:
        if term not in first_seen:
            raise PlanError(f"condition variable {term} does not occur in the body")
        return first_seen[term]

    if isinstance(left, Variable) and isinstance(right, Variable):
        return ColEq(col(left), col(right)) if is_eq else ColNeq(col(left), col(right))
    if isinstance(left, Variable):
        return (
            ColEqConst(col(left), right) if is_eq else ColNeqConst(col(left), right)
        )
    if isinstance(right, Variable):
        return (
            ColEqConst(col(right), left) if is_eq else ColNeqConst(col(right), left)
        )
    raise PlanError(f"condition {cond} relates two constants")
