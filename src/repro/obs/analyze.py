"""EXPLAIN ANALYZE data structures: per-operator estimated vs actual.

The planner's ``--explain`` output shows what the cost model *expected*;
this module holds what actually happened when the plan ran.  Under
:func:`repro.ctalgebra.evaluate.evaluate_ct_analyzed` the plan walker
calls an :class:`AnalyzeObserver` around each node's operator, and the
observer builds one :class:`NodeAnalysis` per plan node — operator
label, estimated rows (from :func:`repro.relational.stats.estimate`
over the same statistics the planner costed with), actual output rows,
own wall milliseconds (children excluded), plus operator extras:
hash-partition bucket/wild counts for joins and the condition-cache
hit/miss deltas charged while the operator ran.  The whole tree rolls
up into a :class:`PlanAnalysis`.

Everything serializes to plain JSON (``to_json``) so the same payload
crosses the server wire, lands in ``QueryResult.analyze``, and renders
identically on either side via :func:`render_analysis` — the CLI's
``--analyze`` output and the client's are the same function over the
same dict.

Estimated-vs-actual is the feedback signal for the histogram cost
model: a node whose ``actual`` is far from ``est`` is where the model
is wrong, and the per-node timings say where the per-row Python time
actually goes (ROADMAP item 2's prerequisite).
"""

from __future__ import annotations

import time

from typing import Mapping

__all__ = [
    "AnalyzeObserver",
    "NodeAnalysis",
    "PlanAnalysis",
    "cache_delta",
    "node_label",
    "render_analysis",
]


def node_label(node) -> str:
    """A compact one-line label for an RA plan node."""
    from ..relational.algebra import Join, Project, Scan, Select

    if isinstance(node, Scan):
        return f"Scan({node.name})"
    if isinstance(node, Select):
        preds = ", ".join(repr(p) for p in node.predicates)
        if len(preds) > 60:
            preds = preds[:57] + "..."
        return f"Select[{preds}]"
    if isinstance(node, Project):
        return f"Project{list(node.columns)}"
    if isinstance(node, Join):
        return f"Join(on={[tuple(pair) for pair in node.on]})"
    return type(node).__name__


def cache_delta(before: Mapping[str, int], after: Mapping[str, int]) -> dict:
    """Non-zero condition-cache counter deltas between two snapshots."""
    return {
        key: after[key] - before[key]
        for key in after
        if after[key] != before.get(key, 0)
    }


def _hit_rates(delta: Mapping[str, int]) -> list[str]:
    """Render cache deltas as ``kind 12/14`` hit fractions."""
    parts = []
    kinds = sorted({key.rsplit("_", 1)[0] for key in delta})
    for kind in kinds:
        hits = delta.get(f"{kind}_hits", 0)
        misses = delta.get(f"{kind}_misses", 0)
        total = hits + misses
        if total:
            parts.append(f"{kind} {hits}/{total}")
    return parts


class NodeAnalysis:
    """What one plan node did: estimate, actuals, timing, extras."""

    __slots__ = ("label", "est_rows", "actual_rows", "ms", "extras", "children")

    def __init__(
        self,
        label: str,
        est_rows: "float | None",
        actual_rows: int,
        ms: float,
        extras: "dict | None" = None,
        children: "list[NodeAnalysis] | None" = None,
    ) -> None:
        self.label = label
        self.est_rows = None if est_rows is None else float(est_rows)
        self.actual_rows = int(actual_rows)
        self.ms = float(ms)
        self.extras = extras or {}
        self.children = children or []

    def __repr__(self) -> str:
        return (
            f"NodeAnalysis({self.label!r}, est={self.est_rows}, "
            f"actual={self.actual_rows}, {self.ms:.2f}ms)"
        )

    def to_json(self) -> dict:
        payload = {
            "op": self.label,
            "est_rows": None if self.est_rows is None else round(self.est_rows, 1),
            "actual_rows": self.actual_rows,
            "ms": round(self.ms, 3),
        }
        if self.extras:
            payload["extras"] = dict(self.extras)
        if self.children:
            payload["children"] = [child.to_json() for child in self.children]
        return payload


class PlanAnalysis:
    """One analyzed execution: the node tree plus run-wide roll-ups."""

    __slots__ = ("root", "plan_ms", "total_ms", "condition_caches")

    def __init__(
        self,
        root: NodeAnalysis,
        plan_ms: float = 0.0,
        total_ms: float = 0.0,
        condition_caches: "dict | None" = None,
    ) -> None:
        self.root = root
        self.plan_ms = float(plan_ms)
        self.total_ms = float(total_ms)
        self.condition_caches = condition_caches or {}

    def to_json(self) -> dict:
        return {
            "kind": "plan",
            "plan_ms": round(self.plan_ms, 3),
            "total_ms": round(self.total_ms, 3),
            "condition_caches": dict(self.condition_caches),
            "root": self.root.to_json(),
        }

    def lines(self) -> list[str]:
        return render_analysis(self.to_json())


class AnalyzeObserver:
    """EXPLAIN ANALYZE as an observer of the plan walker.

    Called as ``observer(node, run)`` once per node, children first, it
    times ``run(extras)`` (the node's operator alone), brackets it with
    condition-cache counters and records a :class:`NodeAnalysis`, which
    waits on a stack until its parent claims it; :attr:`root` is the
    finished tree.  Each operator also lands as an ``op:<label>`` span
    on the active trace, if any.
    """

    __slots__ = ("stats", "_done")

    def __init__(self, stats) -> None:
        self.stats = stats
        self._done: list[NodeAnalysis] = []

    @property
    def root(self) -> NodeAnalysis:
        return self._done[-1]

    def __call__(self, node, run):
        from ..core.conditions import condition_cache_stats
        from ..relational.stats import estimate
        from .tracing import current_trace

        extras: dict = {}
        before = condition_cache_stats()
        start = time.perf_counter()
        table = run(extras)
        ms = (time.perf_counter() - start) * 1e3
        caches = cache_delta(before, condition_cache_stats())
        if caches:
            extras["condition_caches"] = caches
        label = node_label(node)
        est_rows = estimate(node, self.stats).rows if self.stats is not None else None
        trace = current_trace()
        if trace is not None:
            trace.add(f"op:{label}", ms, rows=len(table))
        first_child = len(self._done) - len(node.children())
        children = self._done[first_child:]
        del self._done[first_child:]
        self._done.append(
            NodeAnalysis(label, est_rows, len(table), ms, extras=extras, children=children)
        )
        return table


def _node_line(node: dict, indent: int) -> str:
    est = node.get("est_rows")
    est_text = "est=?" if est is None else f"est={est:g}"
    parts = [
        f"{'  ' * indent}{node['op']}",
        est_text,
        f"actual={node['actual_rows']}",
        f"{node['ms']:.2f}ms",
    ]
    extras = node.get("extras") or {}
    if "left_buckets" in extras:
        parts.append(
            "buckets={lb}x{rb} wild={lw}+{rw}".format(
                lb=extras["left_buckets"],
                rb=extras["right_buckets"],
                lw=extras["left_wild"],
                rw=extras["right_wild"],
            )
        )
    cache = extras.get("condition_caches")
    if cache:
        rates = _hit_rates(cache)
        if rates:
            parts.append("cache[" + ", ".join(rates) + "]")
    return "  ".join(parts)


def _render_plan(data: dict) -> list[str]:
    lines = [
        "analyze: plan {plan_ms:.2f}ms, execute {exec_ms:.2f}ms".format(
            plan_ms=data.get("plan_ms", 0.0),
            exec_ms=max(data.get("total_ms", 0.0) - data.get("plan_ms", 0.0), 0.0),
        )
    ]
    overall = _hit_rates(data.get("condition_caches") or {})
    if overall:
        lines.append("analyze: condition caches " + ", ".join(overall))

    def walk(node: dict, indent: int) -> None:
        lines.append(_node_line(node, indent))
        for child in node.get("children", ()):
            walk(child, indent + 1)

    walk(data["root"], 0)
    return lines


def _render_datalog(data: dict) -> list[str]:
    lines = [
        "analyze: fixpoint {rounds} round(s), {ms:.2f}ms".format(
            rounds=len(data.get("rounds", ())), ms=data.get("total_ms", 0.0)
        )
    ]
    for entry in data.get("rounds", ()):
        deltas = ", ".join(
            f"d{name}={count}" for name, count in sorted(entry.get("deltas", {}).items())
        )
        lines.append(
            f"round {entry.get('round')}: {deltas}  {entry.get('ms', 0.0):.2f}ms"
        )
    return lines


def render_analysis(data: dict) -> list[str]:
    """Render an analyze payload (either kind) as indented text lines.

    Accepts the ``to_json`` output of :class:`PlanAnalysis` or the
    Datalog round payload built by the session — the server ships these
    dicts verbatim, so the CLI client renders exactly what ``repro eval
    --analyze`` would have shown locally.
    """
    if data.get("kind") == "datalog":
        return _render_datalog(data)
    return _render_plan(data)
