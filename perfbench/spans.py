"""Spans recorded from outside the engine, around the calls into each layer.

The engine carries no benchmark hooks.  :class:`Tracer` patches each
layer's public functions *where their callers look them up* -- for
example ``repro.ctalgebra.evaluate.join_ct`` and
``repro.views.manager.join_ct``, not only ``operators.join_ct`` -- with
wrappers that record one span per call, and puts the originals back on
:meth:`Tracer.uninstall`.  A span is ``(hook, start, end, parent)``.
Spans stay in memory and are written out when the run ends.

Each hook names a *stage* (the ROADMAP stage names: ``compile``,
``stats``, ``plan``, ``execute``, ``serialize``, ``http`` plus
``dispatch``, ``apply``, ``maintain``, ``fixpoint``...) and a *layer*
(the package that owns the function).  :func:`summarize` folds spans
into per-stage inclusive time (outermost span of each stage family
only, so recursion and nesting are not double counted) and per-layer
self time (a span's duration minus its child spans).

A hook whose target no longer exists (a refactor renamed it) is skipped
and listed in ``Tracer.missing``: the run goes on and the metrics that
depend on it read 0.

:func:`package_self_seconds` is the other, coarser view: cProfile self
time summed by ``repro`` package, the only outside view of time spent
in ``core`` (hashing, conditions), which has no spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pstats
import threading
import time
import types
from collections import Counter

__all__ = ["HOOKS", "SETUP_HEADER", "Tracer", "summarize", "package_self_seconds"]


#: Requests from the benchmark's own set-up carry this header, so a
#: profiled server leaves them out of its profile.
SETUP_HEADER = "X-Perfbench-Setup"


def _count_join_rows(result) -> dict:
    return {"execute.join.rows_out": len(result.rows)}


def _count_fixpoint(result) -> dict:
    return {
        "fixpoint.evaluations": 1,
        "fixpoint.rounds": result.rounds,
        "fixpoint.rows": sum(len(table) for table in result.database()),
        "fixpoint.round_count": len(result.round_stats),
        "fixpoint.round_ms": sum(r["ms"] for r in result.round_stats),
    }


def _count_subsume(result) -> dict:
    return {"fixpoint.subsume.calls": 1}


_OPERATOR_STAGES = {
    "join_ct": "execute.join",
    "select_ct": "execute.select",
    "project_ct": "execute.project",
}
_OPERATORS = tuple(_OPERATOR_STAGES) + (
    "product_ct", "union_ct", "intersect_ct", "difference_ct",
)
_DELTA_RULES = (
    "delta_join", "delta_product", "delta_project", "delta_select",
    "delta_union", "delta_intersect", "delta_difference",
)
#: Which lifted operators and delta rules each calling module imports.
_EXECUTE_SITES = {
    "repro.ctalgebra.evaluate": _OPERATORS,
    "repro.views.manager": _OPERATORS + _DELTA_RULES,
    "repro.ctalgebra.delta": ("join_ct", "select_ct", "project_ct",
                              "intersect_ct", "difference_ct"),
    "repro.queries.fixpoint": _DELTA_RULES[:5],
}


def _hooks() -> tuple:
    """``(target, stage, layer, observe)`` for every wrapped call site.

    ``target`` is ``module:attribute`` or ``module:Class.attribute``.
    """
    hooks = [
        # server: the HTTP request, the dispatcher's ladder, the write path
        ("repro.server.app:_Handler._run", "request", "server", None),
        ("repro.server.pool:QueryDispatcher.query", "dispatch", "server", None),
        ("repro.server.session:DatabaseSession.apply", "apply", "server", None),
        # io.jsonio: response construction (the JSON encode is patched
        # separately, through the app module's ``json`` name)
        ("repro.server.app:table_to_json", "serialize", "io.jsonio", None),
        # compile: parse + compile to RA / fixpoint program
        ("repro.relational.parser:parse_query", "compile", "relational.parser", None),
        ("repro.relational.parser:parse_datalog", "compile", "relational.parser", None),
        ("repro.relational.planner:ra_of_ucq", "compile", "relational.planner", None),
        ("repro.views.manager:ra_of_ucq", "compile", "relational.planner", None),
        ("repro.queries.fixpoint:ra_of_ucq", "compile", "relational.planner", None),
        ("repro.queries.fixpoint:CTFixpoint.__init__", "compile", "queries.fixpoint", None),
        # fingerprints: cache keys and view matching
        ("repro.relational.planner:plan_fingerprint", "fingerprint", "relational.planner", None),
        ("repro.views.manager:plan_fingerprint", "fingerprint", "relational.planner", None),
        ("repro.queries.fixpoint:plan_fingerprint", "fingerprint", "relational.planner", None),
        ("repro.queries.fixpoint:datalog_fingerprint", "fingerprint", "relational.planner", None),
        ("repro.views.manager:datalog_fingerprint", "fingerprint", "relational.planner", None),
        # plan: rewrite + cost-based join ordering
        ("repro.ctalgebra.evaluate:plan", "plan", "relational.planner", None),
        ("repro.views.manager:plan", "plan", "relational.planner", None),
        ("repro.queries.fixpoint:plan", "plan", "relational.planner", None),
        # stats: collection on publish / first use
        ("repro.relational.stats:StatsStore.snapshot", "stats", "relational.stats", None),
        ("repro.relational.stats:Statistics.collect", "stats", "relational.stats", None),
        # views: maintenance on every write
        ("repro.views.manager:ViewManager.notify_insert", "maintain", "views", None),
        ("repro.views.manager:ViewManager.notify_delete", "maintain", "views", None),
        ("repro.views.manager:ViewManager.notify_modify", "maintain", "views", None),
        # fixpoint: whole evaluations, and the condition-subsumption test
        # every derived row goes through (canonical DNF + implication); the
        # engine reaches ``canonical_condition``'s work via ``_FactSet.add``
        ("repro.queries.fixpoint:CTFixpoint.evaluation", "fixpoint", "queries.fixpoint",
         _count_fixpoint),
        ("repro.queries.fixpoint:_FactSet.add", "subsume", "queries.fixpoint",
         _count_subsume),
    ]
    # execute: the lifted operators and delta rules, at every calling module
    for module, names in _EXECUTE_SITES.items():
        for name in names:
            stage = _OPERATOR_STAGES.get(name, "execute.delta" if name in _DELTA_RULES
                                         else "execute.other")
            observe = _count_join_rows if name == "join_ct" else None
            hooks.append((f"{module}:{name}", stage, "ctalgebra", observe))
    return tuple(hooks)


HOOKS = _hooks()

#: The app module's ``json`` name is swapped for a proxy whose ``dumps``
#: is timed as part of the ``serialize`` stage.
_JSON_HOOK = ("repro.server.app:json", "serialize", "io.jsonio")


class _JsonProxy(types.ModuleType):
    """Stands in for the ``json`` module inside one caller's namespace."""

    def __init__(self, real, dumps) -> None:
        super().__init__(real.__name__)
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Installs the span wrappers and holds the spans they record.

    A span is a list ``[hook, start, end, parent_span, counts]``, where
    ``counts`` is what the hook's observer read off the call's result
    (rows out, fixpoint rounds...) or ``None``.  Each thread keeps its
    own stack of open spans.  A wrapper called while a span of the same
    hook name is open on its thread (recursion, e.g.
    ``plan_fingerprint``) records nothing, so stage totals count each
    outermost call once.
    """

    def __init__(self) -> None:
        self.hooks: list[tuple[str, str, str]] = []
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        for target, stage, layer, observe in HOOKS:
            self._patch(target, stage, layer, observe)
        self._patch_json()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _resolve(target: str):
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        # On a class, only patch what the class itself defines, so that
        # uninstall restores exactly what install replaced.
        defined = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        return (owner, attr) if defined else None

    def _patch(self, target: str, stage: str, layer: str, observe) -> None:
        resolved = self._resolve(target)
        if resolved is None:
            self.missing.append(target)
            return
        owner, attr = resolved
        raw = inspect.getattr_static(owner, attr)
        static = isinstance(raw, staticmethod)
        func = raw.__func__ if static else raw
        path = target.rpartition(":")[2]
        name = path if attr == "__init__" else attr
        wrapper = self._wrap(func, self._hook_id(name, stage, layer), name, observe)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def _patch_json(self) -> None:
        resolved = self._resolve(_JSON_HOOK[0])
        if resolved is None:
            self.missing.append(_JSON_HOOK[0])
            return
        owner, attr = resolved
        real = getattr(owner, attr)
        hook = self._hook_id("json.dumps", *_JSON_HOOK[1:])
        self._patches.append((owner, attr, real))
        setattr(owner, attr, _JsonProxy(real, self._wrap(real.dumps, hook, "json.dumps", None)))

    def _hook_id(self, name: str, stage: str, layer: str) -> int:
        key = (name, stage, layer)
        if key not in self.hooks:
            self.hooks.append(key)
        return self.hooks.index(key)

    def _wrap(self, func, hook: int, name: str, observe):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = local.__dict__.get("stack")
            if stack is None:
                stack = local.stack = []
                local.active = set()
            active = local.active
            if name in active:
                return func(*args, **kwargs)
            span = [hook, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span)
            active.add(name)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
                active.discard(name)
            if observe is not None:
                span[4] = observe(result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        """The spans as plain JSON data; parents become list indexes."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {
            "hooks": [list(h) for h in self.hooks],
            "spans": [
                [s[0], s[1], s[2], -1 if s[3] is None else index[id(s[3])], s[4]]
                for s in self.spans
            ],
            "missing": list(self.missing),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.dump(), fp)


def _families(stage: str) -> tuple[str, ...]:
    """``execute.join`` belongs to the families ``execute`` and ``execute.join``."""
    parts = stage.split(".")
    return tuple(".".join(parts[: i + 1]) for i in range(len(parts)))


def summarize(dump: dict, intervals=((float("-inf"), float("inf")),)) -> dict:
    """Fold dumped spans into stage totals and layer self times (seconds).

    Only spans inside one of the ``(start, end)`` intervals count.
    ``stages[f]`` sums the spans of stage family ``f`` with no ancestor
    of the same family; ``layers[l]`` sums each span's duration minus
    the time its child spans cover; ``counts`` sums what the observers
    recorded.
    """
    hooks = dump["hooks"]
    spans = dump["spans"]
    kept = [any(lo <= s[1] and s[2] <= hi for lo, hi in intervals) for s in spans]
    child = [0.0] * len(spans)
    for i, (_hook, start, end, parent, _counts) in enumerate(spans):
        if kept[i] and parent >= 0:
            child[parent] += end - start
    # Parents are recorded before their children, so one forward pass
    # carries each span's ancestor families down.
    inherited: list[frozenset] = [frozenset()] * len(spans)
    stages: Counter = Counter()
    layers: Counter = Counter()
    counts: Counter = Counter()
    for i, (hook, start, end, parent, observed) in enumerate(spans):
        if not kept[i]:
            continue
        _name, stage, layer = hooks[hook]
        families = _families(stage)
        above = inherited[parent] if parent >= 0 and kept[parent] else frozenset()
        duration = end - start
        for family in families:
            if family not in above:
                stages[family] += duration
        inherited[i] = above.union(families)
        layers[layer] += duration - child[i]
        if observed:
            counts.update(observed)
    return {"stages": dict(stages), "layers": dict(layers), "counts": dict(counts)}


_MARKER = os.sep + "repro" + os.sep


def _package_of(filename: str) -> "str | None":
    at = filename.rfind(_MARKER)
    if at < 0:
        return None
    head = filename[at + len(_MARKER):].split(os.sep)[0]
    return head[:-3] if head.endswith(".py") else head


def package_self_seconds(profile) -> dict:
    """cProfile self time summed by ``repro`` package (``core``, ``views``...).

    Time in builtins and the standard library is charged to the package
    of the caller, in proportion to what each caller spent there (one
    level up), so ``hash()`` recursing through ``core`` terms counts as
    ``core``.  Whatever no ``repro`` package called is ``other``.
    """
    stats = pstats.Stats(profile).stats
    totals: Counter = Counter()
    for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in stats.items():
        package = _package_of(filename)
        if package is not None:
            totals[package] += tt
            continue
        spent = sum(edge[2] for edge in callers.values())
        if not callers or spent <= 0:
            totals["other"] += tt
            continue
        for (caller_file, _l, _f), edge in callers.items():
            totals[_package_of(caller_file) or "other"] += tt * edge[2] / spent
    return dict(totals)
