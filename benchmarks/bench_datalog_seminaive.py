"""Recursive Datalog benchmark: semi-naive deltas vs naive refixpointing.

Transitive closure over a layered uncertain graph
(:func:`repro.workloads.layered_uncertain_graph`): closure paths are as
long as the layer count, so the fixpoint runs one round per layer and
the two evaluation strategies separate cleanly:

* **naive** — :func:`repro.queries.fixpoint.naive_ct_refixpoint`
  re-evaluates every rule over the *whole* accumulated IDB each round,
  re-deriving (and re-deduplicating) every closed pair again and again;
* **semi-naive** — :class:`repro.queries.fixpoint.FixpointEvaluation`
  pushes only each round's newly accepted rows through the insert-delta
  rules of :mod:`repro.ctalgebra.delta`, so round ``n`` touches paths of
  length ``n`` only.

A fraction of the edges carry pin (``v = c``) and Or-domain
(``v = a or v = b``) local conditions, keeping condition conjunction
and canonical-DNF subsumption on the measured path.

Sections, each with a hard floor (non-zero exit on failure):

1. **Fixpoint from scratch** — semi-naive total time must beat naive by
   ``>= 3x`` (``>= 2x`` in ``--quick``), and the two engines must agree
   on the derived tuple set (condition *representatives* may differ
   between equivalent forms; the world-level differential tests live in
   ``tests/test_datalog_ct.py``).
2. **Maintained closure under inserts** — a recursive ``TC`` view in a
   :class:`repro.views.ViewManager` maintained by incremental
   re-fixpoint from the delta must beat re-running the whole fixpoint
   after every insert by ``>= 3x`` (``>= 1.5x`` in ``--quick``), with
   equal tuple sets at the end of the stream.

The last line of output is ``BENCH_JSON {...}`` with both sections'
figures (``semi_naive_ms``, ``naive_ms``, ``scratch_speedup``,
``full_ms_per_insert``, ``incremental_ms_per_insert``,
``maintenance_speedup``), printed whether or not a floor held.

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_datalog_seminaive.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_datalog_seminaive.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.core.terms import Constant
from repro.extensions import apply_update
from repro.queries.fixpoint import CTFixpoint, naive_ct_refixpoint
from repro.relational.parser import parse_datalog
from repro.views import ViewManager
from repro.workloads import layered_uncertain_graph, transitive_closure_program

#: (layers, width, insert-stream length, scratch floor, maintenance floor
#:  — looser in quick mode, where fixed overheads dominate the tiny
#:  inputs and timing noise bites harder)
FULL = (10, 4, 30, 3.0, 3.0)
QUICK = (6, 3, 12, 2.0, 1.5)


def _terms(db, name):
    return {row.terms for row in db[name].rows}


def run_scratch(layers, width, floor, seed) -> tuple[int, dict]:
    rng = random.Random(seed)
    db = layered_uncertain_graph(rng, layers=layers, width=width)
    text = transitive_closure_program()
    print(
        f"== TC fixpoint from scratch: {layers} layers x {width} slots, "
        f"{len(db['edge'])} edges =="
    )
    failures = 0

    program = CTFixpoint(parse_datalog(text))
    start = time.perf_counter()
    evaluation = program.evaluation(db)
    semi = evaluation.database()
    semi_time = time.perf_counter() - start

    start = time.perf_counter()
    naive = naive_ct_refixpoint(parse_datalog(text), db)
    naive_time = time.perf_counter() - start

    speedup = naive_time / semi_time if semi_time > 0 else float("inf")
    print(
        f"{'naive':>16}: {naive_time * 1e3:>9.1f}ms  "
        f"({len(naive['TC'])} rows)"
    )
    print(
        f"{'semi-naive':>16}: {semi_time * 1e3:>9.1f}ms  "
        f"({len(semi['TC'])} rows, {evaluation.rounds} rounds)  "
        f"({speedup:.1f}x)"
    )
    if _terms(semi, "TC") != _terms(naive, "TC"):
        print("  !! engines disagree on the derived tuple set", file=sys.stderr)
        failures += 1
    if speedup < floor:
        print(
            f"  !! semi-naive speedup {speedup:.1f}x is below the {floor}x floor",
            file=sys.stderr,
        )
        failures += 1
    return failures, {
        "semi_naive_ms": round(semi_time * 1e3, 3),
        "naive_ms": round(naive_time * 1e3, 3),
        "scratch_speedup": round(speedup, 2),
    }


def run_maintenance(layers, width, length, floor, seed) -> tuple[int, dict]:
    """A maintained recursive view vs full refixpoint after every insert."""
    rng = random.Random(seed)
    base = layered_uncertain_graph(rng, layers=layers, width=width)
    text = transitive_closure_program()
    nodes = (layers + 1) * width
    ops = [
        (
            "insert",
            "edge",
            (Constant(rng.randrange(nodes)), Constant(rng.randrange(nodes))),
        )
        for _ in range(length)
    ]
    print(f"\n== maintained closure: {length} random edge inserts ==")
    failures = 0

    # Full semi-naive refixpoint after every insert (the best a
    # view-less engine can do: it at least reuses semi-naive rounds).
    db = base
    program = CTFixpoint(parse_datalog(text))
    start = time.perf_counter()
    for op in ops:
        db = apply_update(db, op)
        full = program.run(db)
    full_time = time.perf_counter() - start

    # Incremental: re-fixpoint from the inserted delta only.
    db = base
    manager = ViewManager(db)
    manager.define_datalog("TC", text)
    start = time.perf_counter()
    for op in ops:
        db = apply_update(db, op, views=manager)
        maintained = manager.get("TC")  # the read-after-write serving pattern
    incremental_time = time.perf_counter() - start

    speedup = full_time / incremental_time if incremental_time > 0 else float("inf")
    counters = manager.counters
    print(
        f"{'full refixpoint':>16}: {full_time * 1e3:>9.1f}ms total, "
        f"{full_time / length * 1e3:>7.3f}ms/insert"
    )
    print(
        f"{'incremental':>16}: {incremental_time * 1e3:>9.1f}ms total, "
        f"{incremental_time / length * 1e3:>7.3f}ms/insert  ({speedup:.1f}x)"
    )
    print(
        f"{'delta work':>16}: {counters['refixpoint_rounds']} incremental "
        f"rounds, {counters['refixpoint_recomputes']} full recomputes"
    )
    if {row.terms for row in maintained.rows} != _terms(full, "TC"):
        print("  !! maintained view disagrees with refixpoint", file=sys.stderr)
        failures += 1
    if counters["refixpoint_recomputes"] != 0:
        print(
            "  !! insert-only stream triggered a full recompute", file=sys.stderr
        )
        failures += 1
    if speedup < floor:
        print(
            f"  !! incremental speedup {speedup:.1f}x is below the {floor}x floor",
            file=sys.stderr,
        )
        failures += 1
    return failures, {
        "full_ms_per_insert": round(full_time / length * 1e3, 3),
        "incremental_ms_per_insert": round(incremental_time / length * 1e3, 3),
        "maintenance_speedup": round(speedup, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument("--seed", type=int, default=0xAB1987)
    args = parser.parse_args(argv)
    layers, width, length, scratch_floor, maintenance_floor = (
        QUICK if args.quick else FULL
    )
    failures, figures = run_scratch(layers, width, scratch_floor, args.seed)
    more, maintenance = run_maintenance(layers, width, length, maintenance_floor, args.seed)
    print("BENCH_JSON " + json.dumps({**figures, **maintenance}))
    return 1 if failures + more else 0


if __name__ == "__main__":
    sys.exit(main())
