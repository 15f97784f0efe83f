"""View maintenance benchmark: incremental deltas vs full re-evaluation.

The serving scenario behind the ROADMAP's north star: a standing query
(a materialized view) over a database mutated one fact at a time, read
after every write.  Two strategies answer it:

* **full** — re-evaluate the view expression from scratch after every
  update (through the DP-ordered planner, which reads the tables'
  statistics memos, so only the touched table's statistics are
  recollected: the best the query-at-a-time engine can do);
* **incremental** — a :class:`repro.views.ViewManager` attached to the
  update operators: inserts propagate as delta c-tables against cached
  subplan results, deletes that only drop rows propagate as removal
  deltas, and a delete that rewrites a null-bearing row's condition
  recomputes only the plan subtree reading the touched relation (a
  modify is a delete then an insert, each half on its own path).

Sections, each with a hard floor (non-zero exit on failure):

1. **Star view maintenance** — a 4-dimensional star join view under a
   200-update mixed stream (``workloads.update_stream``, insert-heavy
   80/10/10 — the heavy-traffic shape).  Guards: incremental average
   per-update cost ``>= 5x`` cheaper than full re-evaluation (``>= 2x``
   in ``--quick``), and maintained rows must equal the recomputed rows
   at every checkpoint (the workload is ground, so row-set equality is
   the representation equality; the condition-bearing cases live in
   ``tests/test_views.py``).
2. **Shared subplans** — two views sharing the star's join spine must
   share plan nodes (structural guard) and maintaining both must cost
   well under two independent managers (amortisation guard, 1.6x floor
   on the insert-only stream).
3. **Null-bearing star** — the same star with ``F`` made null-bearing
   (1% labelled nulls per column, 2% rows with a local ``null !=
   constant`` condition) under a delete/modify-heavy 20/50/30 stream on
   ``F``.  Guards: no targeted recompute on an update that rewrote no
   condition (deterministic; the script counts the rewriting updates
   itself, from the rows each delete unifies with), incremental
   per-update cost ``>= 3x`` cheaper than full re-evaluation (both
   modes), and at every checkpoint the maintained view and the
   instance-level evaluator over the same world give the same facts
   under a few seeded valuations.

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_view_maintenance.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_view_maintenance.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.core.conditions import Conjunction, Neq
from repro.core.tables import CTable, Row
from repro.core.terms import Variable
from repro.core.worlds import world_of
from repro.ctalgebra import evaluate_ct_ordered
from repro.extensions import apply_update
from repro.relational import Project
from repro.relational.evaluator import evaluate_to_relation
from repro.views import ViewManager
from repro.workloads import (
    random_valuation,
    star_join_database,
    star_join_expression,
    update_stream,
)

NUM_DIMS = 4
#: (dim_rows, fact_rows, stream length, checkpoint stride, speedup floor,
#:  shared-subplan amortisation floor — looser in quick mode, where fixed
#:  overheads dominate the tiny inputs and timing noise bites harder)
FULL = (16, 2000, 200, 25, 5.0, 1.6)
QUICK = (8, 400, 60, 15, 2.0, 1.25)
STREAM_WEIGHTS = dict(insert_weight=0.8, delete_weight=0.1, modify_weight=0.1)
#: Section 3: the null-bearing shape, its stream mix, the valuations
#: checked per checkpoint and the speedup floor (under half the slowest
#: of 5 full and 8 quick runs on a 2-vCPU host: 7.3x and 7.2x).
NULL_SHAPE = dict(null_share=0.01, nulls=6, condition_share=0.02)
NULL_STREAM_WEIGHTS = dict(insert_weight=0.2, delete_weight=0.5, modify_weight=0.3)
NULL_VALUATIONS = 3
NULL_FLOOR = 3.0


def _stream(rng, db, length):
    return update_stream(rng, db, length, **STREAM_WEIGHTS)


def run_star(dim_rows, fact_rows, length, stride, floor, seed) -> int:
    rng = random.Random(seed)
    base = star_join_database(rng, num_dims=NUM_DIMS, dim_rows=dim_rows, fact_rows=fact_rows)
    expression = star_join_expression(NUM_DIMS)
    ops = _stream(rng, base, length)
    kinds = {k: sum(1 for op in ops if op[0] == k) for k in ("insert", "delete", "modify")}
    print(
        f"== star view maintenance: {NUM_DIMS} dims x {dim_rows} rows, "
        f"{fact_rows} facts, {length} updates "
        f"({kinds['insert']}i/{kinds['delete']}d/{kinds['modify']}m) =="
    )
    failures = 0

    # Full re-evaluation per update (stats amortised through the memos).
    db = base
    start = time.perf_counter()
    full_views = {}
    for position, op in enumerate(ops):
        db = apply_update(db, op)
        view = evaluate_ct_ordered(expression, db, name="V")
        if (position + 1) % stride == 0 or position + 1 == length:
            full_views[position] = set(view.rows)
    full_time = time.perf_counter() - start

    # Incremental maintenance through the ViewManager.
    db = base
    manager = ViewManager(db)
    manager.define("V", expression)
    start = time.perf_counter()
    for position, op in enumerate(ops):
        db = apply_update(db, op, views=manager)
        view = manager.get("V")  # the read-after-write serving pattern
        if (position + 1) % stride == 0 or position + 1 == length:
            if set(view.rows) != full_views[position]:
                print(f"  !! row mismatch after update {position + 1}", file=sys.stderr)
                failures += 1
    incremental_time = time.perf_counter() - start

    speedup = full_time / incremental_time if incremental_time > 0 else float("inf")
    counters = manager.counters
    print(
        f"{'full re-eval':>16}: {full_time * 1e3:>9.1f}ms total, "
        f"{full_time / length * 1e3:>7.3f}ms/update"
    )
    print(
        f"{'incremental':>16}: {incremental_time * 1e3:>9.1f}ms total, "
        f"{incremental_time / length * 1e3:>7.3f}ms/update  ({speedup:.1f}x)"
    )
    print(
        f"{'delta work':>16}: +{counters['delta_rows']} rows via "
        f"{counters['delta_nodes']} delta nodes, "
        f"{counters['recomputed_nodes']} targeted recomputes"
    )
    if speedup < floor:
        print(
            f"  !! incremental speedup {speedup:.1f}x is below the {floor}x floor",
            file=sys.stderr,
        )
        failures += 1
    return failures


def run_shared(dim_rows, fact_rows, length, floor, seed) -> int:
    """Two views sharing the star join spine: shared nodes, shared work."""
    rng = random.Random(seed)
    base = star_join_database(rng, num_dims=NUM_DIMS, dim_rows=dim_rows, fact_rows=fact_rows)
    expression = star_join_expression(NUM_DIMS)
    projected = Project(expression, [0, 1])
    # Insert-only stream: both managers stay on the pure delta path, so
    # the comparison isolates the subplan-sharing effect.
    ops = update_stream(rng, base, length, insert_weight=1, delete_weight=0, modify_weight=0)
    print("\n== shared subplans: one manager with 2 views vs 2 managers ==")
    failures = 0

    db = base
    shared = ViewManager(db)
    shared.define("V1", expression)
    shared.define("V2", projected)
    shared_nodes = shared.subplan_count
    start = time.perf_counter()
    for op in ops:
        db = apply_update(db, op, views=shared)
    shared_time = time.perf_counter() - start

    db = base
    solo1, solo2 = ViewManager(db), ViewManager(db)
    solo1.define("V1", expression)
    solo2.define("V2", projected)
    solo_nodes = solo1.subplan_count + solo2.subplan_count
    start = time.perf_counter()
    for op in ops:
        # One base update, both managers notified — so the ratio measures
        # maintenance work only, not a duplicated apply_update.
        db = apply_update(db, op, views=solo1)
        solo2.notify_insert(op[1], op[2], db)
    solo_time = time.perf_counter() - start

    ratio = solo_time / shared_time if shared_time > 0 else float("inf")
    print(
        f"{'plan nodes':>16}: {shared_nodes} shared vs {solo_nodes} unshared"
    )
    print(
        f"{'2 managers':>16}: {solo_time * 1e3:>9.1f}ms;  shared manager: "
        f"{shared_time * 1e3:>9.1f}ms  ({ratio:.1f}x)"
    )
    if shared_nodes >= solo_nodes:
        print("  !! the two views share no plan nodes", file=sys.stderr)
        failures += 1
    if ratio < floor:
        print(
            f"  !! shared-manager amortisation {ratio:.1f}x is below the "
            f"{floor}x floor",
            file=sys.stderr,
        )
        failures += 1
    return failures


def null_bearing(rng, db, null_share, nulls, condition_share):
    """``db`` with ``null_share`` of each of ``F``'s columns replaced by
    labelled nulls from a pool of ``nulls``, and ``condition_share`` of
    its rows given a local ``null != constant`` condition."""
    pool = [Variable(f"n{i}") for i in range(nulls)]
    fact = db["F"]
    cells = [list(row.terms) for row in fact.rows]
    for column in range(fact.arity):
        for i in rng.sample(range(len(cells)), round(null_share * len(cells))):
            cells[i][column] = rng.choice(pool)
    conditioned = set(rng.sample(range(len(cells)), round(condition_share * len(cells))))
    rows = [
        Row(terms, Conjunction([Neq(rng.choice(pool), rng.choice(row.terms))]))
        if i in conditioned
        else Row(terms)
        for i, (row, terms) in enumerate(zip(fact.rows, cells))
    ]
    return db.replacing(CTable("F", fact.arity, rows))


def rewrites_a_condition(table, op) -> bool:
    """Does ``op`` delete a fact some null-bearing row of ``table`` can
    produce?  Deleting it strengthens that row's condition in place."""
    if op[0] == "insert":
        return False
    return any(
        any(isinstance(term, Variable) for term in row.terms)
        and all(isinstance(term, Variable) or term == value
                for term, value in zip(row.terms, op[2]))
        for row in table.rows
    )


def run_null_star(dim_rows, fact_rows, length, stride, floor, seed) -> int:
    rng = random.Random(seed)
    base = null_bearing(
        rng,
        star_join_database(rng, num_dims=NUM_DIMS, dim_rows=dim_rows, fact_rows=fact_rows),
        **NULL_SHAPE,
    )
    expression = star_join_expression(NUM_DIMS)
    ops = update_stream(rng, base, length, relations=["F"], **NULL_STREAM_WEIGHTS)
    kinds = {k: sum(1 for op in ops if op[0] == k) for k in ("insert", "delete", "modify")}
    print(
        f"\n== null-bearing star: {NUM_DIMS} dims x {dim_rows} rows, {fact_rows} "
        f"facts, {sum(isinstance(t, Variable) for row in base['F'].rows for t in row.terms)} "
        "null cells, "
        f"{sum(1 for row in base['F'].rows if row.has_local_condition())} "
        f"conditioned rows, {length} updates on F "
        f"({kinds['insert']}i/{kinds['delete']}d/{kinds['modify']}m) =="
    )
    failures = 0

    # Full re-evaluation per update; which updates rewrite a condition is
    # read off the table each one starts from.
    db = base
    rewriting = []
    for op in ops:
        rewriting.append(rewrites_a_condition(db["F"], op))
        db = apply_update(db, op)
    db = base
    start = time.perf_counter()
    for op in ops:
        db = apply_update(db, op)
        evaluate_ct_ordered(expression, db, name="V")
    full_time = time.perf_counter() - start

    db = base
    manager = ViewManager(db)
    manager.define("V", expression)
    counters = manager.counters
    recomputes = [0] * length
    checkpoints = []
    start = time.perf_counter()
    for position, op in enumerate(ops):
        before = counters["recomputed_nodes"]
        db = apply_update(db, op, views=manager)
        view = manager.get("V")
        recomputes[position] = counters["recomputed_nodes"] - before
        if (position + 1) % stride == 0 or position + 1 == length:
            checkpoints.append((position, db, view))
    incremental_time = time.perf_counter() - start

    for position, db, view in checkpoints:
        for _ in range(NULL_VALUATIONS):
            valuation = random_valuation(rng, db)
            world = world_of(db, valuation)
            want = set(evaluate_to_relation(expression, world, optimize=True).facts)
            if set(valuation.apply_table(view).facts) != want:
                print(f"  !! world mismatch after update {position + 1}", file=sys.stderr)
                failures += 1

    speedup = full_time / incremental_time if incremental_time > 0 else float("inf")
    stray = [i + 1 for i in range(length) if recomputes[i] and not rewriting[i]]
    print(
        f"{'full re-eval':>16}: {full_time * 1e3:>9.1f}ms total, "
        f"{full_time / length * 1e3:>7.3f}ms/update"
    )
    print(
        f"{'incremental':>16}: {incremental_time * 1e3:>9.1f}ms total, "
        f"{incremental_time / length * 1e3:>7.3f}ms/update  ({speedup:.1f}x)"
    )
    print(
        f"{'delta work':>16}: -{counters['removed_rows']} rows via removal deltas, "
        f"{sum(recomputes)} targeted recomputes on {sum(rewriting)} "
        f"condition-rewriting update(s), {len(checkpoints) * NULL_VALUATIONS} "
        "valuations checked"
    )
    if stray:
        print(
            f"  !! targeted recompute on update(s) {stray}, which rewrote no condition",
            file=sys.stderr,
        )
        failures += 1
    if speedup < floor:
        print(
            f"  !! incremental speedup {speedup:.1f}x is below the {floor}x floor",
            file=sys.stderr,
        )
        failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument("--seed", type=int, default=0xAB1987)
    args = parser.parse_args(argv)
    dim_rows, fact_rows, length, stride, floor, shared_floor = (
        QUICK if args.quick else FULL
    )
    failures = run_star(dim_rows, fact_rows, length, stride, floor, args.seed)
    failures += run_shared(
        dim_rows, fact_rows, max(length // 2, 20), shared_floor, args.seed
    )
    failures += run_null_star(dim_rows, fact_rows, length, stride, NULL_FLOOR, args.seed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
