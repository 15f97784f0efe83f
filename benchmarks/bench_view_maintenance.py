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
  subplan results, deletes/modifies recompute only the plan subtree
  reading the touched relation.

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

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_view_maintenance.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_view_maintenance.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.ctalgebra import evaluate_ct_ordered
from repro.extensions import apply_update
from repro.relational import Project
from repro.views import ViewManager
from repro.workloads import star_join_database, star_join_expression, update_stream

NUM_DIMS = 4
#: (dim_rows, fact_rows, stream length, checkpoint stride, speedup floor,
#:  shared-subplan amortisation floor — looser in quick mode, where fixed
#:  overheads dominate the tiny inputs and timing noise bites harder)
FULL = (16, 2000, 200, 25, 5.0, 1.6)
QUICK = (8, 400, 60, 15, 2.0, 1.25)
STREAM_WEIGHTS = dict(insert_weight=0.8, delete_weight=0.1, modify_weight=0.1)


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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
