"""Join ordering benchmark: cost-ordered plans vs left-deep input order.

Times ``evaluate_ct_ordered`` (statistics + the planner's cost-based
Selinger DP ordering) against ``evaluate_ct_optimized`` (rewrite planner
only, joins associate left-deep in input order) on a star-join workload
whose input order is *pessimal*: the expression lists every dimension
table before the fact table, so the input-order plan materialises the
full cartesian product of the dimensions (``dim_rows^k`` rows) before
the fact table prunes it, while the cost-ordered plan joins the fact
table immediately and never exceeds the fact cardinality.  Correctness
is verified on every run: both plans must produce the identical row
set, in the original column order.

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_join_ordering.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_join_ordering.py --quick  # CI smoke

Exit status is non-zero if correctness fails, or if the speedup at the
acceptance size falls below the floor: 3x at dim_rows=12 in full mode
(ISSUE 2's acceptance criterion; measured far above), 2x at dim_rows=8
in quick mode.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.ctalgebra import evaluate_ct_optimized, evaluate_ct_ordered
from repro.relational import Statistics
from repro.relational.planner import plan
from repro.workloads import star_join_database, star_join_expression

#: Sweep sizes are dimension-table row counts; the left-deep input-order
#: cost grows like dim_rows^num_dims while the ordered cost stays at the
#: fact cardinality, so the gap widens superlinearly.
NUM_DIMS = 4
FULL_SIZES = (8, 12, 16)
QUICK_SIZES = (6, 8)
FULL_FACT_ROWS = 256
QUICK_FACT_ROWS = 64
FULL_ACCEPTANCE = (12, 3.0)
QUICK_ACCEPTANCE = (8, 2.0)


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(sizes, fact_rows: int, acceptance, repeat: int, seed: int) -> int:
    acceptance_size, acceptance_floor = acceptance
    expression = star_join_expression(NUM_DIMS)
    print(
        f"{'dim rows':>8}  {'left-deep':>10}  {'ordered':>10}  {'speedup':>8}  {'out rows':>8}"
    )
    failures = 0
    acceptance_speedup = None
    for size in sizes:
        rng = random.Random(seed)
        db = star_join_database(rng, num_dims=NUM_DIMS, dim_rows=size, fact_rows=fact_rows)
        stats = Statistics.collect(db)
        left_deep_view = evaluate_ct_optimized(expression, db, name="J")
        ordered_view = evaluate_ct_ordered(expression, db, name="J", stats=stats)
        if set(left_deep_view.rows) != set(ordered_view.rows):
            print(f"  !! row mismatch at dim_rows={size}", file=sys.stderr)
            failures += 1
            continue
        left_deep_time = _best_of(lambda: evaluate_ct_optimized(expression, db), repeat)
        ordered_time = _best_of(
            lambda: evaluate_ct_ordered(expression, db, stats=stats), repeat
        )
        speedup = left_deep_time / ordered_time if ordered_time > 0 else float("inf")
        if size == acceptance_size:
            acceptance_speedup = speedup
        print(
            f"{size:>8}  {left_deep_time * 1e3:>8.2f}ms  {ordered_time * 1e3:>8.2f}ms"
            f"  {speedup:>7.1f}x  {len(ordered_view):>8}"
        )
    explain: list[str] = []
    rng = random.Random(seed)
    db = star_join_database(rng, num_dims=NUM_DIMS, dim_rows=sizes[-1], fact_rows=fact_rows)
    plan(expression, stats=Statistics.collect(db), explain=explain)
    for line in explain:
        print(f"-- {line}")
    if acceptance_speedup is not None and acceptance_speedup < acceptance_floor:
        print(
            f"  !! speedup {acceptance_speedup:.1f}x at dim_rows={acceptance_size} is "
            f"below the {acceptance_floor}x floor",
            file=sys.stderr,
        )
        failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions (best-of)"
    )
    parser.add_argument("--seed", type=int, default=0xAB1987)
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    fact_rows = QUICK_FACT_ROWS if args.quick else FULL_FACT_ROWS
    acceptance = QUICK_ACCEPTANCE if args.quick else FULL_ACCEPTANCE
    failures = run(sizes, fact_rows, acceptance, args.repeat, args.seed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
