"""Join planner benchmark: hash-join evaluation vs the naive product path.

Times ``evaluate_ct_optimized`` (planner + hash-partitioned ``join_ct``)
against ``evaluate_ct`` (literal select-over-product) on generated two-way
equijoin workloads of growing size, verifying on each run that the two
evaluators produce the same rows.  The naive path is O(|R| x |S|); the
planned path is O(|R| + |S| + output) on ground rows, so the speedup grows
linearly with the per-side row count.

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_join_planner.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_join_planner.py --quick  # CI smoke

Exit status is non-zero if correctness fails, or if the speedup at the
acceptance size (200 rows per side, full mode only) falls below the
5x floor promised in the roadmap.

A second section repeats the sweep with *pinned* join keys
(``random_join_database(pinned_probability=...)``: key cells that are
variables fixed to a constant by their row's local condition).  The
pin-aware partitioning in ``join_ct`` hashes those rows like ground ones
— matching what the condition-aware cost model already charges them —
so the same floors apply; before that change pinned rows paid the
pair-with-everything wild path and the floor was unreachable.  The two
evaluators legitimately differ syntactically here (the hash path never
materialises cross-pin pairs whose conditions are contradictory), so
correctness is checked as: planned rows ⊆ naive rows, and every
naive-only row's condition is unsatisfiable.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.ctalgebra import evaluate_ct, evaluate_ct_optimized
from repro.workloads import equijoin_expression, random_join_database

#: Full-mode sweep sizes (rows per side) and the 5x acceptance threshold at
#: 200 rows per side.  Quick mode runs smaller sizes, where the asymptotic
#: gap is narrower, so it enforces a looser floor at its largest size — still
#: enough to catch the planner silently degenerating to the product path.
FULL_SIZES = (50, 100, 200, 400)
QUICK_SIZES = (25, 50)
FULL_ACCEPTANCE = (200, 5.0)
QUICK_ACCEPTANCE = (50, 2.0)

#: The pinned-key section: fraction of key cells that are condition-pinned
#: variables, and its (smaller) sweep sizes.
PINNED_PROBABILITY = 0.35
FULL_PINNED_SIZES = (50, 100, 200)
QUICK_PINNED_SIZES = (25, 50)


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(sizes, acceptance, repeat: int, var_probability: float, seed: int) -> int:
    acceptance_size, acceptance_floor = acceptance
    expression = equijoin_expression()
    print(f"{'rows/side':>9}  {'naive':>10}  {'planned':>10}  {'speedup':>8}  {'out rows':>8}")
    failures = 0
    acceptance_speedup = None
    for size in sizes:
        rng = random.Random(seed)
        db = random_join_database(rng, rows_per_side=size, var_probability=var_probability)
        naive_view = evaluate_ct(expression, db, name="J")
        planned_view = evaluate_ct_optimized(expression, db, name="J")
        if set(naive_view.rows) != set(planned_view.rows):
            print(f"  !! row mismatch at size {size}", file=sys.stderr)
            failures += 1
            continue
        naive_time = _best_of(lambda: evaluate_ct(expression, db), repeat)
        planned_time = _best_of(lambda: evaluate_ct_optimized(expression, db), repeat)
        speedup = naive_time / planned_time if planned_time > 0 else float("inf")
        if size == acceptance_size:
            acceptance_speedup = speedup
        print(
            f"{size:>9}  {naive_time * 1e3:>8.2f}ms  {planned_time * 1e3:>8.2f}ms"
            f"  {speedup:>7.1f}x  {len(planned_view):>8}"
        )
    if acceptance_speedup is not None and acceptance_speedup < acceptance_floor:
        print(
            f"  !! speedup {acceptance_speedup:.1f}x at {acceptance_size} rows/side is below "
            f"the {acceptance_floor}x floor",
            file=sys.stderr,
        )
        failures += 1
    return failures


def run_pinned(sizes, acceptance, repeat: int, seed: int) -> int:
    """The pinned-key section: condition-pinned variables must hash."""
    acceptance_size, acceptance_floor = acceptance
    expression = equijoin_expression()
    print(f"\n== pinned join keys (p={PINNED_PROBABILITY}) ==")
    print(f"{'rows/side':>9}  {'naive':>10}  {'planned':>10}  {'speedup':>8}  {'out rows':>8}")
    failures = 0
    acceptance_speedup = None
    for size in sizes:
        rng = random.Random(seed)
        db = random_join_database(
            rng, rows_per_side=size, pinned_probability=PINNED_PROBABILITY
        )
        naive_view = evaluate_ct(expression, db, name="J")
        planned_view = evaluate_ct_optimized(expression, db, name="J")
        naive_rows = set(naive_view.rows)
        planned_rows = set(planned_view.rows)
        # The hash path skips cross-pin pairs; those only exist in the
        # naive result as rows with contradictory conditions.
        dead = naive_rows - planned_rows
        sound = planned_rows <= naive_rows and all(
            not any(c.is_satisfiable() for c in row.condition_dnf()) for row in dead
        )
        if not sound:
            print(f"  !! row mismatch at size {size}", file=sys.stderr)
            failures += 1
            continue
        naive_time = _best_of(lambda: evaluate_ct(expression, db), repeat)
        planned_time = _best_of(lambda: evaluate_ct_optimized(expression, db), repeat)
        speedup = naive_time / planned_time if planned_time > 0 else float("inf")
        if size == acceptance_size:
            acceptance_speedup = speedup
        print(
            f"{size:>9}  {naive_time * 1e3:>8.2f}ms  {planned_time * 1e3:>8.2f}ms"
            f"  {speedup:>7.1f}x  {len(planned_view):>8}"
        )
    if acceptance_speedup is not None and acceptance_speedup < acceptance_floor:
        print(
            f"  !! pinned speedup {acceptance_speedup:.1f}x at {acceptance_size} "
            f"rows/side is below the {acceptance_floor}x floor",
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
    parser.add_argument(
        "--var-probability",
        type=float,
        default=0.0,
        help="chance a join key is a variable (exercises the wild-row fallback)",
    )
    parser.add_argument("--seed", type=int, default=0xAB1987)
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    acceptance = QUICK_ACCEPTANCE if args.quick else FULL_ACCEPTANCE
    # The pinned section's workload ignores --var-probability, so its
    # floor stays in force even when the main sweep's is voided below.
    pinned_acceptance = acceptance
    if args.var_probability > 0:
        # Wild rows legitimately narrow the gap; floors apply to the
        # default ground workload only.
        acceptance = (None, 0.0)
    failures = run(sizes, acceptance, args.repeat, args.var_probability, args.seed)
    pinned_sizes = QUICK_PINNED_SIZES if args.quick else FULL_PINNED_SIZES
    failures += run_pinned(pinned_sizes, pinned_acceptance, args.repeat, args.seed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
