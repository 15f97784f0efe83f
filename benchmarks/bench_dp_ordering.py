"""Selinger DP ordering benchmark: bushy plans vs greedy and left-deep.

Three sections, each with a hard floor (non-zero exit on failure):

1. **Star** — the PR 2 workload in its pessimal input order.  The DP
   orderer must beat the left-deep input-order plan by the same >=3x
   floor the greedy orderer is held to (2x in ``--quick``), and must not
   be slower than the greedy orderer beyond a small timing-noise
   tolerance: on a star every connected subset contains the fact table,
   so DP and greedy pick equally good shapes and DP's extra enumeration
   must be negligible.  The planner runs greedy only as its fallback
   for long chains, so the greedy side orders the rewritten tree
   directly (``order_joins(plan(e), stats)``), inside the timed call
   like the DP side's planning.
2. **Snowflake** — ``workloads.snowflake_join_database``: two selective
   arms (``S >< F`` and ``D >< O``) meeting on a many-many ``F - D``
   edge.  Every one of the 24 left-deep orders is enumerated, evaluated
   (correctness-checked against the DP result) and timed; the DP-chosen
   bushy plan must beat the **best** left-deep order by >=1.5x
   (1.2x in ``--quick``).
3. **Statistics amortisation** — a repeated-query run planned from the
   tables' statistics memos (counted by a ``StatsStore``, as the serving
   session does) must collect each table's statistics exactly once, not
   once per query, and is timed against an explicit fresh collection per
   query.

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_dp_ordering.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_dp_ordering.py --quick  # CI smoke

The last line is ``BENCH_JSON {...}`` with the star's dp/greedy time
ratio at the acceptance size (``dp_greedy_ratio``, held to
``greedy_tolerance``), so CI can report the gate's margin.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import random
import sys
import time

from repro.ctalgebra import evaluate_ct_optimized, evaluate_ct_ordered
from repro.relational import (
    ColEq,
    Product,
    Project,
    Scan,
    Select,
    Statistics,
    StatsStore,
    order_joins,
    plan,
)
from repro.relational.stats import TableStats
from repro.workloads import (
    snowflake_join_database,
    snowflake_join_expression,
    star_join_database,
    star_join_expression,
)

NUM_DIMS = 4
FULL_STAR = ((8, 12), 256, (12, 3.0))  # sizes, fact rows, (acceptance size, floor)
QUICK_STAR = ((6, 8), 64, (8, 2.0))
#: DP may not be slower than greedy on the star beyond timing noise.
GREEDY_TOLERANCE = 1.25
FULL_SNOWFLAKE = (dict(fact_rows=400, dim_rows=400, filter_rows=200), 1.5)
QUICK_SNOWFLAKE = (dict(fact_rows=200, dim_rows=200, filter_rows=100), 1.2)
AMORTISE_QUERIES = 6

#: The snowflake chain: tables in canonical order and the join edges as
#: (left table, left column, right table, right column).
SNOWFLAKE_TABLES = ("S", "F", "D", "O")
SNOWFLAKE_EDGES = (("S", 0, "F", 0), ("F", 1, "D", 0), ("D", 1, "O", 0))


def _best_of(fns, repeat: int) -> list[float]:
    """Each function's best wall time over ``repeat`` rounds.

    Every round times each function once, in forward order on even
    rounds and reverse order on odd ones, so host load that drifts
    during the run reaches every arm alike instead of landing on
    whichever arm's phase it overlapped, and no arm always runs last.
    Garbage is collected before each call, so no arm pays for the one
    before it.
    """
    best = [float("inf")] * len(fns)
    for i in range(repeat):
        for j in range(len(fns)) if i % 2 == 0 else reversed(range(len(fns))):
            gc.collect()
            start = time.perf_counter()
            fns[j]()
            best[j] = min(best[j], time.perf_counter() - start)
    return best


def _left_deep_expression(order):
    """The snowflake join with leaves in ``order``, forced left-deep.

    Built as ``Select(Product(...))`` so the rewrite planner (run without
    statistics) fuses it into a left-deep join chain in exactly this
    order; a final projection restores the canonical column order so row
    sets are comparable across permutations.
    """
    base = {}
    expr = None
    for name in order:
        base[name] = expr.arity if expr is not None else 0
        scan = Scan(name, 2)
        expr = scan if expr is None else Product(expr, scan)
    predicates = [
        ColEq(base[lt] + lc, base[rt] + rc)
        if base[lt] + lc < base[rt] + rc
        else ColEq(base[rt] + rc, base[lt] + lc)
        for lt, lc, rt, rc in SNOWFLAKE_EDGES
    ]
    restore = [base[name] + c for name in SNOWFLAKE_TABLES for c in range(2)]
    return Project(Select(expr, predicates), restore)


def run_star(sizes, fact_rows, acceptance, repeat: int, seed: int, report: dict) -> int:
    """The star section; records the acceptance size's figures in ``report``."""
    acceptance_size, floor = acceptance
    expression = star_join_expression(NUM_DIMS)
    print("== star: DP vs greedy vs left-deep input order ==")
    print(f"{'dim rows':>8}  {'left-deep':>10}  {'greedy':>10}  {'dp':>10}  {'dp speedup':>10}")
    failures = 0
    for size in sizes:
        rng = random.Random(seed)
        db = star_join_database(rng, num_dims=NUM_DIMS, dim_rows=size, fact_rows=fact_rows)
        stats = Statistics.collect(db)
        input_view = evaluate_ct_optimized(expression, db, name="J")

        def greedy(name="view"):
            return evaluate_ct_optimized(order_joins(plan(expression), stats), db, name=name)

        greedy_view = greedy("J")
        dp_view = evaluate_ct_ordered(expression, db, name="J", stats=stats)
        if not (set(input_view.rows) == set(greedy_view.rows) == set(dp_view.rows)):
            print(f"  !! row mismatch at dim_rows={size}", file=sys.stderr)
            failures += 1
            continue
        input_time, greedy_time, dp_time = _best_of(
            [
                lambda: evaluate_ct_optimized(expression, db),
                greedy,
                lambda: evaluate_ct_ordered(expression, db, stats=stats),
            ],
            repeat,
        )
        speedup = input_time / dp_time if dp_time > 0 else float("inf")
        print(
            f"{size:>8}  {input_time * 1e3:>8.2f}ms  {greedy_time * 1e3:>8.2f}ms"
            f"  {dp_time * 1e3:>8.2f}ms  {speedup:>9.1f}x"
        )
        if size == acceptance_size:
            report.update(
                dim_rows=size,
                dp_ms=round(dp_time * 1e3, 3),
                greedy_ms=round(greedy_time * 1e3, 3),
                dp_greedy_ratio=round(dp_time / greedy_time, 3),
                greedy_tolerance=GREEDY_TOLERANCE,
                dp_speedup=round(speedup, 2),
            )
            if speedup < floor:
                print(
                    f"  !! dp speedup {speedup:.1f}x at dim_rows={size} is below "
                    f"the {floor}x floor",
                    file=sys.stderr,
                )
                failures += 1
            if dp_time > greedy_time * GREEDY_TOLERANCE:
                print(
                    f"  !! dp ({dp_time * 1e3:.2f}ms) slower than greedy "
                    f"({greedy_time * 1e3:.2f}ms) beyond the {GREEDY_TOLERANCE}x "
                    "noise tolerance",
                    file=sys.stderr,
                )
                failures += 1
    return failures


def run_snowflake(params, floor: float, repeat: int, seed: int) -> int:
    rng = random.Random(seed)
    db = snowflake_join_database(rng, **params)
    expression = snowflake_join_expression()
    stats = Statistics.collect(db)
    explain: list[str] = []
    dp_view = evaluate_ct_ordered(expression, db, name="J", stats=stats, explain=explain)
    dp_rows = set(dp_view.rows)
    print("\n== snowflake: DP bushy plan vs every left-deep order ==")
    for line in explain:
        print(f"-- dp {line}")

    failures = 0
    timings = []
    for order in itertools.permutations(SNOWFLAKE_TABLES):
        left_deep = _left_deep_expression(order)
        start = time.perf_counter()
        view = evaluate_ct_optimized(left_deep, db, name="J")
        elapsed = time.perf_counter() - start
        if set(view.rows) != dp_rows:
            print(f"  !! row mismatch for left-deep order {order}", file=sys.stderr)
            failures += 1
            continue
        timings.append((elapsed, order))
    timings.sort()
    best_time, best_order = timings[0]
    # Re-time the winning permutation properly (the sweep timed each once).
    best_again, dp_time = _best_of(
        [
            lambda: evaluate_ct_optimized(_left_deep_expression(best_order), db),
            lambda: evaluate_ct_ordered(expression, db, stats=stats),
        ],
        repeat,
    )
    best_time = min(best_time, best_again)
    speedup = best_time / dp_time if dp_time > 0 else float("inf")
    print(f"{'best left-deep':>16}: {best_time * 1e3:>8.2f}ms  (order {' '.join(best_order)})")
    print(f"{'worst left-deep':>16}: {timings[-1][0] * 1e3:>8.2f}ms  (order {' '.join(timings[-1][1])})")
    print(f"{'dp (bushy)':>16}: {dp_time * 1e3:>8.2f}ms  ({speedup:.1f}x vs best left-deep)")
    if speedup < floor:
        print(
            f"  !! dp speedup {speedup:.1f}x vs the best left-deep order is below "
            f"the {floor}x floor",
            file=sys.stderr,
        )
        failures += 1
    return failures


def run_amortisation(params, repeat_queries: int, seed: int) -> int:
    rng = random.Random(seed)
    db = snowflake_join_database(rng, **params)
    expression = snowflake_join_expression()
    print("\n== statistics amortisation through the table memos ==")

    start = time.perf_counter()
    for _ in range(repeat_queries):
        fresh = Statistics(
            TableStats.from_rows(t.name, t.arity, t.rows, t.global_condition) for t in db
        )
        evaluate_ct_ordered(expression, db, name="J", stats=fresh)
    per_query = time.perf_counter() - start

    store = StatsStore()
    start = time.perf_counter()
    for _ in range(repeat_queries):
        evaluate_ct_ordered(expression, db, name="J", stats=store.snapshot(db))
    memoised = time.perf_counter() - start

    tables = len(db)
    print(
        f"{repeat_queries} queries: per-query collection {per_query * 1e3:.2f}ms, "
        f"memoised {memoised * 1e3:.2f}ms "
        f"({store.table_collections} table collections, {tables} tables)"
    )
    if store.table_collections != tables:
        print(
            f"  !! expected {tables} table collections through the memos, "
            f"saw {store.table_collections}",
            file=sys.stderr,
        )
        return 1
    return 0


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
    star_sizes, star_fact_rows, star_acceptance = QUICK_STAR if args.quick else FULL_STAR
    snowflake_params, snowflake_floor = QUICK_SNOWFLAKE if args.quick else FULL_SNOWFLAKE
    report: dict = {}
    failures = run_star(
        star_sizes, star_fact_rows, star_acceptance, args.repeat, args.seed, report
    )
    failures += run_snowflake(snowflake_params, snowflake_floor, args.repeat, args.seed)
    failures += run_amortisation(snowflake_params, AMORTISE_QUERIES, args.seed)
    print("BENCH_JSON " + json.dumps(report, sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
