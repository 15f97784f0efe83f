"""Histogram selectivity benchmark: value-frequency costing vs constants.

PR 4 replaced the planner's fixed selectivity constants (``1/distinct``
for equality, 0.9 for inequality) with per-column equi-depth histograms
and most-common-value tracking (``relational/stats.py``).  This benchmark
guards the two claims that justify the extra collection work:

1. **Skewed star** — ``workloads.skewed_star_join_database``: a star
   whose skewed dimensions carry Zipf-distributed payloads (one red-hot
   value, a near-unique tail) and Zipf-distributed fact keys.  Under the
   uniform ``1/distinct`` model the hot-payload filters look *more*
   selective than the genuinely selective dimension ``D0``, so the
   Selinger DP joins the wrong dimensions first and drags ~60%-of-fact
   intermediates through the plan.  Histogram costing prices the hot
   value by its MCV frequency, flips the DP plan choice to filter
   through ``D0``, and must win by >= 2x (1.5x in ``--quick``).  Both
   plans are correctness-checked against each other.  The uniform
   baseline is built with ``TableStats.from_rows(..., buckets=0)``.

2. **No regression** — on the *uniform* star
   (``workloads.star_join_database``) and the snowflake
   (``workloads.snowflake_join_database``) the histogram model must pick
   plans exactly as good as the constant model's: histogram-costed DP
   may not be slower beyond a 1.25x timing-noise tolerance.  (Uniform
   columns carry no MCVs, so the histogram estimates collapse to the
   uniform formula by construction.)

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_histogram_selectivity.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_histogram_selectivity.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.ctalgebra import evaluate_ct_ordered
from repro.relational import Statistics
from repro.relational.stats import TableStats
from repro.workloads import (
    skewed_star_join_database,
    skewed_star_join_expression,
    snowflake_join_database,
    snowflake_join_expression,
    star_join_database,
    star_join_expression,
)

#: (generator kwargs, speedup floor) for the skewed star.
FULL_SKEWED = (dict(num_skewed=3, dim_rows=400, fact_rows=4000), 2.0)
QUICK_SKEWED = (dict(num_skewed=3, dim_rows=200, fact_rows=1600), 1.5)

#: Histogram-costed DP may not lose to constant-costed DP on uniform
#: workloads beyond timing noise.
NOISE_TOLERANCE = 1.25

FULL_STAR = dict(num_dims=4, dim_rows=12, fact_rows=256)
QUICK_STAR = dict(num_dims=4, dim_rows=8, fact_rows=64)
FULL_SNOWFLAKE = dict(fact_rows=400, dim_rows=400, filter_rows=200)
QUICK_SNOWFLAKE = dict(fact_rows=200, dim_rows=200, filter_rows=100)


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed_pair(expression, db, repeat: int):
    """Evaluate with histogram and constant-selectivity statistics.

    Returns ``(hist_time, const_time, hist_order, const_order)`` after
    checking both plans produce the same rows.
    """
    stats_hist = Statistics.collect(db)
    stats_const = Statistics(
        TableStats.from_rows(t.name, t.arity, t.rows, t.global_condition, buckets=0)
        for t in db
    )
    orders = {}
    views = {}
    for label, stats in (("hist", stats_hist), ("const", stats_const)):
        explain: list[str] = []
        views[label] = evaluate_ct_ordered(
            expression, db, name="J", stats=stats, explain=explain
        )
        orders[label] = next(
            (line for line in explain if line.startswith("join order")), "?"
        )
    if set(views["hist"].rows) != set(views["const"].rows):
        raise AssertionError("histogram and constant plans disagree on rows")
    hist_time = _best_of(
        lambda: evaluate_ct_ordered(expression, db, stats=stats_hist), repeat
    )
    const_time = _best_of(
        lambda: evaluate_ct_ordered(expression, db, stats=stats_const), repeat
    )
    return hist_time, const_time, orders["hist"], orders["const"]


def run_skewed_star(params, floor: float, repeat: int, seed: int) -> int:
    rng = random.Random(seed)
    db = skewed_star_join_database(rng, **params)
    expression = skewed_star_join_expression(params["num_skewed"])
    print("== skewed star: histogram-costed DP vs constant-selectivity DP ==")
    try:
        hist_time, const_time, hist_order, const_order = _timed_pair(
            expression, db, repeat
        )
    except AssertionError as exc:
        print(f"  !! {exc}", file=sys.stderr)
        return 1
    speedup = const_time / hist_time if hist_time > 0 else float("inf")
    print(f"-- constant model {const_order}")
    print(f"-- histogram model {hist_order}")
    print(
        f"{'constants':>10}: {const_time * 1e3:>8.2f}ms\n"
        f"{'histograms':>10}: {hist_time * 1e3:>8.2f}ms  ({speedup:.1f}x)"
    )
    failures = 0
    if speedup < floor:
        print(
            f"  !! histogram speedup {speedup:.1f}x is below the {floor}x floor",
            file=sys.stderr,
        )
        failures += 1
    if hist_order == const_order:
        print(
            "  !! histogram costing did not change the DP plan choice",
            file=sys.stderr,
        )
        failures += 1
    return failures


def run_no_regression(name, db, expression, repeat: int) -> int:
    try:
        hist_time, const_time, hist_order, const_order = _timed_pair(
            expression, db, repeat
        )
    except AssertionError as exc:
        print(f"  !! {name}: {exc}", file=sys.stderr)
        return 1
    ratio = hist_time / const_time if const_time > 0 else float("inf")
    print(
        f"{name:>12}: constants {const_time * 1e3:>8.2f}ms, "
        f"histograms {hist_time * 1e3:>8.2f}ms  ({ratio:.2f}x, tolerance "
        f"{NOISE_TOLERANCE}x)"
    )
    if hist_time > const_time * NOISE_TOLERANCE:
        print(
            f"  !! {name}: histogram-costed DP ({hist_time * 1e3:.2f}ms) slower "
            f"than constant-costed DP ({const_time * 1e3:.2f}ms) beyond the "
            f"{NOISE_TOLERANCE}x noise tolerance",
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
    skewed_params, skewed_floor = QUICK_SKEWED if args.quick else FULL_SKEWED
    star_params = QUICK_STAR if args.quick else FULL_STAR
    snowflake_params = QUICK_SNOWFLAKE if args.quick else FULL_SNOWFLAKE

    failures = run_skewed_star(skewed_params, skewed_floor, args.repeat, args.seed)

    print("\n== no regression on uniform workloads ==")
    rng = random.Random(args.seed)
    failures += run_no_regression(
        "star",
        star_join_database(rng, **star_params),
        star_join_expression(star_params["num_dims"]),
        args.repeat,
    )
    rng = random.Random(args.seed)
    failures += run_no_regression(
        "snowflake",
        snowflake_join_database(rng, **snowflake_params),
        snowflake_join_expression(),
        args.repeat,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
