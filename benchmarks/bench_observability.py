"""Observability benchmark: disabled-instrumentation overhead, EXPLAIN
ANALYZE exactness, and the /metrics endpoint under concurrent load.

The observability layer (:mod:`repro.obs`) promises to be free when
nobody is looking: the production evaluator carries zero
instrumentation hooks (EXPLAIN ANALYZE runs a *separate* walker), the
tracing entry point is one ``ContextVar`` read that returns ``None``,
and the slow-query log short-circuits on a ``None`` threshold.  This
benchmark turns those promises into hard floors (non-zero exit on
failure):

1. **Disabled overhead** — the full serving path
   (:class:`~repro.server.pool.QueryDispatcher` in front of a
   :class:`~repro.server.session.DatabaseSession`, cache off, tracing
   inactive, slow log off) vs the bare pipeline (parse + plan +
   :func:`~repro.ctalgebra.evaluate.evaluate_ct_ordered` on the same
   snapshot) on a star join.  Floor: best-case per-query time through
   the dispatcher **<= 1.10x** the bare pipeline — everything the
   observability layer adds to the hot path must cost under 10%.
2. **Analyze exactness** — :func:`evaluate_ct_analyzed` on the skewed
   star join, with every plan node's ``actual_rows`` checked against an
   independent naive recount: a local walker in *this file* re-executes
   the identical planned tree bottom-up with the public lifted
   operators and counts rows itself.  Floor: **zero mismatches** at
   every node, estimates present at every node, and the analyzed result
   table equal to :func:`evaluate_ct_ordered`'s.
3. **Metrics under concurrent load** — an in-thread HTTP server with
   querier threads, a live writer, and scraper threads hammering
   ``GET /metrics``.  Floor: every scrape parses line-by-line as
   Prometheus text exposition, every query succeeds with versions
   monotone per client thread, zero exceptions anywhere.

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_observability.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_observability.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import threading
import time

from repro.ctalgebra.evaluate import evaluate_ct_analyzed, evaluate_ct_ordered
from repro.ctalgebra.operators import (
    difference_ct,
    intersect_ct,
    join_ct,
    product_ct,
    project_ct,
    select_ct,
    union_ct,
)
from repro.io.jsonio import database_to_json
from repro.relational.algebra import (
    Difference,
    Intersect,
    Join,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from repro.relational.parser import parse_query
from repro.relational.planner import plan, ra_of_ucq
from repro.relational.stats import resolve_stats
from repro.server import DatabaseSession, ServerClient, make_server, start_in_thread
from repro.server.pool import QueryDispatcher
from repro.workloads import (
    skewed_star_join_database,
    skewed_star_join_expression,
    star_join_database,
)

#: (star dims, star dim rows, star fact rows, overhead iterations,
#:  skewed dim rows, skewed fact rows,
#:  http queriers, queries per querier, scrapers, scrapes per scraper)
FULL = (3, 12, 300, 25, 120, 1200, 4, 25, 2, 15)
QUICK = (3, 10, 160, 9, 60, 400, 3, 8, 2, 6)

OVERHEAD_FLOOR = 1.10

#: A Prometheus text-format sample line: name{labels} value
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[0-9eE+.-]+)$"
)


def star_query_text(num_dims: int) -> str:
    """The star join as a UCQ: payload columns out, keys joined away."""
    fact = ", ".join(f"K{i}" for i in range(num_dims))
    dims = ", ".join(f"D{i}(K{i}, P{i})" for i in range(num_dims))
    head = ", ".join(f"P{i}" for i in range(num_dims))
    return f"Q({head}) :- F({fact}), {dims}."


def row_values(table):
    return frozenset(tuple(t.value for t in row.terms) for row in table.rows)


# ---------------------------------------------------------------------------
# Section 1: disabled-instrumentation overhead
# ---------------------------------------------------------------------------


def run_overhead(num_dims, dim_rows, fact_rows, iterations, seed) -> int:
    rng = random.Random(seed)
    base = star_join_database(
        rng, num_dims=num_dims, dim_rows=dim_rows, fact_rows=fact_rows
    )
    query_text = star_query_text(num_dims)
    session = DatabaseSession("bench", base)
    dispatcher = QueryDispatcher(workers=0, cache_size=0)
    snap = session.snapshot()

    print(
        f"== disabled overhead: dispatcher vs bare pipeline, "
        f"{num_dims}-dim star ({fact_rows} facts), best of {iterations} =="
    )

    def bare():
        expression = ra_of_ucq(parse_query(query_text))
        return evaluate_ct_ordered(expression, snap.db)

    def dispatched():
        result, served_by = dispatcher.query(session, query_text)
        assert served_by == "inline", served_by
        return result.table

    # Warm both paths (the parser, the conjunctions the query interns)
    # before timing, and check they agree while we're at it.
    if row_values(bare()) != row_values(dispatched()):
        print("  !! dispatcher and bare pipeline disagree", file=sys.stderr)
        return 1

    def best_of(fn):
        best = float("inf")
        for _ in range(iterations):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    bare_s = best_of(bare)
    dispatched_s = best_of(dispatched)
    ratio = dispatched_s / bare_s if bare_s > 0 else float("inf")
    print(f"{'bare':>16}: {bare_s * 1e3:.3f}ms per query")
    print(f"{'dispatcher':>16}: {dispatched_s * 1e3:.3f}ms per query")
    print(f"{'ratio':>16}: {ratio:.3f} (floor <= {OVERHEAD_FLOOR})")
    print(
        "BENCH_JSON "
        + json.dumps(
            {
                "section": "overhead",
                "bare_ms": round(bare_s * 1e3, 3),
                "dispatcher_ms": round(dispatched_s * 1e3, 3),
                "ratio": round(ratio, 3),
                "floor": OVERHEAD_FLOOR,
            }
        )
    )
    if ratio > OVERHEAD_FLOOR:
        print(
            f"  !! disabled instrumentation costs {(ratio - 1) * 100:.1f}% "
            f"(floor {(OVERHEAD_FLOOR - 1) * 100:.0f}%)",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# Section 2: EXPLAIN ANALYZE exactness
# ---------------------------------------------------------------------------


def naive_recount(node, db):
    """Re-execute a planned tree bottom-up, independently of the
    instrumented walker, and return ``(table, count_tree)`` where
    ``count_tree`` mirrors the :class:`NodeAnalysis` shape as
    ``(rows, [child count_trees])``."""
    children = [naive_recount(child, db) for child in node.children()]
    tables = [t for t, _ in children]
    if isinstance(node, Scan):
        table = db[node.name]
    elif isinstance(node, Select):
        table = select_ct(tables[0], node.predicates)
    elif isinstance(node, Project):
        table = project_ct(tables[0], node.columns)
    elif isinstance(node, Join):
        table = join_ct(tables[0], tables[1], node.on)
    elif isinstance(node, Product):
        table = product_ct(tables[0], tables[1])
    elif isinstance(node, Union):
        table = union_ct(tables[0], tables[1])
    elif isinstance(node, Intersect):
        table = intersect_ct(tables[0], tables[1])
    elif isinstance(node, Difference):
        table = difference_ct(tables[0], tables[1])
    else:
        raise TypeError(f"unknown RA node: {node!r}")
    return table, (len(table), [c for _, c in children])


def compare_counts(analysis, counts, mismatches, path="root"):
    rows, children = counts
    if analysis.actual_rows != rows:
        mismatches.append(
            f"{path} [{analysis.label}]: analyzed {analysis.actual_rows} "
            f"vs recounted {rows}"
        )
    if analysis.est_rows is None:
        mismatches.append(f"{path} [{analysis.label}]: no cost estimate")
    if len(analysis.children) != len(children):
        mismatches.append(
            f"{path} [{analysis.label}]: arity {len(analysis.children)} "
            f"vs {len(children)}"
        )
        return
    for i, (child, child_counts) in enumerate(zip(analysis.children, children)):
        compare_counts(child, child_counts, mismatches, path=f"{path}.{i}")


def count_nodes(analysis) -> int:
    return 1 + sum(count_nodes(child) for child in analysis.children)


def run_exactness(dim_rows, fact_rows, seed) -> int:
    rng = random.Random(seed)
    db = skewed_star_join_database(rng, dim_rows=dim_rows, fact_rows=fact_rows)
    expr = skewed_star_join_expression()
    stats = resolve_stats(None, db)

    print(
        f"== analyze exactness: skewed star ({fact_rows} facts), "
        f"per-node recount =="
    )

    table, analysis = evaluate_ct_analyzed(expr, db, stats=stats)
    reference = evaluate_ct_ordered(expr, db, stats=stats)
    planned = plan(expr, stats=stats)
    recounted_table, counts = naive_recount(planned, db)

    failures = 0
    if row_values(table) != row_values(reference):
        print("  !! analyzed result differs from evaluate_ct_ordered", file=sys.stderr)
        failures += 1
    if row_values(table) != row_values(recounted_table):
        print("  !! analyzed result differs from the naive recount", file=sys.stderr)
        failures += 1

    mismatches: list[str] = []
    compare_counts(analysis.root, counts, mismatches)
    nodes = count_nodes(analysis.root)
    print(f"{'plan nodes':>16}: {nodes} checked, {len(mismatches)} mismatch(es)")
    print(f"{'result':>16}: {len(table)} rows, plan {analysis.plan_ms:.2f}ms, "
          f"total {analysis.total_ms:.2f}ms")
    for line in mismatches[:8]:
        print(f"  !! {line}", file=sys.stderr)
    if mismatches:
        failures += 1
    print(
        "BENCH_JSON "
        + json.dumps(
            {
                "section": "exactness",
                "nodes": nodes,
                "mismatches": len(mismatches),
                "rows": len(table),
            }
        )
    )
    return failures


# ---------------------------------------------------------------------------
# Section 3: /metrics under concurrent load
# ---------------------------------------------------------------------------


def run_metrics_load(queriers, queries_each, scrapers, scrapes_each, seed) -> int:
    rng = random.Random(seed)
    base = star_join_database(rng, num_dims=2, dim_rows=8, fact_rows=60)
    query_text = star_query_text(2)
    server = make_server(port=0)
    start_in_thread(server)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"

    print(
        f"== /metrics under load: {queriers} queriers x {queries_each}, "
        f"1 writer, {scrapers} scrapers x {scrapes_each} =="
    )

    errors: list[str] = []
    err_lock = threading.Lock()
    scrape_lines = [0]
    done = threading.Event()

    def fail(message):
        with err_lock:
            errors.append(message)

    try:
        ServerClient(url).create_database("bench", database_to_json(base))

        def querier(slot):
            client = ServerClient(url)
            last_version = -1
            for i in range(queries_each):
                try:
                    response = client.query(
                        "bench", query_text, trace_id=f"load-{slot}-{i}"
                    )
                except Exception as exc:
                    fail(f"querier {slot}: {exc!r}")
                    return
                if response["trace_id"] != f"load-{slot}-{i}":
                    fail(f"querier {slot}: trace id cross-contamination")
                if response["version"] < last_version:
                    fail(f"querier {slot}: version went backwards")
                last_version = response["version"]

        def writer():
            client = ServerClient(url)
            position = 0
            while not done.is_set():
                try:
                    client.update(
                        "bench", ["insert", "F", [position % 8, (position + 3) % 8]]
                    )
                except Exception as exc:
                    fail(f"writer: {exc!r}")
                    return
                position += 1
                time.sleep(0.005)

        def scraper(slot):
            client = ServerClient(url)
            for _ in range(scrapes_each):
                try:
                    text = client.metrics()
                except Exception as exc:
                    fail(f"scraper {slot}: {exc!r}")
                    return
                for line in text.strip().splitlines():
                    if line.startswith("#"):
                        if not (line.startswith("# HELP") or line.startswith("# TYPE")):
                            fail(f"scraper {slot}: bad comment line {line!r}")
                    elif not SAMPLE_RE.match(line):
                        fail(f"scraper {slot}: unparseable sample {line!r}")
                with err_lock:
                    scrape_lines[0] += len(text.strip().splitlines())

        threads = [
            threading.Thread(target=querier, args=(i,)) for i in range(queriers)
        ] + [threading.Thread(target=scraper, args=(i,)) for i in range(scrapers)]
        writer_thread = threading.Thread(target=writer)
        for t in threads:
            t.start()
        writer_thread.start()
        for t in threads:
            t.join()
        done.set()
        writer_thread.join()

        final = ServerClient(url).metrics()
        for needed in (
            "repro_queries_total",
            "repro_request_latency_seconds",
            'repro_db_version{db="bench"}',
        ):
            if needed not in final:
                fail(f"final scrape is missing {needed!r}")
    finally:
        server.shutdown()
        server.server_close()

    print(f"{'scraped':>16}: {scrape_lines[0]} metric lines, all parseable")
    print(f"{'errors':>16}: {len(errors)}")
    for line in errors[:8]:
        print(f"  !! {line}", file=sys.stderr)
    print(
        "BENCH_JSON "
        + json.dumps(
            {
                "section": "metrics_load",
                "queries": queriers * queries_each,
                "scrapes": scrapers * scrapes_each,
                "errors": len(errors),
            }
        )
    )
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument("--seed", type=int, default=0xAB1987)
    args = parser.parse_args(argv)
    (
        num_dims, dim_rows, fact_rows, iterations,
        sk_dim_rows, sk_fact_rows,
        queriers, queries_each, scrapers, scrapes_each,
    ) = QUICK if args.quick else FULL
    failures = run_overhead(num_dims, dim_rows, fact_rows, iterations, args.seed)
    failures += run_exactness(sk_dim_rows, sk_fact_rows, args.seed)
    failures += run_metrics_load(
        queriers, queries_each, scrapers, scrapes_each, args.seed
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
