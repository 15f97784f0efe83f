"""Concurrent serving benchmark: throughput and snapshot isolation under load.

The scenario ``repro serve`` exists for: one long-lived database session,
one writer applying an ``update_stream``-style mutation sequence, N
reader threads answering a star-join query the whole time.  The paper's
closed-representation property is what makes this safe — a published
snapshot is an immutable c-table database, so a reader's answer is
well-defined no matter how many versions the writer publishes mid-query.

Sections, each with a hard floor (non-zero exit on failure):

1. **Snapshot isolation under load** — readers record ``(version,
   answer)`` pairs while the writer streams updates; afterwards every
   answer must equal evaluating the query against the database produced
   by exactly the first ``version`` operations of the update stream
   (the workload is ground, so row-set equality is representation
   equality; the condition-bearing cases live in
   ``tests/test_concurrency.py``).  Floor: **zero violations**, zero
   reader exceptions.
2. **Sustained throughput** — aggregate reader queries/sec with a live
   writer vs a single-reader no-writer baseline.  The guard is
   *relative* (GIL-aware: threads can't scale CPU-bound evaluation, but
   contention must not collapse it): aggregate concurrent qps ``>=
   0.35x`` baseline, plus a conservative absolute floor.
3. **HTTP end-to-end** — the same workload through
   ``ThreadingHTTPServer`` + ``ServerClient`` on the loopback
   interface: every response parses, versions are monotone per client,
   and a (deliberately loose) absolute requests/sec floor holds.
4. **Multi-process read scaling** — the same reader workload through a
   :class:`~repro.server.pool.QueryDispatcher` with a worker pool
   (request cache off so the pool, not the cache, is measured): the
   aggregate pooled qps must beat the single in-process reader by a
   **core-aware** factor, because worker processes — unlike threads —
   actually escape the GIL.  On >=4 cores the floor is 1.5x; on 2-3
   cores (CI runners) it relaxes to 1.0x; on a single core process
   parallelism cannot beat one reader, so the floor drops to a
   no-collapse 0.4x and the section says so.  The section also enforces
   zero isolation violations through the pool, checks the request cache
   hits only at the correct version, and emits a machine-readable
   ``BENCH_JSON`` line with p50/p99 latency percentiles.

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_server_throughput.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_server_throughput.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time

from repro.core.tables import TableDatabase
from repro.ctalgebra.evaluate import evaluate_ct
from repro.relational.parser import parse_query
from repro.relational.planner import ra_of_ucq
from repro.server import DatabaseSession, ServerClient, make_server, start_in_thread
from repro.workloads import star_join_database, update_stream

#: (num_dims, dim_rows, fact_rows, readers, stream length, measure seconds,
#:  relative qps floor, absolute concurrent qps floor, http requests/thread,
#:  pool workers)
FULL = (3, 12, 300, 4, 200, 2.0, 0.35, 10.0, 40, 4)
QUICK = (2, 8, 80, 3, 60, 0.5, 0.30, 5.0, 12, 2)


def star_query_text(num_dims: int) -> str:
    """The star join as a UCQ: payload columns out, keys joined away."""
    fact = ", ".join(f"K{i}" for i in range(num_dims))
    dims = ", ".join(f"D{i}(K{i}, P{i})" for i in range(num_dims))
    head = ", ".join(f"P{i}" for i in range(num_dims))
    return f"Q({head}) :- F({fact}), {dims}."


def row_values(table):
    return frozenset(tuple(t.value for t in row.terms) for row in table.rows)


def run_isolation(num_dims, dim_rows, fact_rows, readers, length, seed) -> int:
    rng = random.Random(seed)
    base = star_join_database(rng, num_dims=num_dims, dim_rows=dim_rows, fact_rows=fact_rows)
    ops = update_stream(rng, base, length, relations=("F",))
    query_text = star_query_text(num_dims)
    session = DatabaseSession("bench", base)
    dbs: dict[int, TableDatabase] = {0: session.snapshot().db}
    observations: list[tuple[int, frozenset]] = []
    obs_lock = threading.Lock()
    errors: list[Exception] = []
    done = threading.Event()

    print(
        f"== snapshot isolation: {readers} readers vs 1 writer, "
        f"{length}-op stream over a {num_dims}-dim star ({fact_rows} facts) =="
    )

    def writer():
        try:
            for op in ops:
                version = session.apply([op])
                dbs[version] = session.snapshot().db
        except Exception as exc:  # pragma: no cover - fails the bench
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                result = session.query(query_text)
                with obs_lock:
                    observations.append((result.version, row_values(result.table)))
        except Exception as exc:  # pragma: no cover - fails the bench
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(readers)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start

    failures = 0
    if errors:
        print(f"  !! {len(errors)} thread exception(s): {errors[0]!r}", file=sys.stderr)
        failures += 1

    expression = ra_of_ucq(parse_query(query_text))
    checked: dict[int, frozenset] = {}
    violations = 0
    for version, answer in observations:
        if version not in dbs:
            violations += 1
            continue
        if version not in checked:
            checked[version] = row_values(evaluate_ct(expression, dbs[version], name="Q"))
        if answer != checked[version]:
            violations += 1
    versions_seen = len({v for v, _ in observations})
    print(
        f"{'observations':>16}: {len(observations)} answers across "
        f"{versions_seen} distinct versions in {elapsed * 1e3:.0f}ms"
    )
    print(f"{'violations':>16}: {violations}")
    if not observations:
        print("  !! readers recorded no answers", file=sys.stderr)
        failures += 1
    if violations:
        print(
            f"  !! {violations} answer(s) match no prefix of the update stream",
            file=sys.stderr,
        )
        failures += 1
    return failures


def _measure_qps(session, query_text, readers, seconds, writer_ops=None):
    """Aggregate reader queries/sec over a fixed wall-clock window."""
    stop = threading.Event()
    counts = [0] * readers
    errors: list[Exception] = []

    def reader(slot):
        def go():
            try:
                while not stop.is_set():
                    session.query(query_text)
                    counts[slot] += 1
            except Exception as exc:  # pragma: no cover - fails the bench
                errors.append(exc)

        return go

    def writer():
        try:
            position = 0
            while not stop.is_set() and writer_ops:
                session.apply([writer_ops[position % len(writer_ops)]])
                position += 1
        except Exception as exc:  # pragma: no cover - fails the bench
            errors.append(exc)

    threads = [threading.Thread(target=reader(i)) for i in range(readers)]
    if writer_ops is not None:
        threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    time.sleep(seconds)
    stop.set()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return sum(counts) / seconds


def run_throughput(
    num_dims, dim_rows, fact_rows, readers, length, seconds, rel_floor, abs_floor, seed
) -> int:
    rng = random.Random(seed)
    base = star_join_database(rng, num_dims=num_dims, dim_rows=dim_rows, fact_rows=fact_rows)
    # A balanced insert/delete mix keeps the database near its base size
    # however long the writer loops, so baseline and concurrent phases
    # evaluate comparable workloads.
    ops = update_stream(
        rng, base, length, insert_weight=0.5, delete_weight=0.5,
        modify_weight=0.0, relations=("F",),
    )
    query_text = star_query_text(num_dims)
    print(f"\n== sustained throughput: {seconds:.1f}s windows ==")

    baseline = _measure_qps(DatabaseSession("base", base), query_text, 1, seconds)
    concurrent = _measure_qps(
        DatabaseSession("conc", base), query_text, readers, seconds, writer_ops=ops
    )
    ratio = concurrent / baseline if baseline > 0 else float("inf")
    print(f"{'1 reader idle':>16}: {baseline:>8.1f} q/s (baseline)")
    print(
        f"{'under load':>16}: {concurrent:>8.1f} q/s aggregate "
        f"({readers} readers + writer, {ratio:.2f}x baseline)"
    )
    failures = 0
    if concurrent < abs_floor:
        print(
            f"  !! concurrent throughput {concurrent:.1f} q/s is below the "
            f"{abs_floor} q/s floor",
            file=sys.stderr,
        )
        failures += 1
    if ratio < rel_floor:
        print(
            f"  !! concurrent/baseline ratio {ratio:.2f}x is below the "
            f"{rel_floor}x floor (lock contention is eating the readers)",
            file=sys.stderr,
        )
        failures += 1
    return failures


def run_http(num_dims, dim_rows, fact_rows, readers, requests, seed) -> int:
    from repro.io.jsonio import database_to_json

    rng = random.Random(seed)
    base = star_join_database(rng, num_dims=num_dims, dim_rows=dim_rows, fact_rows=fact_rows)
    ops = update_stream(
        rng, base, requests, insert_weight=0.5, delete_weight=0.5,
        modify_weight=0.0, relations=("F",),
    )
    query_text = star_query_text(num_dims)
    print(f"\n== HTTP end-to-end: {readers} clients x {requests} requests ==")

    server = make_server(port=0)
    start_in_thread(server)
    host, port = server.server_address[:2]
    failures = 0
    try:
        client = ServerClient(f"http://{host}:{port}")
        client.create_database("bench", database_to_json(base))
        errors: list[Exception] = []
        total = [0]
        lock = threading.Lock()

        def http_reader():
            try:
                own = ServerClient(f"http://{host}:{port}")
                last_version = -1
                for _ in range(requests):
                    response = own.query("bench", query_text)
                    assert response["version"] >= last_version, "version went backwards"
                    last_version = response["version"]
                    with lock:
                        total[0] += 1
            except Exception as exc:  # pragma: no cover - fails the bench
                errors.append(exc)

        def http_writer():
            try:
                own = ServerClient(f"http://{host}:{port}")
                for op in ops:
                    own.update(
                        "bench",
                        [op[0], op[1], *[[c.value for c in fact] for fact in op[2:]]],
                    )
            except Exception as exc:  # pragma: no cover - fails the bench
                errors.append(exc)

        threads = [threading.Thread(target=http_reader) for _ in range(readers)]
        threads.append(threading.Thread(target=http_writer))
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        rps = total[0] / elapsed if elapsed > 0 else float("inf")
        print(f"{'completed':>16}: {total[0]} queries in {elapsed * 1e3:.0f}ms ({rps:.1f} req/s)")
        if errors:
            print(f"  !! {len(errors)} client exception(s): {errors[0]!r}", file=sys.stderr)
            failures += 1
        if total[0] != readers * requests:
            print(
                f"  !! {readers * requests - total[0]} request(s) went missing",
                file=sys.stderr,
            )
            failures += 1
        # Loose floor: loopback HTTP must not be pathologically slow.
        if rps < 2.0:
            print(f"  !! {rps:.1f} req/s is below the 2 req/s floor", file=sys.stderr)
            failures += 1
    finally:
        server.shutdown()
        server.server_close()
    return failures


def _scaling_floor(cores: int) -> tuple[float, str]:
    """The pooled-vs-single-reader ratio floor for this machine."""
    if cores >= 4:
        return 1.5, f"{cores} cores: full 1.5x scaling floor"
    if cores >= 2:
        return 1.0, f"{cores} cores: floor relaxed to 1.0x (2-core CI runner)"
    return 0.2, (
        "single core: process parallelism cannot beat one reader here "
        "(IPC tax, no parallel gain); only guarding against collapse "
        "(0.2x floor)"
    )


def run_multiprocess(
    num_dims, dim_rows, fact_rows, workers, length, seconds, seed, json_out=None
) -> int:
    from repro.server.pool import QueryDispatcher

    cores = os.cpu_count() or 1
    floor, floor_note = _scaling_floor(cores)
    rng = random.Random(seed)
    base = star_join_database(rng, num_dims=num_dims, dim_rows=dim_rows, fact_rows=fact_rows)
    ops = update_stream(
        rng, base, length, insert_weight=0.5, delete_weight=0.5,
        modify_weight=0.0, relations=("F",),
    )
    query_text = star_query_text(num_dims)
    print(f"\n== multi-process read scaling: {workers} workers on {cores} core(s) ==")
    print(f"{'floor':>16}: {floor_note}")
    failures = 0

    # Phase 1: single in-process reader, no dispatcher — the number the
    # worker pool has to beat.
    baseline = _measure_qps(DatabaseSession("mp-base", base), query_text, 1, seconds)

    # Phase 2: one reader thread per worker dispatching through the
    # pool, request cache off, a live writer publishing versions the
    # whole time.  Readers record (version, answer) for the isolation
    # check — an answer crossing process boundaries must still match
    # the update-stream prefix of exactly its version.
    session = DatabaseSession("mp", base)
    dispatcher = QueryDispatcher(workers=workers, cache_size=0)
    # Warm-up outside the clock: spawn-started workers finish importing
    # and each receives the snapshot (the idle queue is FIFO, so
    # sequential queries rotate through every worker).
    for _ in range(workers * 2):
        dispatcher.query(session, query_text)
    dbs: dict[int, TableDatabase] = {0: session.snapshot().db}
    observations: list[tuple[int, frozenset]] = []
    obs_lock = threading.Lock()
    errors: list[Exception] = []
    stop = threading.Event()
    counts = [0] * workers
    seconds = max(seconds, 1.0)  # IPC jitter needs a window this long

    def reader(slot):
        def go():
            try:
                while not stop.is_set():
                    result, _served_by = dispatcher.query(session, query_text)
                    counts[slot] += 1
                    with obs_lock:
                        observations.append(
                            (result.version, row_values(result.table))
                        )
            except Exception as exc:  # pragma: no cover - fails the bench
                errors.append(exc)

        return go

    def writer():
        try:
            position = 0
            while not stop.is_set():
                version = session.apply([ops[position % len(ops)]])
                dbs[version] = session.snapshot().db
                position += 1
        except Exception as exc:  # pragma: no cover - fails the bench
            errors.append(exc)

    threads = [threading.Thread(target=reader(i)) for i in range(workers)]
    threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    time.sleep(seconds)
    stop.set()
    for t in threads:
        t.join()
    aggregate = sum(counts) / seconds
    pool_stats = dispatcher.pool.stats()
    latency = dispatcher.stats()["latency"]
    inline_fallbacks = dispatcher.counters["inline_answers"]
    dispatcher.close()

    ratio = aggregate / baseline if baseline > 0 else float("inf")
    print(f"{'1 reader inline':>16}: {baseline:>8.1f} q/s (baseline)")
    print(
        f"{'pooled':>16}: {aggregate:>8.1f} q/s aggregate "
        f"({workers} readers + writer, {ratio:.2f}x baseline)"
    )
    print(
        f"{'shipping':>16}: {pool_stats['full_ships']} full, "
        f"{pool_stats['delta_ships']} delta ({pool_stats['delta_tables']} tables), "
        f"{pool_stats['cached_ships']} cached; {inline_fallbacks} inline fallback(s)"
    )
    print(
        f"{'latency':>16}: p50 {latency['p50_ms']:.2f}ms, "
        f"p99 {latency['p99_ms']:.2f}ms over {latency['count']} dispatches"
    )
    if errors:
        print(f"  !! {len(errors)} thread exception(s): {errors[0]!r}", file=sys.stderr)
        failures += 1

    expression = ra_of_ucq(parse_query(query_text))
    checked: dict[int, frozenset] = {}
    violations = 0
    for version, answer in observations:
        if version not in dbs:
            violations += 1
            continue
        if version not in checked:
            checked[version] = row_values(evaluate_ct(expression, dbs[version], name="Q"))
        if answer != checked[version]:
            violations += 1
    print(f"{'violations':>16}: {violations} across {len(observations)} pooled answers")
    if violations:
        print(
            f"  !! {violations} pooled answer(s) match no prefix of the update stream",
            file=sys.stderr,
        )
        failures += 1
    if not observations:
        print("  !! pooled readers recorded no answers", file=sys.stderr)
        failures += 1
    if ratio < floor:
        print(
            f"  !! pooled/baseline ratio {ratio:.2f}x is below the {floor}x floor",
            file=sys.stderr,
        )
        failures += 1

    # Phase 3: the request cache must hit — and only hit — at the
    # version a result was evaluated at.
    cache_ok = True
    cached = QueryDispatcher(workers=0, cache_size=32)
    cache_session = DatabaseSession("mp-cache", base)
    first, how_first = cached.query(cache_session, query_text)
    again, how_again = cached.query(cache_session, query_text)
    cache_ok &= how_again == "cache" and again.version == first.version
    cache_session.apply([ops[0]])
    bumped, how_bumped = cached.query(cache_session, query_text)
    reference = row_values(
        evaluate_ct(expression, cache_session.snapshot().db, name="Q")
    )
    cache_ok &= how_bumped != "cache" and bumped.version == first.version + 1
    cache_ok &= row_values(bumped.table) == reference
    hits = cached.cache.counters()["hits"]
    cached.close()
    print(f"{'cache check':>16}: {'ok' if cache_ok else 'FAILED'} ({hits} hit(s))")
    if not cache_ok:
        print("  !! request cache served a wrong or stale version", file=sys.stderr)
        failures += 1

    payload = {
        "section": "multiprocess",
        "workers": workers,
        "cores": cores,
        "baseline_qps": round(baseline, 2),
        "aggregate_qps": round(aggregate, 2),
        "ratio": round(ratio, 3),
        "floor": floor,
        "violations": violations,
        "latency_ms": {
            "p50": round(latency["p50_ms"], 3),
            "p99": round(latency["p99_ms"], 3),
            "mean": round(latency["mean_ms"], 3),
            "count": latency["count"],
        },
        "pool": pool_stats,
        "cache_check": "ok" if cache_ok else "failed",
    }
    print("BENCH_JSON " + json.dumps(payload))
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fp:
            json.dump(payload, fp, indent=2)
            fp.write("\n")
        print(f"{'json':>16}: wrote {json_out}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument("--seed", type=int, default=0xAB1987)
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="also write the multi-process section's BENCH_JSON payload here",
    )
    args = parser.parse_args(argv)
    (
        num_dims, dim_rows, fact_rows, readers, length,
        seconds, rel_floor, abs_floor, http_requests, workers,
    ) = QUICK if args.quick else FULL
    failures = run_isolation(num_dims, dim_rows, fact_rows, readers, length, args.seed)
    failures += run_throughput(
        num_dims, dim_rows, fact_rows, readers, length,
        seconds, rel_floor, abs_floor, args.seed,
    )
    failures += run_http(num_dims, dim_rows, fact_rows, readers, http_requests, args.seed)
    failures += run_multiprocess(
        num_dims, dim_rows, fact_rows, workers, length, seconds, args.seed,
        json_out=args.json_out,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
