#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload star_http --seed 1 --seconds 10 --trace 0

Run from the repository root (the engine is imported from ``src``).

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time (set-ups spread over the run), read and write latency at the
client and the throughput they add up to (each operation of the
workload's repeated block at its fastest repeat), and peak RSS of the
process running the engine.
``--trace 1`` instead makes three passes over the same fixed number of
closed-loop steps -- untraced, with span wrappers around every layer's
public calls, and under cProfile -- and prints the per-layer metrics,
including the tracing overhead against the untraced pass.

Every run checks sampled answers against ground worlds after the
measured region.  The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries provenance (source digest, Python, cores, seed, sizes) and
workload-specific detail.  Per-run files (the served database, spans,
server logs) go to ``.perfbench-work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from pathlib import Path

from spans import Tracer, package_self_seconds, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: A measured run sets up ``SETUP_SLICES`` times ``SETUPS_PER_SLICE``
#: times, the slices spread evenly over the run; ``setup_s`` is the
#: median over the slices of each slice's fastest set-up (README.md).
SETUP_SLICES = 5
SETUPS_PER_SLICE = 3

#: Per-layer time metrics: name -> the stage family whose time it reports.
STAGE_METRICS = {
    "dispatch.ms": "dispatch",
    "apply.ms": "apply",
    "serialize.ms": "serialize",
    "compile.ms": "compile",
    "fingerprint.ms": "fingerprint",
    "plan.ms": "plan",
    "stats.ms": "stats",
    "execute.ms": "execute",
    "execute.join.ms": "execute.join",
    "execute.select.ms": "execute.select",
    "execute.project.ms": "execute.project",
    "views.maintain.ms": "maintain",
    "fixpoint.subsume.ms": "subsume",
}
SPAN_LAYERS = (
    "server", "io.jsonio", "relational.parser", "relational.planner",
    "relational.stats", "ctalgebra", "views", "queries.fixpoint",
)
PROFILE_PACKAGES = (
    "core", "ctalgebra", "relational", "views", "queries", "server", "io", "extensions",
)


def _percentile(values: list, q: int) -> float:
    """The ``q``-th percentile, interpolated between closest ranks."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> "str | None":
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timed_setup(workload):
    gc.collect()
    start = time.perf_counter()
    state = workload.setup()
    return state, time.perf_counter() - start


class SetupSlices:
    """Set-ups spread over a measured run, a slice of them at a time.

    Called between blocks, it sets up and stops ``SETUPS_PER_SLICE``
    throwaway engines whenever the run has measured another
    ``1 / SETUP_SLICES`` of its seconds; :meth:`finish` takes any slice
    the run ended before.
    """

    def __init__(self, workload, seconds: float, first: float) -> None:
        self.workload = workload
        self.due = [seconds * k / SETUP_SLICES for k in range(1, SETUP_SLICES)]
        self.start = time.perf_counter()
        self.aside = 0.0
        self.slices = [[first]]
        self._take(SETUPS_PER_SLICE - 1)

    def _one(self) -> float:
        state, took = _timed_setup(self.workload)
        self.workload.stop(state)
        return took

    def _take(self, count: int) -> None:
        begin = time.perf_counter()
        self.slices[-1].extend(self._one() for _ in range(count))
        gc.collect()
        self.aside += time.perf_counter() - begin

    def __call__(self) -> None:
        measured = time.perf_counter() - self.start - self.aside
        if self.due and measured >= self.due[0]:
            self.due.pop(0)
            self.slices.append([])
            self._take(SETUPS_PER_SLICE)

    def finish(self) -> None:
        while self.due:
            self.due.pop(0)
            self.slices.append([])
            self._take(SETUPS_PER_SLICE)

    def median_fastest(self) -> float:
        return statistics.median(min(times) for times in self.slices)


def end_to_end(workload, seconds: float) -> tuple[dict, dict, tuple]:
    state, first = _timed_setup(workload)
    try:
        setups = SetupSlices(workload, seconds, first)
        log = workload.run(state, seconds=seconds, interlude=setups)
        setups.finish()
        rss = workload.peak_rss_mb(state)
    finally:
        workload.stop(state)
    checked, mismatched = workload.check(state, log)
    # Each operation of the block counts at its fastest repeat (README.md).
    reads, writes = log.fastest("read"), log.fastest("write")
    metrics = {
        "setup_s": _metric(setups.median_fastest(), "s"),
        "read_ms.p50": _metric(statistics.median(reads), "ms"),
        "read_ms.p90": _metric(_percentile(reads, 90), "ms"),
        "write_ms.p50": _metric(statistics.median(writes), "ms"),
        "write_ms.p90": _metric(_percentile(writes, 90), "ms"),
        "ops_per_s": _metric(1e3 / log.mean_op_ms(), "1/s"),
        "rss_peak_mb": _metric(rss, "MiB"),
    }
    failed = log.errors + mismatched
    detail = {
        "reads": len(log.reads),
        "writes": len(log.writes),
        "blocks": len(log.intervals),
        "all_read_ms.p50": statistics.median(log.reads),
        "all_read_ms.p90": _percentile(log.reads, 90),
        "all_read_ms.p99": _percentile(log.reads, 99),
        "all_write_ms.p50": statistics.median(log.writes),
        "all_write_ms.p90": _percentile(log.writes, 90),
        "all_write_ms.p99": _percentile(log.writes, 99),
        "all_ops_per_s": log.ops / log.elapsed,
        "setups_s": setups.slices,
        "errors": log.errors,
        "checked": checked,
        "mismatched": mismatched,
        "failed_frac": failed / max(log.ops, 1),
    }
    if workload.name == "datalog_tc":
        detail["fixpoint_ms.p50"] = metrics["read_ms.p50"]["value"]
        detail["fixpoint_ms.p90"] = metrics["read_ms.p90"]["value"]
    return metrics, detail, (log.ops, failed, mismatched == 0 and log.errors == 0)


def _pass(workload, steps: int, mode: "str | None"):
    """One fixed-length pass on a fresh set-up.

    Returns ``(log, counters before, counters after, data, state)``.

    ``mode`` is ``None`` (untraced), ``"spans"`` or ``"profile"``.  An
    in-process workload is instrumented here; the served one by its
    launcher, whose output ``stop`` returns.  A workload that resets
    between steps does it inside ``state["pause"]()``, which a profiled
    pass makes stop the profiler.
    """
    state = workload.setup(mode if not workload.in_process else None)
    data = None
    try:
        before = workload.counters(state)
        tracer = profile = None
        if workload.in_process and mode == "spans":
            tracer = Tracer().install()
        elif workload.in_process and mode == "profile":
            profile = cProfile.Profile()

            @contextlib.contextmanager
            def paused():
                profile.disable()
                try:
                    yield
                finally:
                    profile.enable()

            state["pause"] = paused
            profile.enable()
        try:
            log = workload.run(state, steps=steps)
        finally:
            if tracer is not None:
                tracer.uninstall()
                data = tracer.dump()
            if profile is not None:
                profile.disable()
                data = package_self_seconds(profile)
        after = workload.counters(state)
    finally:
        served = workload.stop(state)
    if served is not None:
        data = served
    return log, before, after, data, state


def per_layer(workload, seconds: float) -> tuple[dict, dict, tuple]:
    steps = max(2, round(workload.steps_per_second * seconds))
    if workload.in_process:
        # The engine's condition caches are process-wide: warm them, so
        # the untraced and the traced pass both run warm.
        _pass(workload, max(2, steps // 2), None)
    plain, _, _, _, plain_state = _pass(workload, steps, None)
    traced, before, after, dump, traced_state = _pass(workload, steps, "spans")
    # cProfile slows Python 3-5x; half the steps give a stable profile.
    profiled, _, _, package_seconds, _ = _pass(workload, max(2, steps // 2), "profile")

    summary = summarize(dump, traced.intervals)
    stages, layers, counts = summary["stages"], summary["layers"], summary["counts"]
    ops = traced.ops

    def per_op_ms(seconds_total: float) -> float:
        return 1e3 * seconds_total / ops

    def delta(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    def share(part: int, rest: int) -> float:
        return part / (part + rest) if part + rest else 0.0

    metrics = {}
    if workload.in_process:
        http_ms = 0.0
    else:
        server_side = sum(stages.get(s, 0.0) for s in ("dispatch", "apply", "serialize"))
        client_ms = sum(traced.reads) + sum(traced.writes)
        http_ms = (client_ms - 1e3 * server_side) / ops
    metrics["http.ms"] = _metric(http_ms, "ms")
    for name, stage in STAGE_METRICS.items():
        metrics[name] = _metric(per_op_ms(stages.get(stage, 0.0)), "ms")
    metrics["cache.hit_share"] = _metric(share(delta("cache_hits"), delta("cache_misses")), "ratio")
    metrics["response.bytes"] = _metric(
        traced.response_bytes / len(traced.reads) if traced.response_bytes else 0.0, "bytes"
    )
    metrics["stats.collections"] = _metric(delta("table_collections"), "count")
    metrics["execute.join.rows_out"] = _metric(counts.get("execute.join.rows_out", 0), "count")
    metrics["views.delta_share"] = _metric(
        share(delta("delta_nodes"), delta("recomputed_nodes")), "ratio"
    )
    metrics["views.partition_reuse_share"] = _metric(
        share(delta("partition_reuses"), delta("partition_builds")), "ratio"
    )
    evaluations = counts.get("fixpoint.evaluations", 0)
    round_count = counts.get("fixpoint.round_count", 0)
    metrics["fixpoint.rounds"] = _metric(
        counts.get("fixpoint.rounds", 0) / evaluations if evaluations else 0.0, "count"
    )
    metrics["fixpoint.rows"] = _metric(
        counts.get("fixpoint.rows", 0) / evaluations if evaluations else 0.0, "count"
    )
    metrics["fixpoint.round.ms"] = _metric(
        counts.get("fixpoint.round_ms", 0.0) / round_count if round_count else 0.0, "ms"
    )
    metrics["fixpoint.subsume.calls"] = _metric(counts.get("fixpoint.subsume.calls", 0), "count")
    for package in PROFILE_PACKAGES:
        metrics[f"self_ms.{package}"] = _metric(
            1e3 * package_seconds.get(package, 0.0) / profiled.ops, "ms"
        )
    for layer in SPAN_LAYERS:
        metrics[f"layer_self_ms.{layer}"] = _metric(per_op_ms(layers.get(layer, 0.0)), "ms")
    metrics["trace.overhead_share"] = _metric(
        traced.mean_op_ms() / plain.mean_op_ms() - 1.0, "ratio"
    )

    failed = attempted = 0
    for log, state in ((plain, plain_state), (traced, traced_state)):
        _checked, mismatched = workload.check(state, log)
        failed += log.errors + mismatched
        attempted += log.ops
    failed += profiled.errors
    attempted += profiled.ops
    detail = {
        "steps_per_pass": steps,
        "ops_per_pass": ops,
        "untraced_op_ms": plain.mean_op_ms(),
        "traced_op_ms": traced.mean_op_ms(),
        "profiled_op_ms": profiled.mean_op_ms(),
        "spans": len(dump["spans"]),
        "hooks_missing": dump["missing"],
        "profile_other_ms": 1e3 * package_seconds.get("other", 0.0) / profiled.ops,
    }
    return metrics, detail, (attempted, failed, failed == 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order feeds row order, plan tie-breaks and the
        # fixpoint's subsumption order: fix it so counts repeat exactly.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    # Unwind on SIGTERM too, so that ``finally`` stops a served engine.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT, WORK)
    measure = per_layer if args.trace else end_to_end
    metrics, detail, (attempted, failed, correct) = measure(workload, args.seconds)
    print(json.dumps({"provenance": provenance(args, workload), "detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
