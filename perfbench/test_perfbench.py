"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest perfbench -q

Each test runs ``run.py`` as a subprocess, as the benchmark is meant to
be run.  They take about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that are counts of work, not times: with the same
#: seed they must repeat exactly.
EXACT = (
    "stats.collections",
    "views.delta_share",
    "views.partition_reuse_share",
    "fixpoint.rounds",
    "fixpoint.rows",
    "fixpoint.subsume.calls",
    "execute.join.rows_out",
    "cache.hit_share",
    "response.bytes",
)

#: Per-layer metrics that must read above 0 on a workload, because the
#: layer they measure runs there.  A hook a refactor renamed away, or an
#: observer that counts nothing, reads 0 and fails here.
MOVES = {
    "star_http": (
        "http.ms", "dispatch.ms", "apply.ms", "serialize.ms", "compile.ms", "plan.ms",
        "stats.ms", "execute.join.ms", "cache.hit_share", "response.bytes",
        "stats.collections", "execute.join.rows_out", "self_ms.core", "self_ms.server",
    ),
    "views_churn": (
        "apply.ms", "fingerprint.ms", "views.maintain.ms", "stats.collections",
        "views.delta_share", "execute.join.rows_out", "self_ms.views",
    ),
    "datalog_tc": (
        "compile.ms", "execute.join.ms", "execute.join.rows_out", "fixpoint.rounds",
        "fixpoint.rows", "fixpoint.round.ms", "fixpoint.subsume.ms",
        "fixpoint.subsume.calls", "self_ms.core", "self_ms.queries",
    ),
}


def _run(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out


def _result(out) -> dict:
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_result_matches_the_contract(workload):
    result = _result(_run(workload, seed=11, seconds=2, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    outs = [_run(workload, seed=5, seconds=2, trace=1) for _ in range(2)]
    first, second = (_result(out) for out in outs)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == expected
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    detail = json.loads(outs[0].stdout.strip().splitlines()[-2])["detail"]
    assert detail["hooks_missing"] == []
    for name in MOVES[workload]:
        assert first["metrics"][name]["value"] > 0, name


def test_provenance_names_the_inputs():
    out = _run("datalog_tc", seed=3, seconds=1, trace=0)
    _result(out)
    provenance = json.loads(out.stdout.strip().splitlines()[-2])["provenance"]
    assert provenance["seed"] == 3
    assert provenance["sizes"]["layers"] == 8
    for key in ("src_sha256", "python", "nproc"):
        assert provenance[key]


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], seed=1, seconds=1, trace=0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
