"""The DP join orderer's plans and explain lines, pinned byte for byte.

The Selinger loop costs each candidate split by its row count alone
(:func:`~repro.relational.stats.join_rows`) and builds estimates,
offsets, trees and labels only for winners.  That is meant to change
nothing but speed, so this module pins, for every case of the planner
tests' corpus (the plan-equivalence harness's random join graphs, each
over a ground and a variable-bearing database, plus the DP benchmark's
star and snowflake), the explain lines and a digest of the chosen plan
as the orderer produced them before that change, which built every
candidate in full.  Ties between equally cheap splits are frequent on
the small random tables, so the strict ``<`` tie-break is pinned too.

A deliberate change to the cost model or the DP regenerates the file::

    PYTHONPATH=src python tests/test_dp_explain_golden.py > tests/data/dp_explain.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.relational import Statistics, plan, plan_fingerprint
from repro.workloads import (
    random_join_query,
    random_nway_join_database,
    snowflake_join_database,
    snowflake_join_expression,
    star_join_database,
    star_join_expression,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "dp_explain.json"


def corpus():
    """``(key, expression, database)`` for every pinned case."""
    # The plan-equivalence harness's cases, drawn in its order.
    cases = [(n, seed) for n in (3, 4, 5) for seed in range(40)]
    cases += [(6, seed) for seed in range(15)]
    for n, seed in cases:
        rng = random.Random(0x0D0E + 1009 * n + seed)
        expr = random_join_query(rng, n)
        yield f"random:{n}:{seed}:ground", expr, random_nway_join_database(
            rng, n, rows_per_table=2
        )
        yield f"random:{n}:{seed}:wild", expr, random_nway_join_database(
            rng, n, rows_per_table=2, var_probability=0.3, local_probability=0.3
        )
    # The DP benchmark's star sizes and snowflakes (histograms with MCVs).
    for dim_rows, fact_rows in ((6, 64), (8, 64), (8, 256), (12, 256)):
        rng = random.Random(0xAB1987)
        db = star_join_database(rng, num_dims=4, dim_rows=dim_rows, fact_rows=fact_rows)
        yield f"star:4:{dim_rows}:{fact_rows}", star_join_expression(4), db
    for rows in (100, 200):
        rng = random.Random(0xAB1987)
        db = snowflake_join_database(
            rng, fact_rows=rows, dim_rows=rows, filter_rows=rows // 2
        )
        yield f"snowflake:{rows}", snowflake_join_expression(), db


def observe(expression, db) -> dict:
    explain: list[str] = []
    planned = plan(expression, stats=Statistics.collect(db), explain=explain)
    digest = hashlib.sha256(plan_fingerprint(planned).encode("utf-8")).hexdigest()
    return {"explain": explain, "plan_sha256": digest[:16]}


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


CASES = [pytest.param(key, expression, db, id=key) for key, expression, db in corpus()]


def test_corpus_is_pinned_whole():
    assert sorted(case.values[0] for case in CASES) == sorted(_golden())


@pytest.mark.parametrize("key,expression,db", CASES)
def test_dp_plan_and_explain_lines_are_pinned(key, expression, db):
    assert observe(expression, db) == _golden()[key]


if __name__ == "__main__":
    json.dump(
        {key: observe(expression, db) for key, expression, db in corpus()},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
