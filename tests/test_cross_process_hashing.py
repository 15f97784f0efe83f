"""Hashes and interning across a process boundary.

Terms and conditions memoise their hash at construction, and
conjunctions are hash-consed.  The worker pool ships snapshots to
spawned children, which draw their own string-hash seed, so a value that
carried its parent's memoised hash into the child would compare equal
to a freshly built twin there yet not be found in a set of them.  Every
value class therefore pickles back through its constructor.

A table's statistics memo (:meth:`~repro.core.tables.CTable.stats`)
pickles with the table, so a worker plans from the parent's collection
without redoing it; its most-common-value maps are keyed by constants
and must still be found by freshly built ones in the child.  Its join
partition memo (:meth:`~repro.core.tables.CTable.join_partition`) does
not pickle: the child rebuilds it from the rows it received.

Rows memoise their hash too, including the operator outputs built by
``Row._trusted``; they pickle through a reconstructor that recomputes it.

The children below run under an explicit ``PYTHONHASHSEED`` that differs
from the parent's.  A child that inherited the parent's seed (as it does
when the seed is pinned in the environment) recomputes the very same
hashes and hides the bug.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.conditions import BoolAnd, BoolAtom, BoolOr, Conjunction, Eq, Neq
from repro.core.tables import CTable, Row
from repro.core.terms import Constant, Variable
from repro.ctalgebra.operators import join_ct

_CHILD = """
import json, pickle, sys
sys.path[:0] = [{src!r}, {tests!r}]
from repro.core.conditions import Conjunction
from test_cross_process_hashing import build_values

shipped = pickle.loads(sys.stdin.buffer.read())
fresh = build_values()
checks = {{
    name: {{
        "equal": value == fresh[name],
        "same_hash": hash(value) == hash(fresh[name]),
        "in_set": value in {{fresh[name]}},
    }}
    for name, value in shipped.items()
}}
conj = shipped["Conjunction"]
interned = {{
    "Conjunction": conj is fresh["Conjunction"] and conj is Conjunction(conj.atoms),
    "CTable.global_condition": shipped["CTable"].global_condition is conj,
}}
print(json.dumps({{"probe": hash("probe"), "checks": checks, "interned": interned}}))
"""


_STATS_CHILD = """
import json, pickle, sys
sys.path[:0] = [{src!r}]
from repro.core.tables import TableDatabase
from repro.core.terms import Constant
from repro.relational.stats import Statistics, TableStats

collect = TableStats.from_rows
calls = []

def counting(*args, **kwargs):
    calls.append(args[0])
    return collect(*args, **kwargs)

TableStats.from_rows = staticmethod(counting)
table = pickle.loads(sys.stdin.buffer.read())
stats = Statistics.collect(TableDatabase([table])).get(table.name)
fractions = {{
    f"{{i}}:{{value!r}}": column.hist.eq_fraction(Constant(value))
    for i, column in enumerate(stats.columns)
    for value in json.loads(sys.argv[1])[i]
}}
fresh = collect(table.name, table.arity, table.rows, table.global_condition)
print(json.dumps({{
    "probe": hash("probe"),
    "calls": calls,
    "fractions": fractions,
    "json": stats.to_json(),
    "matches_fresh": stats.to_json() == fresh.to_json(),
}}))
"""


_PARTITION_CHILD = """
import json, pickle, sys
sys.path[:0] = [{src!r}, {tests!r}]
from repro.ctalgebra.operators import join_ct
from test_cross_process_hashing import partition_tables

shipped = pickle.loads(sys.stdin.buffer.read())
memo_shipped = hasattr(shipped, "_partitions")
fact, dim = partition_tables()
joined = join_ct(shipped, dim, [(0, 0)])
part, fresh = shipped.join_partition((0,)), fact.join_partition((0,))
print(json.dumps({{
    "probe": hash("probe"),
    "memo_shipped": memo_shipped,
    "rows_equal": joined.rows == join_ct(fact, dim, [(0, 0)]).rows,
    "buckets_equal": part.buckets == fresh.buckets,
    "keys_found": all(key in part.buckets for key in fresh.buckets),
    "wild_equal": part.wild == fresh.wild and part.alive == fresh.alive,
}}))
"""


def partition_tables() -> tuple:
    """A fact table (string and int keys, a wild row, a local condition)
    and a dimension table to join it with on column 0."""
    x = Variable("x")
    fact = CTable(
        "F",
        2,
        [("k1", 1), ("k2", 2), (3, "v"), Row((x, 4), Conjunction([Neq(x, "k1")])), ("k1", 5)],
    )
    dim = CTable("D", 2, [("k1", "a"), ("k2", "b"), (3, "c")])
    return fact, dim


def build_values() -> dict:
    """One value of every shipped class, built the same way in each process."""
    x, y = Variable("x"), Variable("y")
    conj = Conjunction([Eq(x, "a"), Neq(y, 2)])
    both = BoolAnd((BoolAtom(Eq(x, 1)), BoolAtom(Neq(x, y))))
    either = BoolOr((both, BoolAtom(Eq(y, "b"))))
    # An operator output: built by Row._trusted under a BoolAnd of the
    # two inputs' conditions.
    joined = join_ct(
        CTable("L", 2, [Row((x, 1), BoolAtom(Neq(x, 2)))]),
        CTable("R", 2, [Row((1, y), BoolAtom(Eq(y, "b")))]),
        [(1, 0)],
    ).rows[0]
    return {
        "Constant(int)": Constant(7),
        "Constant(str)": Constant("seven"),
        "Variable": x,
        "Eq": Eq(x, "a"),
        "Neq": Neq(x, y),
        "Conjunction": conj,
        "BoolAtom": BoolAtom(Neq(y, "c")),
        "BoolAnd": both,
        "BoolOr": either,
        "Row": Row((x, "a"), either),
        "Row(join_ct)": joined,
        "CTable": CTable("R", 2, [Row((x, "a"), both), Row(("b", y))], conj),
    }


def _other_seed() -> str:
    parent = os.environ.get("PYTHONHASHSEED", "")
    return str((int(parent) + 1) % 2**32) if parent.isdigit() else "20061"


def _run_child(code: str, payload, *args) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=_other_seed())
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        input=pickle.dumps(payload),
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


def test_values_rehash_and_reintern_in_a_child_with_another_seed():
    code = _CHILD.format(
        src=str(Path(repro.__file__).resolve().parents[1]),
        tests=str(Path(__file__).resolve().parent),
    )
    report = _run_child(code, build_values())
    # The test means something only if the child really hashes differently.
    assert report["probe"] != hash("probe")
    for name, checks in report["checks"].items():
        assert checks == {"equal": True, "same_hash": True, "in_set": True}, name
    assert report["interned"] == {"Conjunction": True, "CTable.global_condition": True}


def test_operator_output_row_is_a_trusted_row_under_a_conjunction():
    row = build_values()["Row(join_ct)"]
    assert isinstance(row.condition, BoolAnd)
    assert row == Row(row.terms, row.condition)
    assert hash(row) == hash(Row(row.terms, row.condition))


def test_join_partition_memo_stays_home_and_is_rebuilt():
    fact, dim = partition_tables()
    bare = pickle.dumps(fact)
    join_ct(fact, dim, [(0, 0)])  # fills both tables' memos
    assert fact.join_partition((0,)) is fact.join_partition((0,))
    assert pickle.dumps(fact) == bare  # the memo adds nothing to the pickle
    code = _PARTITION_CHILD.format(
        src=str(Path(repro.__file__).resolve().parents[1]),
        tests=str(Path(__file__).resolve().parent),
    )
    report = _run_child(code, fact)
    assert report.pop("probe") != hash("probe")
    assert report == {
        "memo_shipped": False,
        "rows_equal": True,
        "buckets_equal": True,
        "keys_found": True,
        "wild_equal": True,
    }


def test_statistics_memo_ships_with_the_table():
    x = Variable("x")
    rows = [(f"v{i}", i % 3) for i in range(12)]
    rows += [("hot", 7), ("hot", 8), ("hot", 9), ("warm", 7), ("warm", 8)]
    rows += [Row((x, 5), Conjunction([Eq(x, "hot")]))]
    table = CTable("R", 2, rows)
    stats = table.stats()
    mcvs = [sorted(column.hist.mcvs, key=Constant.sort_key) for column in stats.columns]
    assert all(mcvs), "every column needs most-common values for the test to bite"
    values = [[constant.value for constant in column] for column in mcvs]
    code = _STATS_CHILD.format(src=str(Path(repro.__file__).resolve().parents[1]))
    report = _run_child(code, table, json.dumps(values))
    assert report["probe"] != hash("probe")
    assert report["calls"] == []  # the child read the shipped memo
    assert report["fractions"] == {
        f"{i}:{value!r}": stats.columns[i].hist.eq_fraction(Constant(value))
        for i, column in enumerate(values)
        for value in column
    }
    assert report["json"] == stats.to_json()
    assert report["matches_fresh"]
