"""Hashes and interning across a process boundary.

Terms and conditions memoise their hash at construction, and
conjunctions are hash-consed.  The worker pool ships snapshots to
spawned children, which draw their own string-hash seed, so a value that
carried its parent's memoised hash into the child would compare equal
to a freshly built twin there yet not be found in a set of them.  Every
value class therefore pickles back through its constructor.

The child below runs under an explicit ``PYTHONHASHSEED`` that differs
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


def build_values() -> dict:
    """One value of every shipped class, built the same way in each process."""
    x, y = Variable("x"), Variable("y")
    conj = Conjunction([Eq(x, "a"), Neq(y, 2)])
    both = BoolAnd((BoolAtom(Eq(x, 1)), BoolAtom(Neq(x, y))))
    either = BoolOr((both, BoolAtom(Eq(y, "b"))))
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
        "CTable": CTable("R", 2, [Row((x, "a"), both), Row(("b", y))], conj),
    }


def _other_seed() -> str:
    parent = os.environ.get("PYTHONHASHSEED", "")
    return str((int(parent) + 1) % 2**32) if parent.isdigit() else "20061"


def test_values_rehash_and_reintern_in_a_child_with_another_seed():
    env = dict(os.environ, PYTHONHASHSEED=_other_seed())
    code = _CHILD.format(
        src=str(Path(repro.__file__).resolve().parents[1]),
        tests=str(Path(__file__).resolve().parent),
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps(build_values()),
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    report = json.loads(done.stdout)
    # The test means something only if the child really hashes differently.
    assert report["probe"] != hash("probe")
    for name, checks in report["checks"].items():
        assert checks == {"equal": True, "same_hash": True, "in_set": True}, name
    assert report["interned"] == {"Conjunction": True, "CTable.global_condition": True}
