"""Reference (oracle) implementations the efficient code is tested against.

The decision-problem oracles decide each problem straight from the
enumeration semantics of :mod:`repro.core.worlds`; the pairwise set
operators are the O(|L| x |R|) originals of the hash-partitioned
``intersect_ct`` / ``difference_ct``.  They live in a proper module
(rather than ``conftest.py``) so that test modules can import them by
name without colliding with the benchmark suite's own ``conftest``.
"""

from __future__ import annotations

from repro.core.conditions import BOOL_TRUE, BoolCondition, BoolOr, conjoin
from repro.core.tables import CTable, TableDatabase
from repro.core.worlds import iter_worlds
from repro.ctalgebra.operators import _match_condition, _with_condition
from repro.relational.instance import Instance

__all__ = [
    "oracle_member",
    "oracle_unique",
    "oracle_contains",
    "oracle_possible",
    "oracle_certain",
    "intersect_ct_pairwise",
    "difference_ct_pairwise",
]


def oracle_member(instance: Instance, db: TableDatabase, query=None) -> bool:
    """MEMB by world enumeration."""
    return any(
        world == instance
        for world in iter_worlds(db, query, extra_constants=instance.constants())
    )


def oracle_unique(instance: Instance, db: TableDatabase, query=None) -> bool:
    """UNIQ by world enumeration."""
    worlds = set(iter_worlds(db, query, extra_constants=instance.constants()))
    return worlds == {instance}


def oracle_contains(db0, db, query0=None, query=None) -> bool:
    """CONT by nested world enumeration."""
    extra = set(db.constants()) | set(db0.constants())
    if query is not None:
        extra |= query.constants()
    if query0 is not None:
        extra |= query0.constants()
    right = set(iter_worlds(db, query, extra_constants=extra))
    return all(
        world in right for world in iter_worlds(db0, query0, extra_constants=extra)
    )


def oracle_possible(facts: Instance, db: TableDatabase, query=None) -> bool:
    """POSS by world enumeration."""
    for world in iter_worlds(db, query, extra_constants=facts.constants()):
        if _facts_in(facts, world):
            return True
    return False


def oracle_certain(facts: Instance, db: TableDatabase, query=None) -> bool:
    """CERT by world enumeration."""
    return all(
        _facts_in(facts, world)
        for world in iter_worlds(db, query, extra_constants=facts.constants())
    )


def _facts_in(facts: Instance, world: Instance) -> bool:
    for name in facts.names():
        wanted = facts[name].facts
        if not wanted:
            continue
        if name not in world or not wanted <= world[name].facts:
            return False
    return True


def intersect_ct_pairwise(left: CTable, right: CTable, name: str = "intersect") -> CTable:
    """The pairwise O(|L| x |R|) intersection: the differential oracle for
    ``intersect_ct`` (see ``tests/test_setops_partition.py``)."""
    if left.arity != right.arity:
        raise ValueError(f"arity mismatch: {left.arity} vs {right.arity}")
    rows = []
    for lrow in left.rows:
        matches = [
            cond
            for rrow in right.rows
            if (cond := _match_condition(lrow, rrow)) is not None
        ]
        if not matches:
            continue
        disjunction: BoolCondition = (
            matches[0] if len(matches) == 1 else BoolOr(tuple(matches)).flattened()
        )
        built = _with_condition(lrow.terms, [lrow.condition, disjunction])
        if built is not None:
            rows.append(built)
    return CTable(
        name,
        left.arity,
        rows,
        conjoin(left.global_condition, right.global_condition),
    )


def difference_ct_pairwise(left: CTable, right: CTable, name: str = "difference") -> CTable:
    """The pairwise O(|L| x |R|) difference: the differential oracle for
    ``difference_ct``."""
    if left.arity != right.arity:
        raise ValueError(f"arity mismatch: {left.arity} vs {right.arity}")
    rows = []
    for lrow in left.rows:
        parts: list[BoolCondition] = [lrow.condition]
        for rrow in right.rows:
            cond = _match_condition(lrow, rrow)
            if cond is None:
                continue
            if cond == BOOL_TRUE:
                parts = None  # type: ignore[assignment]
                break
            parts.append(cond.negated())
        if parts is None:
            continue
        built = _with_condition(lrow.terms, parts)
        if built is not None:
            rows.append(built)
    return CTable(
        name,
        left.arity,
        rows,
        conjoin(left.global_condition, right.global_condition),
    )
