"""Reference (oracle) implementations the efficient code is tested against.

The decision-problem oracles decide each problem straight from the
enumeration semantics of :mod:`repro.core.worlds`; the pairwise set
operators are the O(|L| x |R|) originals of the hash-partitioned
``intersect_ct`` / ``difference_ct``; ``select_ct_atoms`` and
``join_ct_pairwise`` decide every predicate and join column through its
condition atom, the reference for the constant fast paths of
``select_ct`` and ``join_ct``.  They live in a proper module
(rather than ``conftest.py``) so that test modules can import them by
name without colliding with the benchmark suite's own ``conftest``.
"""

from __future__ import annotations

from repro.core.conditions import BOOL_TRUE, BoolAtom, BoolCondition, BoolOr, Eq
from repro.core.tables import CTable, TableDatabase
from repro.core.worlds import iter_worlds
from repro.ctalgebra.operators import _match_condition, _predicate_atom, _with_condition
from repro.relational.instance import Instance

__all__ = [
    "oracle_member",
    "oracle_unique",
    "oracle_contains",
    "oracle_possible",
    "oracle_certain",
    "intersect_ct_pairwise",
    "difference_ct_pairwise",
    "select_ct_atoms",
    "join_ct_pairwise",
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
        left.global_condition.and_also(right.global_condition),
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
        left.global_condition.and_also(right.global_condition),
    )


def _atom_parts(parts: list, atoms) -> bool:
    """Append each atom that is not trivially true to ``parts``; False
    when one is trivially false."""
    for atom in atoms:
        if atom.is_trivially_false():
            return False
        if not atom.is_trivially_true():
            parts.append(BoolAtom(atom))
    return True


def select_ct_atoms(table: CTable, predicates, name: str | None = None) -> CTable:
    """``select_ct`` deciding every predicate through its condition atom,
    a column-vs-constant one on a constant cell included."""
    preds = list(predicates)
    rows = []
    for row in table.rows:
        parts: list[BoolCondition] = [row.condition]
        if not _atom_parts(parts, [_predicate_atom(p, row.terms) for p in preds]):
            continue
        built = _with_condition(row.terms, parts)
        if built is not None:
            rows.append(built)
    return CTable(name or table.name, table.arity, rows, table.global_condition)


def join_ct_pairwise(left: CTable, right: CTable, on, name: str = "join") -> CTable:
    """``join_ct`` as a loop over every live row pair, deciding each join
    column through its ``Eq`` atom, a constant-vs-constant one included.

    Its rows equal ``join_ct``'s when no condition pins a join term to a
    constant: ``join_ct`` buckets a pinned row under its pin and skips
    the pairs whose atom only that pin falsifies.
    """
    rows = []
    for lrow in left.rows:
        for rrow in right.rows:
            if lrow.condition.trivially_false or rrow.condition.trivially_false:
                continue
            parts: list[BoolCondition] = [lrow.condition, rrow.condition]
            atoms = [Eq(lrow.terms[l], rrow.terms[r]) for l, r in on]
            if not _atom_parts(parts, atoms):
                continue
            built = _with_condition(lrow.terms + rrow.terms, parts)
            if built is not None:
                rows.append(built)
    return CTable(
        name,
        left.arity + right.arity,
        rows,
        left.global_condition.and_also(right.global_condition),
    )
