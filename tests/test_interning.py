"""Hash-consed conjunctions and the per-node condition memos.

Every memo in :mod:`repro.core.conditions` is derived data: a
conjunction's satisfiability verdict lives on its interned instance and
a boolean tree's ``trivially_false`` is computed when the node is built.
Each must equal what a fresh computation returns, including after
substitution and negation reshape a condition into one already seen (or
not).  ``solve()`` is the memo-free cross-check for satisfiability (it
re-runs congruence closure every call); DNF emptiness cross-checks the
trivially-false flag.
"""

from __future__ import annotations

import gc
import random

from repro.core.conditions import (
    BOOL_FALSE,
    BOOL_TRUE,
    BoolAnd,
    BoolAtom,
    BoolOr,
    Conjunction,
    Eq,
    Neq,
    _INTERNED,
)
from repro.core.terms import Constant, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")


def _random_conjunction(rng: random.Random) -> Conjunction:
    terms = [x, y, z, Constant(0), Constant(1), Constant(2)]
    atoms = []
    for _ in range(rng.randint(0, 4)):
        cls = Eq if rng.random() < 0.5 else Neq
        atoms.append(cls(rng.choice(terms), rng.choice(terms)))
    return Conjunction(atoms)


class TestSatisfiabilityCache:
    def test_cached_verdict_matches_fresh_computation(self):
        rng = random.Random(0x5A7)
        for _ in range(300):
            conj = _random_conjunction(rng)
            cached = conj.is_satisfiable()
            # solve() re-derives the closure on every call (no memo): the
            # two must agree, and a repeat lookup must not flip the verdict.
            assert cached == (conj.solve() is not None)
            assert conj.is_satisfiable() == cached

    def test_consistency_under_substitution(self):
        rng = random.Random(0xBEE)
        values = [Constant(0), Constant(1), x, y]
        for _ in range(200):
            conj = _random_conjunction(rng)
            conj.is_satisfiable()  # memoise the original's verdict
            mapping = {v: rng.choice(values) for v in (x, y, z)}
            substituted = conj.substitute(mapping)
            assert substituted.is_satisfiable() == (substituted.solve() is not None)

    def test_consistency_under_negation(self):
        rng = random.Random(0xD1CE)
        for _ in range(200):
            conj = _random_conjunction(rng)
            conj.is_satisfiable()
            for atom in conj.atoms:
                flipped = Conjunction(
                    [a for a in conj.atoms if a != atom] + [atom.negated()]
                )
                assert flipped.is_satisfiable() == (flipped.solve() is not None)

    def test_unsatisfiable_conjunction_stays_unsatisfiable(self):
        conj = Conjunction([Eq(x, 0), Eq(x, 1)])
        assert not conj.is_satisfiable()
        assert not conj.is_satisfiable()
        assert not Conjunction([Eq(x, 0), Eq(x, 1)]).is_satisfiable()


class TestInterning:
    def test_interning_is_idempotent_and_canonical(self):
        atoms = [Eq(x, 1), Neq(y, 2)]
        a = Conjunction(atoms)
        assert Conjunction(reversed(atoms)) is a  # same canonical atom tuple
        assert Conjunction(a.atoms) is a
        assert a.and_also(Conjunction([Eq(x, 1)])) is a

    def test_interned_instance_is_semantically_identical(self):
        a = Conjunction([Eq(x, 1)])
        canon = Conjunction([Eq(x, 1)])
        assert canon == a
        assert canon.is_satisfiable() == a.is_satisfiable()

    def test_payload_type_separates_instances(self):
        # 1 == True in Python, but Constant(1) != Constant(True).
        one = Conjunction([Eq(x, 1)])
        true = Conjunction([Eq(x, True)])
        assert one is not true
        assert one != true
        assert Conjunction([Eq(x, True)]) is true

    def test_unreferenced_conjunction_leaves_the_table(self):
        probe = Variable("interning_probe")
        conj = Conjunction([Eq(probe, 12345), Neq(probe, 0)])
        key = conj.atoms
        assert _INTERNED.get(key) is conj
        del conj
        gc.collect()
        assert key not in _INTERNED
        # One-shot conjunctions never accumulate: the table holds only
        # what something still references.
        before = len(_INTERNED)
        for i in range(5000):
            Conjunction([Eq(probe, i), Neq(probe, i + 1)]).is_satisfiable()
        gc.collect()
        assert len(_INTERNED) <= before


class TestTriviallyFalseCache:
    def test_sound_against_dnf(self):
        rng = random.Random(0xFA15E)
        terms = [x, y, Constant(0), Constant(1)]
        for _ in range(200):
            atoms = [
                BoolAtom((Eq if rng.random() < 0.5 else Neq)(rng.choice(terms), rng.choice(terms)))
                for _ in range(rng.randint(1, 3))
            ]
            tree = (BoolAnd if rng.random() < 0.5 else BoolOr)(tuple(atoms))
            if tree.trivially_false:
                # Trivially false must imply genuinely unsatisfiable.
                assert tree.to_dnf() == ()
            # A rebuilt equal tree carries the same verdict.
            assert type(tree)(tree.children).trivially_false == tree.trivially_false

    def test_constants(self):
        assert not BOOL_TRUE.trivially_false
        assert BOOL_FALSE.trivially_false

    def test_structural_cases(self):
        false_atom = BoolAtom(Neq(x, x))
        true_atom = BoolAtom(Eq(x, x))
        assert false_atom.trivially_false
        assert not true_atom.trivially_false
        assert BoolAnd((true_atom, false_atom)).trivially_false
        assert not BoolOr((true_atom, false_atom)).trivially_false
        assert BoolOr((false_atom, false_atom)).trivially_false

    def test_negation_consistency(self):
        # not(trivially false atom) is trivially true, never trivially false.
        atom = BoolAtom(Neq(x, x))
        assert atom.trivially_false
        assert not atom.negated().trivially_false
