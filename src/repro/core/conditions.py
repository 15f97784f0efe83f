"""Equality / inequality conditions over terms.

The paper (Section 2.2) defines a *condition* as a conjunct of equality
atoms ``x = y`` / ``x = c`` and inequality atoms ``x != y`` / ``x != c``.
Conditions appear in two places:

* the **global condition** of a g-/c-table, constraining every valuation;
* the **local condition** attached to each tuple of a c-table, deciding
  whether the instantiated tuple belongs to the world.

Plain conditions are conjunctions (:class:`Conjunction`).  Applying a
positive-existential query to a c-table produces local conditions with both
*ands* and *ors* (the paper's Theorem 3.2(2) proof, step (*)); those are
modelled by :class:`BoolCondition` trees, convertible to disjunctive normal
form, each disjunct again a :class:`Conjunction`.

Satisfiability over the countably infinite constant domain is decidable in
polynomial time by congruence closure: union the equality atoms, fail if a
class contains two distinct constants or an inequality atom connects a class
to itself.  Because the domain is infinite, any family of pairwise
distinctness requirements on the remaining classes is realisable, so no
further checking is needed.
"""

from __future__ import annotations

import weakref

from typing import Iterable, Iterator, Mapping, Sequence

from .terms import Constant, Term, TermLike, Variable, as_term

__all__ = [
    "Atom",
    "Eq",
    "Neq",
    "Conjunction",
    "TRUE",
    "FALSE",
    "BoolCondition",
    "BoolAtom",
    "BoolAnd",
    "BoolOr",
    "BOOL_TRUE",
    "BOOL_FALSE",
    "UnionFind",
    "parse_atom",
    "parse_conjunction",
]


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


class Atom:
    """An equality or inequality between two terms.

    Atoms are canonicalised: the two sides are stored in sorted order, so
    ``Eq(x, y) == Eq(y, x)``.
    """

    __slots__ = ("left", "right", "_hash")

    #: Overridden by subclasses: the comparison symbol.
    symbol = "?"

    def __init__(self, left: TermLike, right: TermLike) -> None:
        a, b = as_term(left), as_term(right)
        if b.sort_key() < a.sort_key():
            a, b = b, a
        object.__setattr__(self, "left", a)
        object.__setattr__(self, "right", b)
        object.__setattr__(self, "_hash", hash((type(self).__name__, a, b)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.left, self.right))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            type(self) is type(other)
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"

    def __str__(self) -> str:
        left, right = self.left, self.right
        if isinstance(left, Constant) and isinstance(right, Variable):
            # Storage is canonically sorted (constants first); display reads
            # better variable-first, matching the paper's figures.
            left, right = right, left
        return f"{left} {self.symbol} {right}"

    def sort_key(self) -> tuple:
        return (self.symbol, self.left.sort_key(), self.right.sort_key())

    # -- structure ----------------------------------------------------------

    def terms(self) -> tuple[Term, Term]:
        return (self.left, self.right)

    def variables(self) -> set[Variable]:
        return {t for t in self.terms() if isinstance(t, Variable)}

    def constants(self) -> set[Constant]:
        return {t for t in self.terms() if isinstance(t, Constant)}

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Apply a substitution (variables to terms) to both sides."""
        left = mapping.get(self.left, self.left)
        right = mapping.get(self.right, self.right)
        return type(self)(left, right)

    # -- semantics ----------------------------------------------------------

    def is_trivially_true(self) -> bool:
        raise NotImplementedError

    def is_trivially_false(self) -> bool:
        raise NotImplementedError

    def holds_for(self, lookup) -> bool:
        """Evaluate under ``lookup``: a callable term -> constant."""
        raise NotImplementedError

    def negated(self) -> "Atom":
        """The complementary atom (``=`` <-> ``!=``)."""
        raise NotImplementedError


class Eq(Atom):
    """Equality atom ``left = right``."""

    __slots__ = ()
    symbol = "="

    def is_trivially_true(self) -> bool:
        return self.left == self.right

    def is_trivially_false(self) -> bool:
        return (
            isinstance(self.left, Constant)
            and isinstance(self.right, Constant)
            and self.left != self.right
        )

    def holds_for(self, lookup) -> bool:
        return lookup(self.left) == lookup(self.right)

    def negated(self) -> "Neq":
        return Neq(self.left, self.right)


class Neq(Atom):
    """Inequality atom ``left != right``."""

    __slots__ = ()
    symbol = "!="

    def is_trivially_true(self) -> bool:
        return (
            isinstance(self.left, Constant)
            and isinstance(self.right, Constant)
            and self.left != self.right
        )

    def is_trivially_false(self) -> bool:
        return self.left == self.right

    def holds_for(self, lookup) -> bool:
        return lookup(self.left) != lookup(self.right)

    def negated(self) -> "Eq":
        return Eq(self.left, self.right)


# ---------------------------------------------------------------------------
# Union-find over terms
# ---------------------------------------------------------------------------


class UnionFind:
    """Union-find over terms, used for congruence closure of equalities.

    Constants never unite with distinct constants; attempting to do so marks
    the structure *inconsistent* (the conjunction is unsatisfiable).
    """

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}
        self.inconsistent = False

    def find(self, term: Term) -> Term:
        """Return the canonical representative of ``term``'s class.

        Representatives prefer constants (so a class pinned to a constant
        reports that constant), then the smallest term by sort key.
        """
        parent = self._parent
        if term not in parent:
            parent[term] = term
            return term
        root = term
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[term] != root:
            parent[term], term = root, parent[term]
        return root

    def union(self, a: Term, b: Term) -> None:
        """Merge the classes of ``a`` and ``b``."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if isinstance(ra, Constant) and isinstance(rb, Constant):
            # Two distinct constants can never be equal.
            self.inconsistent = True
            return
        # Keep the "better" representative: constants win, then sort order.
        if _prefer(rb, ra):
            ra, rb = rb, ra
        self._parent[rb] = ra

    def same(self, a: Term, b: Term) -> bool:
        return self.find(a) == self.find(b)

    def classes(self) -> dict[Term, list[Term]]:
        """Map each representative to the members of its class."""
        out: dict[Term, list[Term]] = {}
        for term in list(self._parent):
            out.setdefault(self.find(term), []).append(term)
        return out

    def substitution(self) -> dict[Variable, Term]:
        """The most-general-unifier substitution induced by the closure.

        Maps every variable seen so far to its representative (skipping
        identity entries).  Applying it to any term set "incorporates the
        equalities into the table", the paper's standard practice for
        e-tables.
        """
        subst: dict[Variable, Term] = {}
        for term in list(self._parent):
            if isinstance(term, Variable):
                rep = self.find(term)
                if rep != term:
                    subst[term] = rep
        return subst


def _prefer(a: Term, b: Term) -> bool:
    """True iff ``a`` is a better class representative than ``b``."""
    a_const = isinstance(a, Constant)
    b_const = isinstance(b, Constant)
    if a_const != b_const:
        return a_const
    return a.sort_key() < b.sort_key()


# ---------------------------------------------------------------------------
# Conjunction
# ---------------------------------------------------------------------------


#: The live conjunction per canonical atom tuple.  Weak values: an entry
#: goes when the last reference to its conjunction does, so the table
#: needs no cap.  Equality stays structural, so a lost race between two
#: threads interning the same atoms costs sharing, never correctness.
_INTERNED: "weakref.WeakValueDictionary[tuple, Conjunction]" = weakref.WeakValueDictionary()


class Conjunction:
    """A conjunction of equality/inequality atoms.

    The empty conjunction is *true* (the module constant :data:`TRUE`); the
    canonical unsatisfiable conjunction ``x != x`` is :data:`FALSE`, matching
    the paper's encoding remark in Section 2.2.

    Instances are immutable, hashable, canonically ordered and hash-consed:
    constructing the same atom set twice returns the same live instance,
    which also carries the set's satisfiability verdict once decided.
    """

    __slots__ = ("atoms", "_hash", "_sat", "__weakref__")

    def __new__(cls, atoms: Iterable[Atom] = ()) -> "Conjunction":
        unique = tuple(sorted(set(atoms), key=Atom.sort_key))
        for atom in unique:
            if not isinstance(atom, Atom):
                raise TypeError(f"not an atom: {atom!r}")
        interned = _INTERNED.get(unique)
        if interned is not None:
            return interned
        self = object.__new__(cls)
        object.__setattr__(self, "atoms", unique)
        object.__setattr__(self, "_hash", hash(("Conjunction", unique)))
        object.__setattr__(self, "_sat", None)
        return _INTERNED.setdefault(unique, self)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Conjunction is immutable")

    def __reduce__(self):
        return (Conjunction, (self.atoms,))

    # -- container protocol --------------------------------------------------

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Conjunction)
            and self._hash == other._hash
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Conjunction([{', '.join(map(str, self.atoms))}])"

    def __str__(self) -> str:
        if not self.atoms:
            return "true"
        return " & ".join(map(str, self.atoms))

    # -- structure -----------------------------------------------------------

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for atom in self.atoms:
            out |= atom.variables()
        return out

    def constants(self) -> set[Constant]:
        out: set[Constant] = set()
        for atom in self.atoms:
            out |= atom.constants()
        return out

    def and_also(self, *others: "Conjunction | Atom") -> "Conjunction":
        """Conjoin with further conjunctions or single atoms."""
        atoms = list(self.atoms)
        for other in others:
            if isinstance(other, Atom):
                atoms.append(other)
            else:
                atoms.extend(other.atoms)
        return Conjunction(atoms)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Conjunction":
        return Conjunction(atom.substitute(mapping) for atom in self.atoms)

    def equalities(self) -> tuple[Eq, ...]:
        return tuple(a for a in self.atoms if isinstance(a, Eq))

    def inequalities(self) -> tuple[Neq, ...]:
        return tuple(a for a in self.atoms if isinstance(a, Neq))

    # -- semantics -----------------------------------------------------------

    def closure(self) -> UnionFind:
        """Congruence closure of the equality atoms."""
        uf = UnionFind()
        for atom in self.equalities():
            uf.union(atom.left, atom.right)
        return uf

    def is_satisfiable(self) -> bool:
        """Decide satisfiability over the infinite constant domain.

        Polynomial time: congruence-close the equalities; unsatisfiable iff
        that merges two distinct constants or some inequality atom has both
        sides in the same class.  The verdict is memoised on the interned
        instance, so every later check of the same atom set reads it.
        """
        verdict = self._sat
        if verdict is None:
            uf = self.closure()
            verdict = not uf.inconsistent and not any(
                uf.same(a.left, a.right) for a in self.inequalities()
            )
            object.__setattr__(self, "_sat", verdict)
        return verdict

    def solve(self) -> "tuple[dict[Variable, Term], Conjunction] | None":
        """Solve the conjunction: return ``(mgu, residual)`` or ``None``.

        ``mgu`` is the most-general-unifier substitution of the equality
        part; ``residual`` is the conjunction of the surviving non-trivial
        inequality atoms rewritten through the mgu.  ``None`` signals
        unsatisfiability.

        Incorporating the mgu into a table and keeping the residual as the
        global condition is the paper's normal form for g-tables.
        """
        uf = self.closure()
        if uf.inconsistent:
            return None
        subst = uf.substitution()
        residual: list[Atom] = []
        for atom in self.inequalities():
            rewritten = atom.substitute(subst)
            if rewritten.is_trivially_false():
                return None
            if not rewritten.is_trivially_true():
                residual.append(rewritten)
        return subst, Conjunction(residual)

    def satisfied_by(self, lookup) -> bool:
        """Evaluate under ``lookup``: a callable term -> constant."""
        return all(atom.holds_for(lookup) for atom in self.atoms)

    def implies(self, other: "Conjunction | Atom") -> bool:
        """Semantic implication over the infinite domain.

        ``self -> other`` iff ``self`` is unsatisfiable, or every atom of
        ``other`` is forced: an equality by congruence closure, an
        inequality because adding its negation makes ``self`` unsatisfiable.
        """
        if not self.is_satisfiable():
            return True
        atoms = other.atoms if isinstance(other, Conjunction) else (other,)
        uf = self.closure()
        for atom in atoms:
            if isinstance(atom, Eq):
                if not uf.same(atom.left, atom.right):
                    return False
            else:
                if self.and_also(atom.negated()).is_satisfiable():
                    return False
        return True

    def equivalent(self, other: "Conjunction") -> bool:
        """Mutual implication."""
        return self.implies(other) and other.implies(self)

    def simplified(self) -> "Conjunction":
        """Drop trivially-true atoms; collapse to FALSE when unsatisfiable."""
        if not self.is_satisfiable():
            return FALSE
        return Conjunction(a for a in self.atoms if not a.is_trivially_true())


#: The always-true condition (empty conjunction).
TRUE = Conjunction()

#: The canonical always-false condition, encoded as ``x != x`` on a reserved
#: variable, per the paper's remark that false can be encoded as an atom.
FALSE = Conjunction([Neq(Variable("@false"), Variable("@false"))])


# ---------------------------------------------------------------------------
# Boolean condition trees (for query-produced local conditions)
# ---------------------------------------------------------------------------


class BoolCondition:
    """A positive boolean combination of atoms (negation at the leaves).

    Projection and union in the c-table algebra introduce *ors* between
    local conditions; joins introduce *ands*.  Trees keep evaluation cheap;
    :meth:`to_dnf` recovers the conjunction-of-atoms form required by the
    paper's constructions (e.g. Theorem 3.2(2) step (c)).

    Each node computes its hash and :attr:`trivially_false` once, when it
    is built.  ``trivially_false`` is sound, cheap falsity detection: True
    only when the tree is unsatisfiable *for structural reasons* visible
    without solving -- a false atom, an And with a false child, an Or whose
    children are all false.  (A deeper contradiction like ``x = 1 & x = 2``
    split across atoms is left to the DNF/sat machinery.)  The c-table
    operators read it to drop dead rows.
    """

    __slots__ = ("_hash", "trivially_false")

    def to_dnf(self) -> tuple[Conjunction, ...]:
        """Disjunctive normal form: a tuple of satisfiable conjunctions.

        The empty tuple denotes *false*; a tuple containing the empty
        conjunction denotes *true*.  Unsatisfiable disjuncts are pruned and
        subsumed disjuncts removed, keeping the DNF small for the bounded
        queries the paper considers.
        """
        raise NotImplementedError

    def satisfied_by(self, lookup) -> bool:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[Variable, Term]) -> "BoolCondition":
        raise NotImplementedError

    def variables(self) -> set[Variable]:
        raise NotImplementedError

    def constants(self) -> set[Constant]:
        raise NotImplementedError

    # -- combinators ---------------------------------------------------------

    def and_(self, other: "BoolCondition") -> "BoolCondition":
        return BoolAnd((self, other)).flattened()

    def or_(self, other: "BoolCondition") -> "BoolCondition":
        return BoolOr((self, other)).flattened()

    def negated(self) -> "BoolCondition":
        """Negation in negation normal form.

        Atoms negate cleanly (``=`` <-> ``!=``), so the negation of any
        condition tree is again a condition tree.  This is what makes
        c-tables closed under set difference (the Imielinski-Lipski
        extension implemented in :mod:`repro.ctalgebra.operators`).
        """
        raise NotImplementedError

    def flattened(self) -> "BoolCondition":
        return self

    @staticmethod
    def from_conjunction(conj: Conjunction) -> "BoolCondition":
        if not conj.atoms:
            return BOOL_TRUE
        return BoolAnd(tuple(BoolAtom(a) for a in conj.atoms)).flattened()


class BoolAtom(BoolCondition):
    """A single atom leaf."""

    __slots__ = ("atom",)

    def __init__(self, atom: Atom) -> None:
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "_hash", hash(("BoolAtom", atom)))
        object.__setattr__(self, "trivially_false", atom.is_trivially_false())

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BoolAtom is immutable")

    def __reduce__(self):
        return (BoolAtom, (self.atom,))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, BoolAtom)
            and self._hash == other._hash
            and self.atom == other.atom
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return str(self.atom)

    __repr__ = __str__

    def to_dnf(self) -> tuple[Conjunction, ...]:
        if self.atom.is_trivially_false():
            return ()
        if self.atom.is_trivially_true():
            return (TRUE,)
        return (Conjunction([self.atom]),)

    def satisfied_by(self, lookup) -> bool:
        return self.atom.holds_for(lookup)

    def negated(self) -> "BoolAtom":
        return BoolAtom(self.atom.negated())

    def substitute(self, mapping) -> "BoolAtom":
        return BoolAtom(self.atom.substitute(mapping))

    def variables(self) -> set[Variable]:
        return self.atom.variables()

    def constants(self) -> set[Constant]:
        return self.atom.constants()


class _BoolNary(BoolCondition):
    """Shared machinery for n-ary And / Or nodes."""

    __slots__ = ("children",)

    #: How the children's falsity decides the node's: ``any`` for And,
    #: ``all`` for Or.
    _false_if = staticmethod(any)

    def __init__(self, children: Sequence[BoolCondition]) -> None:
        children = tuple(children)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", hash((type(self).__name__, children)))
        object.__setattr__(
            self, "trivially_false", self._false_if(c.trivially_false for c in children)
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.children,))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            type(self) is type(other)
            and self._hash == other._hash
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return self._hash

    def substitute(self, mapping) -> "BoolCondition":
        return type(self)(tuple(c.substitute(mapping) for c in self.children))

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for child in self.children:
            out |= child.variables()
        return out

    def constants(self) -> set[Constant]:
        out: set[Constant] = set()
        for child in self.children:
            out |= child.constants()
        return out

    def flattened(self) -> "BoolCondition":
        flat: list[BoolCondition] = []
        for child in self.children:
            child = child.flattened()
            if type(child) is type(self):
                flat.extend(child.children)
            else:
                flat.append(child)
        if len(flat) == 1:
            return flat[0]
        return type(self)(tuple(flat))


class BoolAnd(_BoolNary):
    """Conjunction node."""

    __slots__ = ()

    def __str__(self) -> str:
        return "(" + " & ".join(map(str, self.children)) + ")"

    __repr__ = __str__

    def to_dnf(self) -> tuple[Conjunction, ...]:
        result: list[Conjunction] = [TRUE]
        for child in self.children:
            child_dnf = child.to_dnf()
            crossed: list[Conjunction] = []
            for left in result:
                for right in child_dnf:
                    merged = left.and_also(right)
                    if merged.is_satisfiable():
                        crossed.append(merged)
            result = _prune_subsumed(crossed)
            if not result:
                return ()
        return tuple(result)

    def satisfied_by(self, lookup) -> bool:
        return all(c.satisfied_by(lookup) for c in self.children)

    def negated(self) -> "BoolCondition":
        return BoolOr(tuple(c.negated() for c in self.children))


class BoolOr(_BoolNary):
    """Disjunction node."""

    __slots__ = ()
    _false_if = staticmethod(all)

    def __str__(self) -> str:
        return "(" + " | ".join(map(str, self.children)) + ")"

    __repr__ = __str__

    def to_dnf(self) -> tuple[Conjunction, ...]:
        disjuncts: list[Conjunction] = []
        for child in self.children:
            disjuncts.extend(child.to_dnf())
        return tuple(_prune_subsumed(disjuncts))

    def satisfied_by(self, lookup) -> bool:
        return any(c.satisfied_by(lookup) for c in self.children)

    def negated(self) -> "BoolCondition":
        return BoolAnd(tuple(c.negated() for c in self.children))


def _prune_subsumed(disjuncts: list[Conjunction]) -> list[Conjunction]:
    """Remove duplicate and subsumed disjuncts (A subsumes A & B)."""
    unique: list[Conjunction] = []
    seen: set[Conjunction] = set()
    for conj in disjuncts:
        conj = conj.simplified()
        if conj == FALSE or conj in seen:
            continue
        seen.add(conj)
        unique.append(conj)
    kept: list[Conjunction] = []
    for i, conj in enumerate(unique):
        atoms = set(conj.atoms)
        subsumed = any(
            j != i and set(other.atoms) <= atoms and len(other.atoms) < len(atoms)
            for j, other in enumerate(unique)
        )
        if not subsumed:
            kept.append(conj)
    return kept


#: Boolean-tree constants.
BOOL_TRUE = BoolAnd(())
BOOL_FALSE = BoolOr(())


# ---------------------------------------------------------------------------
# A small text notation for conditions
# ---------------------------------------------------------------------------


def _parse_term(text: str) -> Term:
    """Parse a term token.

    Integers are constants; single- or double-quoted strings are string
    constants; anything else is a variable.  This matches the paper's visual
    convention where ``x, y, z`` are nulls and ``0, 1, 2`` data values.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty term")
    if (text[0] == text[-1]) and text[0] in "'\"" and len(text) >= 2:
        return Constant(text[1:-1])
    try:
        return Constant(int(text))
    except ValueError:
        return Variable(text)


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. ``"x != 0"`` or ``"y = z"``."""
    for symbol, cls in (("!=", Neq), ("≠", Neq), ("=", Eq)):
        if symbol in text:
            left, _, right = text.partition(symbol)
            return cls(_parse_term(left), _parse_term(right))
    raise ValueError(f"cannot parse atom: {text!r}")


def parse_conjunction(text: str) -> Conjunction:
    """Parse a conjunction, atoms separated by ``,`` or ``&``.

    >>> str(parse_conjunction("x != 0, y != z"))
    'x != 0 & y != z'
    """
    text = text.strip()
    if not text or text == "true":
        return TRUE
    parts = [p for chunk in text.split(",") for p in chunk.split("&")]
    return Conjunction(parse_atom(p) for p in parts if p.strip())
