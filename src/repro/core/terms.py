"""Terms: the constants and variables that populate tables.

The paper assumes a countably infinite set of *constants* and a disjoint
countably infinite set of *variables* ("nulls").  A term is either a
:class:`Constant` or a :class:`Variable`.  Rows of complete-information
relations contain only constants ("facts"); rows of tables may mix the two.

Design notes
------------
* Terms are immutable and hashable so that tuples of terms can live in sets
  and serve as dictionary keys.  Each term computes its hash once, at
  construction, and pickles back through its constructor so a process
  with a different hash seed recomputes it.
* A total order over terms is provided (constants before variables, then by
  the underlying value/name) so that canonical forms -- of conditions,
  tables, instances -- are deterministic.  Determinism matters for tests and
  reproducible benchmark workloads.
* ``Constant`` wraps an arbitrary hashable payload (typically ``int`` or
  ``str``); two constants are equal iff their payloads are equal.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Union

__all__ = [
    "Term",
    "Constant",
    "Variable",
    "TermLike",
    "as_term",
    "as_constant",
    "fresh_variables",
    "fresh_constants",
    "variables_in",
    "constants_in",
    "is_fact",
]


class Term:
    """Abstract base class for :class:`Constant` and :class:`Variable`."""

    __slots__ = ()

    #: Sort key rank; constants order before variables.
    _rank = -1

    def sort_key(self) -> tuple:
        """Return a key ordering all terms deterministically.

        Constants order before variables; within a kind, ordering is by the
        textual representation of the payload (mixing ``int`` and ``str``
        payloads is therefore safe).
        """
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)


class Constant(Term):
    """A known database constant.

    >>> Constant(3) == Constant(3)
    True
    >>> Constant(3) == Constant("3")
    False
    """

    __slots__ = ("value", "_hash")
    _rank = 0

    def __init__(self, value) -> None:
        if isinstance(value, Term):
            raise TypeError("Constant payload must be a plain value, not a Term")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("Constant", value)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Constant is immutable")

    def __reduce__(self):
        return (Constant, (self.value,))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Constant)
            and self._hash == other._hash
            and type(self.value) is type(other.value)
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)

    def sort_key(self) -> tuple:
        return (self._rank, type(self.value).__name__, str(self.value))


class Variable(Term):
    """A null: a value that is present but unknown.

    Variables are identified by name.  The paper's convention that a
    variable may appear several times (in e-tables and beyond) or at most
    once (Codd-tables) is enforced at the table level, not here.

    >>> Variable("x") == Variable("x")
    True
    """

    __slots__ = ("name", "_hash")
    _rank = 1

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise TypeError("Variable name must be a non-empty string")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Variable", name)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Variable is immutable")

    def __reduce__(self):
        return (Variable, (self.name,))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Variable)
            and self._hash == other._hash
            and self.name == other.name
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def sort_key(self) -> tuple:
        return (self._rank, "", self.name)


#: Anything acceptable where a term is expected.  Raw Python values are
#: promoted to :class:`Constant`; strings of the form ``"?name"`` are
#: promoted to :class:`Variable` for concise literal notation.
TermLike = Union[Term, int, str, float, bool]


def as_term(value: TermLike) -> Term:
    """Coerce ``value`` to a :class:`Term`.

    * ``Term`` instances pass through unchanged.
    * Strings starting with ``"?"`` become variables (``"?x"`` -> ``x``).
    * Everything else becomes a :class:`Constant`.

    >>> as_term("?x")
    Variable('x')
    >>> as_term(7)
    Constant(7)
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str) and value.startswith("?"):
        return Variable(value[1:])
    return Constant(value)


def as_constant(value) -> Constant:
    """Coerce ``value`` to a :class:`Constant`, rejecting variables."""
    term = as_term(value)
    if not isinstance(term, Constant):
        raise TypeError(f"expected a constant, got {term!r}")
    return term


def fresh_variables(prefix: str = "v", *, avoid: Iterable[Variable] = ()) -> Iterator[Variable]:
    """Yield an inexhaustible stream of variables not clashing with ``avoid``.

    Used wherever the constructions need "new" nulls, e.g. renaming the
    tables of a database apart (Section 2.2 requires the variable sets of
    the tables in a vector to be pairwise disjoint).
    """
    taken = {v.name for v in avoid}
    for i in itertools.count():
        name = f"{prefix}{i}"
        if name not in taken:
            yield Variable(name)


def fresh_constants(count: int, *, avoid: Iterable[Constant] = (), prefix: str = "@c") -> list[Constant]:
    """Return ``count`` constants distinct from each other and from ``avoid``.

    This realises the paper's |Delta'| construction (Proposition 2.1): a set
    of new constants, one per variable, sufficient to enumerate all possible
    worlds up to isomorphism.  The default prefix ``"@c"`` is chosen so the
    synthetic constants are visually distinct from application data.
    """
    taken = {c.value for c in avoid}
    out: list[Constant] = []
    for i in itertools.count():
        if len(out) == count:
            break
        value = f"{prefix}{i}"
        if value not in taken:
            out.append(Constant(value))
    return out


def variables_in(terms: Iterable[Term]) -> set[Variable]:
    """The set of variables occurring in ``terms``."""
    return {t for t in terms if isinstance(t, Variable)}


def constants_in(terms: Iterable[Term]) -> set[Constant]:
    """The set of constants occurring in ``terms``."""
    return {t for t in terms if isinstance(t, Constant)}


def is_fact(terms: Iterable[Term]) -> bool:
    """True iff every term is a constant (i.e. the tuple is a fact)."""
    return all(isinstance(t, Constant) for t in terms)
