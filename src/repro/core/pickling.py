"""Pickle support for the immutable, ``__slots__``-only value classes.

Every value class in the representation layer (terms, conditions, rows,
tables, statistics) is immutable: ``__slots__`` storage, attributes set
once via ``object.__setattr__`` in ``__init__``, and a ``__setattr__``
guard that raises afterwards.  That guard breaks pickle's default slot
protocol — unpickling restores slot state with ``setattr``, which the
guard rejects — so none of these objects would survive a round trip.

The serving layer's worker pool (:mod:`repro.server.pool`) ships
snapshot databases and statistics to reader processes over
``multiprocessing`` pipes, which makes round-tripping a requirement.
Two mechanisms cover it:

* Terms, conditions and rows memoise their hash at construction, and
  :class:`~repro.core.conditions.Conjunction` is hash-consed.  They
  pickle through ``__reduce__``, so the receiving process — which may
  draw a different string-hash seed — recomputes every hash and
  re-interns every conjunction.  Shipping a memoised hash would leave
  an object equal to a freshly built twin yet missing from a set of
  them.  Terms and conditions reduce to their constructor; a row
  reduces to ``repro.core.tables._row``, which rebuilds it through
  :meth:`~repro.core.tables.Row._trusted`: its parts arrive already
  coerced, so only the hash is recomputed.
* Tables, databases and statistics carry no hash memo and use
  :func:`pickles_by_slots`, a class decorator installing
  ``__getstate__``/``__setstate__`` that collect every *set* slot across
  the MRO and restore them with ``object.__setattr__``, bypassing the
  guard exactly the way ``__init__`` does.  Unset slots (lazily
  populated memos such as a table's statistics) are skipped on save
  and simply stay unset on load, and so are the slots a class names in
  ``_transient_slots`` (a table's join partitions, which cost as much
  to ship as to rebuild).  ``__init__`` is never re-run, so no
  validation is repeated.
"""

from __future__ import annotations

__all__ = ["pickles_by_slots"]


def _slot_names(cls) -> tuple[str, ...]:
    names: list[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for slot in slots:
            if slot not in ("__dict__", "__weakref__") and slot not in names:
                names.append(slot)
    return tuple(names)


def _getstate(self) -> dict:
    state = {}
    transient = getattr(self, "_transient_slots", ())
    for slot in _slot_names(type(self)):
        if slot in transient:
            continue
        try:
            state[slot] = getattr(self, slot)
        except AttributeError:
            pass  # lazily-populated slot that was never set
    return state


def _setstate(self, state: dict) -> None:
    for slot, value in state.items():
        object.__setattr__(self, slot, value)


def pickles_by_slots(cls):
    """Class decorator: make a guarded ``__slots__`` class picklable.

    Subclasses inherit the behaviour, so decorating a base class (e.g.
    ``Atom``) covers its whole hierarchy (``Eq``, ``Neq``).
    """
    cls.__getstate__ = _getstate
    cls.__setstate__ = _setstate
    return cls
