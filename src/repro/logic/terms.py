"""Constant symbols of the fragment.

The separation-logic fragment of Berdine, Calcagno and O'Hearn that the paper
works with is *ground*: formulas are built from a finite set ``Var`` of
constant symbols (program variables) plus the distinguished constant ``nil``
denoting the null pointer.  There are no function symbols and no quantifiers,
so a "term" is simply a constant.

This module defines the :class:`Const` value type and the ``nil`` singleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

#: Reserved spelling of the null-pointer constant.
NIL_NAME = "nil"

#: Alternative spellings that :func:`make_const` coerces to ``nil``.  The
#: comparison is case-insensitive, so "Nil", "NULL" and "null" all denote the
#: null pointer rather than silently creating distinct constants.
_NIL_ALIASES = frozenset(("nil", "null", "0"))


@dataclass(frozen=True, eq=False)
class Const:
    """A constant symbol (a program variable, or ``nil``).

    Constants compare and hash by name, so they can be freely used in sets,
    dictionaries and as members of frozen dataclasses.  The hash is computed
    once at construction time: constants are the innermost objects of the
    saturation loop and re-hashing the name string on every set operation is
    measurable.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("constant symbols must have a non-empty name")
        object.__setattr__(self, "_hash", hash(self.name))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Const):
            return self is other or self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    # The cached hash derives from this process's string hashes
    # (``PYTHONHASHSEED``), so it must not travel in a pickle: a proof store
    # written by one process is read by others.
    def __getstate__(self) -> Dict[str, str]:
        return {"name": self.name}

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Pickles written before ``__getstate__`` existed carry the writer's
        # hash too; it is recomputed here.
        object.__setattr__(self, "name", state["name"])
        object.__setattr__(self, "_hash", hash(self.name))

    @property
    def is_nil(self) -> bool:
        """True if this constant is the null pointer ``nil``."""
        return self.name == NIL_NAME

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return "Const({!r})".format(self.name)

    # A deterministic ordering by name is convenient for canonical printing;
    # the *logical* ordering used by superposition lives in
    # :mod:`repro.logic.ordering` and always makes ``nil`` minimal.
    def __lt__(self, other: "Const") -> bool:
        if not isinstance(other, Const):
            return NotImplemented
        return self.name < other.name


#: The null pointer.  ``nil`` is not a program variable (``nil not in Var``)
#: but may appear anywhere a constant may appear in a formula.
NIL = Const(NIL_NAME)

#: Intern table shared by :func:`make_const`: one :class:`Const` object per
#: distinct name.  Interning keeps equality checks on the identity fast path
#: and makes the memoised ordering-key lookups hit the same dictionary slot.
_CONST_INTERN: Dict[str, Const] = {NIL_NAME: NIL}


def clear_const_intern() -> None:
    """Reset the constant intern table to its initial state (``nil`` only).

    For long-lived processes running many unrelated workloads; everyday use
    never needs this.  Existing :class:`Const` objects stay valid — they
    compare by name — only the table stops pinning them in memory.
    """
    _CONST_INTERN.clear()
    _CONST_INTERN[NIL_NAME] = NIL


def make_const(name: "str | Const") -> Const:
    """Coerce a string (or an existing :class:`Const`) into an interned constant."""
    if isinstance(name, Const):
        return name
    if not isinstance(name, str):
        raise TypeError("expected a constant name, got {!r}".format(name))
    stripped = name.strip()
    interned = _CONST_INTERN.get(stripped)
    if interned is not None:
        return interned
    if stripped.lower() in _NIL_ALIASES:
        interned = NIL
    else:
        interned = Const(stripped)
    _CONST_INTERN[stripped] = interned
    return interned


def make_consts(names: "str | Iterable[str]") -> Tuple[Const, ...]:
    """Create several constants at once.

    Accepts either an iterable of names or a single whitespace/comma separated
    string, e.g. ``make_consts("a b c")`` or ``make_consts(["a", "b"])``.
    """
    if isinstance(names, str):
        parts = [part for part in names.replace(",", " ").split() if part]
    else:
        parts = list(names)
    return tuple(make_const(part) for part in parts)


def variable_pool(count: int, prefix: str = "x") -> Tuple[Const, ...]:
    """Return ``count`` distinct program variables ``prefix1 .. prefixN``.

    The synthetic benchmark distributions of Section 6 are parameterised by a
    number of program variables ``Var = {x1, ..., xn}``; this helper creates
    that pool.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return tuple(make_const("{}{}".format(prefix, i + 1)) for i in range(count))
