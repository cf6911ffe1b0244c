"""Pure literals and entailments.

The prover's input is an entailment of the restricted shape used throughout
program analysis tools built on this fragment (Section 3.1):

    Pi /\\ Sigma  |-  Pi' /\\ Sigma'

where ``Pi`` and ``Pi'`` are conjunctions of pure literals (equalities and
disequalities between program variables and ``nil``), while ``Sigma`` and
``Sigma'`` are spatial formulas (iterated separating conjunctions of ``next``
and ``lseg`` atoms).

This module provides:

* :class:`PureLiteral` — a possibly negated equality atom;
* :class:`Entailment` — the four components above with convenience helpers;
* small constructor functions (:func:`eq`, :func:`neq`, :func:`pts`,
  :func:`lseg`, :func:`const`, :func:`consts`, :func:`nil`) that make building
  entailments in code or in tests pleasant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple, Union

from repro.logic.atoms import (
    DllCell,
    DllSegment,
    EqAtom,
    ListSegment,
    PointsTo,
    SpatialAtom,
    SpatialFormula,
    emp,
)
from repro.logic.terms import Const, NIL, make_const, make_consts


@dataclass(frozen=True)
class PureLiteral:
    """A pure literal: an equality atom with a polarity.

    ``PureLiteral(EqAtom(x, y), positive=True)`` is the equality ``x = y``;
    with ``positive=False`` it is the disequality ``x != y``.
    """

    atom: EqAtom
    positive: bool = True

    @property
    def negated(self) -> "PureLiteral":
        """The literal with the opposite polarity."""
        return PureLiteral(self.atom, not self.positive)

    @property
    def is_contradictory(self) -> bool:
        """True for literals of the form ``x != x`` (never satisfiable)."""
        return not self.positive and self.atom.is_trivial

    @property
    def is_trivially_true(self) -> bool:
        """True for literals of the form ``x = x``."""
        return self.positive and self.atom.is_trivial

    def constants(self) -> FrozenSet[Const]:
        """The constants occurring in the literal."""
        return self.atom.constants()

    def substitute(self, mapping: Dict[Const, Const]) -> "PureLiteral":
        """Simultaneously replace constants according to ``mapping``."""
        return PureLiteral(self.atom.substitute(mapping), self.positive)

    def __str__(self) -> str:
        separator = " = " if self.positive else " != "
        return "{}{}{}".format(self.atom.left, separator, self.atom.right)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

ConstLike = Union[str, Const]


def const(name: ConstLike) -> Const:
    """Create (or coerce) a constant symbol."""
    return make_const(name)


def consts(names: "str | Iterable[str]") -> Tuple[Const, ...]:
    """Create several constants; accepts a whitespace separated string."""
    return make_consts(names)


def nil() -> Const:
    """The null-pointer constant."""
    return NIL


def eq(left: ConstLike, right: ConstLike) -> PureLiteral:
    """The pure literal ``left = right``."""
    return PureLiteral(EqAtom(make_const(left), make_const(right)), positive=True)


def neq(left: ConstLike, right: ConstLike) -> PureLiteral:
    """The pure literal ``left != right``."""
    return PureLiteral(EqAtom(make_const(left), make_const(right)), positive=False)


def pts(source: ConstLike, target: ConstLike) -> PointsTo:
    """The basic spatial atom ``next(source, target)``."""
    return PointsTo(make_const(source), make_const(target))


def lseg(source: ConstLike, target: ConstLike) -> ListSegment:
    """The basic spatial atom ``lseg(source, target)``."""
    return ListSegment(make_const(source), make_const(target))


def dcell(source: ConstLike, target: ConstLike, prev: ConstLike) -> DllCell:
    """The doubly-linked cell ``cell(source, target, prev)``."""
    return DllCell(make_const(source), make_const(target), make_const(prev))


def dlseg(source: ConstLike, prev: ConstLike, target: ConstLike, back: ConstLike) -> DllSegment:
    """The doubly-linked segment ``dlseg(source, prev, target, back)``."""
    return DllSegment(make_const(source), make_const(prev), make_const(target), make_const(back))


SideItem = Union[PureLiteral, SpatialAtom, SpatialFormula]


def _split_side(items: Iterable[SideItem]) -> Tuple[Tuple[PureLiteral, ...], SpatialFormula]:
    """Split a mixed conjunction into its pure part and its spatial part."""
    pure = []
    spatial_atoms = []
    for item in items:
        if isinstance(item, PureLiteral):
            pure.append(item)
        elif isinstance(item, SpatialAtom):
            spatial_atoms.append(item)
        elif isinstance(item, SpatialFormula):
            spatial_atoms.extend(item.atoms)
        else:
            raise TypeError("unexpected conjunct {!r}".format(item))
    return tuple(pure), SpatialFormula(spatial_atoms)


@dataclass(frozen=True)
class Entailment:
    """An entailment ``Pi /\\ Sigma |- Pi' /\\ Sigma'``.

    Attributes
    ----------
    lhs_pure, rhs_pure:
        Tuples of :class:`PureLiteral` (the conjunctions ``Pi`` and ``Pi'``).
    lhs_spatial, rhs_spatial:
        :class:`SpatialFormula` instances (``Sigma`` and ``Sigma'``).
    """

    lhs_pure: Tuple[PureLiteral, ...]
    lhs_spatial: SpatialFormula
    rhs_pure: Tuple[PureLiteral, ...]
    rhs_spatial: SpatialFormula

    # -- constructors --------------------------------------------------------
    @classmethod
    def build(
        cls,
        lhs: Iterable[SideItem] = (),
        rhs: Iterable[SideItem] = (),
    ) -> "Entailment":
        """Build an entailment from two mixed conjunctions.

        Pure literals and spatial atoms may be freely mixed on either side;
        they are sorted into the pure and spatial components automatically::

            Entailment.build(
                lhs=[neq("c", "e"), lseg("a", "b"), pts("c", "d")],
                rhs=[lseg("b", "c")],
            )
        """
        lhs_pure, lhs_spatial = _split_side(lhs)
        rhs_pure, rhs_spatial = _split_side(rhs)
        return cls(lhs_pure, lhs_spatial, rhs_pure, rhs_spatial)

    @classmethod
    def with_false_rhs(cls, lhs: Iterable[SideItem]) -> "Entailment":
        """Build an entailment of the form ``Pi /\\ Sigma |- false``.

        The first synthetic benchmark of the paper (Table 1) checks
        entailments whose right-hand side is the contradiction ``⊥``; such an
        entailment is valid exactly when the left-hand side is unsatisfiable.
        We encode ``⊥`` as the unsatisfiable pure literal ``nil != nil`` which
        keeps every component of the pipeline uniform.
        """
        lhs_pure, lhs_spatial = _split_side(lhs)
        return cls(lhs_pure, lhs_spatial, (neq(NIL, NIL),), emp())

    # -- queries --------------------------------------------------------------
    @property
    def has_false_rhs(self) -> bool:
        """True if the right-hand side is the canonical encoding of ``false``."""
        return (
            self.rhs_spatial.is_emp
            and len(self.rhs_pure) == 1
            and self.rhs_pure[0].is_contradictory
        )

    def constants(self) -> FrozenSet[Const]:
        """All constants occurring anywhere in the entailment."""
        result = set()
        for literal in self.lhs_pure + self.rhs_pure:
            result.update(literal.constants())
        result.update(self.lhs_spatial.constants())
        result.update(self.rhs_spatial.constants())
        return frozenset(result)

    def variables(self) -> FrozenSet[Const]:
        """All program variables (constants other than ``nil``)."""
        return frozenset(c for c in self.constants() if not c.is_nil)

    def size(self) -> int:
        """A simple size measure: the total number of atoms on both sides."""
        return (
            len(self.lhs_pure)
            + len(self.rhs_pure)
            + len(self.lhs_spatial)
            + len(self.rhs_spatial)
        )

    # -- transformations --------------------------------------------------------
    def rename(self, mapping: Dict[Const, Const]) -> "Entailment":
        """Apply a renaming (or any substitution) to every component."""
        return Entailment(
            tuple(literal.substitute(mapping) for literal in self.lhs_pure),
            self.lhs_spatial.substitute(mapping),
            tuple(literal.substitute(mapping) for literal in self.rhs_pure),
            self.rhs_spatial.substitute(mapping),
        )

    def swap_sides(self) -> "Entailment":
        """Return the converse entailment (useful for testing equivalences)."""
        return Entailment(self.rhs_pure, self.rhs_spatial, self.lhs_pure, self.lhs_spatial)

    def __str__(self) -> str:
        from repro.logic.printer import format_entailment

        return format_entailment(self)
