"""Pure and spatial atoms of the fragment (Section 3.1 of the paper).

Three kinds of atoms exist:

* the *pure* equality atom ``x ~ y`` (written ``x ' y`` in the paper), which
  constrains the stack only;
* basic *spatial* atoms, drawn from the predicate vocabulary of a registered
  spatial theory (:mod:`repro.spatial.theory`).  The paper's fragment — the
  builtin singly-linked theory — has ``next(x, y)`` (a single heap cell at
  ``x`` pointing to ``y``) and ``lseg(x, y)`` (a possibly empty acyclic list
  segment from ``x`` to ``y``); the doubly-linked theory has two-field cells
  ``cell(x, n, p)`` and segments ``dlseg(x, px, y, py)``;
* *spatial formulas* ``S1 * ... * Sn`` — finite multisets of basic spatial
  atoms joined by the separating conjunction, with ``emp`` for the empty
  multiset.

Atoms are plain data: every rule system that *interprets* them (normalisation,
well-formedness, unfolding, satisfaction) lives with the owning theory object,
keyed by the :attr:`SpatialAtom.theory` tag.

Disequalities ``x != y`` are not a separate atom kind: they are negated
equality atoms and are represented at the literal/clause level.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.logic.terms import Const, make_const


def _order_pair(a: Const, b: Const) -> Tuple[Const, Const]:
    """Canonical presentation order for the two sides of an equality.

    Equality is symmetric, so ``EqAtom(x, y)`` and ``EqAtom(y, x)`` must be
    the same object value.  We therefore store the two sides in a fixed order:
    ``nil`` always last, otherwise lexicographically by name.
    """
    if a.is_nil and not b.is_nil:
        return b, a
    if b.is_nil and not a.is_nil:
        return a, b
    return (a, b) if a.name <= b.name else (b, a)


@dataclass(frozen=True, eq=False)
class EqAtom:
    """The pure atom ``left ~ right`` asserting that two constants are aliases.

    Instances are canonicalised so that the atom is symmetric:
    ``EqAtom(x, y) == EqAtom(y, x)``.  The hash and the structural sort key
    are precomputed at construction time: atoms are hashed on every frozenset
    operation of the saturation loop and sorted in several presentation paths,
    and recomputing either from the field values dominates those paths.
    """

    left: Const
    right: Const

    def __init__(self, left: "Const | str", right: "Const | str") -> None:
        first, second = _order_pair(make_const(left), make_const(right))
        object.__setattr__(self, "left", first)
        object.__setattr__(self, "right", second)
        object.__setattr__(self, "sort_key", (first.name, second.name))
        object.__setattr__(self, "_hash", hash((first.name, second.name)))
        # ``is_trivial`` (atoms of the form ``x ~ x``, always true) is read on
        # every simplification and tautology check; precompute it.
        object.__setattr__(self, "is_trivial", first == second)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EqAtom):
            return self is other or (self.left == other.left and self.right == other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __setstate__(self, state: Dict[str, object]) -> None:
        # A pickle carries the writer's cached hash, which derives from its
        # string hashes (``PYTHONHASHSEED``); recompute it in this process.
        self.__dict__.update(state)
        object.__setattr__(self, "_hash", hash(self.sort_key))

    @property
    def sides(self) -> Tuple[Const, Const]:
        """The two constants related by the atom."""
        return (self.left, self.right)

    def mentions(self, constant: Const) -> bool:
        """True if ``constant`` occurs in the atom."""
        return constant == self.left or constant == self.right

    def other(self, constant: Const) -> Const:
        """Given one side of the atom, return the other side."""
        if constant == self.left:
            return self.right
        if constant == self.right:
            return self.left
        raise ValueError("{} does not occur in {}".format(constant, self))

    def constants(self) -> FrozenSet[Const]:
        """The set of constants occurring in the atom."""
        return frozenset((self.left, self.right))

    def substitute(self, mapping: Dict[Const, Const]) -> "EqAtom":
        """Simultaneously replace constants according to ``mapping``."""
        return EqAtom(mapping.get(self.left, self.left), mapping.get(self.right, self.right))

    def __str__(self) -> str:
        return "{} = {}".format(self.left, self.right)

    def __repr__(self) -> str:
        return "EqAtom({!r}, {!r})".format(self.left.name, self.right.name)


class SpatialAtom:
    """Common interface of all basic spatial atoms, across theories.

    Every basic atom describes a piece of heap reachable from its *address*
    ``source``; the remaining arguments are theory specific.  The class is an
    abstract base; the builtin instances are :class:`PointsTo` and
    :class:`ListSegment` (singly-linked theory) and :class:`DllCell` and
    :class:`DllSegment` (doubly-linked theory).
    """

    source: Const
    target: Const

    #: Short predicate tag used by the printer, the parser and the canonical
    #: fingerprint ("next"/"lseg"/"cell"/"dlseg").
    kind: str = ""

    #: Name of the spatial theory the atom belongs to (see
    #: :mod:`repro.spatial.theory`).  Atoms of different theories may never be
    #: mixed in one formula that reaches the prover.
    theory: str = "sll"

    @property
    def address(self) -> Const:
        """The address of the atom (the paper calls ``x`` the address of ``f(x, y)``)."""
        return self.source

    #: True for atoms satisfied exactly by the empty heap (empty segments).
    #: Set at construction by the segment kinds, a class constant for cells.
    is_trivial: bool

    #: Deterministic structural key used to canonically order formulas, set
    #: at construction: the address name first, so that the atoms at one
    #: address sit side by side in a formula, then the other argument names
    #: and the kind.  Distinct atoms have distinct keys.
    sort_key: Tuple[str, ...]

    # The sort key and the triviality flag are plain attributes, computed
    # once: the normaliser and the formula constructor read them for every
    # atom they touch, and the hash below is the key's.  Each atom class
    # re-binds ``__hash__`` so that the dataclass decorator keeps it.
    def __hash__(self) -> int:
        return hash(self.sort_key)

    def __getattr__(self, name: str):
        # Only reached for a missing attribute: an atom unpickled from a
        # version that computed its key lazily is rebuilt once through the
        # constructor.
        if name not in ("sort_key", "is_trivial") or "source" not in self.__dict__:
            raise AttributeError(name)
        arguments = [self.__dict__[field.name] for field in fields(self)]  # type: ignore[arg-type]
        self.__init__(*arguments)  # type: ignore
        return self.__dict__[name]

    def argument_roles(self) -> Tuple[Tuple[str, Const], ...]:
        """The atom's arguments in declaration order, each with its role name.

        The role names feed the canonical fingerprint
        (:mod:`repro.logic.canonical`) and generic traversals; they must be
        stable across releases for any atom kind that can be cached.
        """
        raise NotImplementedError

    def constants(self) -> FrozenSet[Const]:
        """The set of constants occurring in the atom."""
        return frozenset(constant for _, constant in self.argument_roles())

    def substitute(self, mapping: Dict[Const, Const]) -> "SpatialAtom":
        """Simultaneously replace constants according to ``mapping``."""
        raise NotImplementedError

    def with_ends(self, source: Const, target: Const) -> "SpatialAtom":
        """Return an atom of the same kind with the given endpoints.

        Only meaningful for binary (singly-linked) atoms; the baselines use it
        to rename endpoints through their union-find.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class PointsTo(SpatialAtom):
    """The basic spatial atom ``next(x, y)``: a single cell at ``x`` storing ``y``."""

    source: Const
    target: Const
    kind = "next"
    theory = "sll"
    is_trivial = False
    __hash__ = SpatialAtom.__hash__

    def __init__(self, source: "Const | str", target: "Const | str") -> None:
        source, target = make_const(source), make_const(target)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "sort_key", (source.name, target.name, self.kind))

    def argument_roles(self) -> Tuple[Tuple[str, Const], ...]:
        return (("src", self.source), ("tgt", self.target))

    def constants(self) -> FrozenSet[Const]:
        return frozenset((self.source, self.target))

    def substitute(self, mapping: Dict[Const, Const]) -> "PointsTo":
        source = mapping.get(self.source, self.source)
        target = mapping.get(self.target, self.target)
        if source is self.source and target is self.target:
            return self
        return PointsTo(source, target)

    def with_ends(self, source: Const, target: Const) -> "PointsTo":
        return PointsTo(source, target)

    def __str__(self) -> str:
        return "next({}, {})".format(self.source, self.target)

    def __repr__(self) -> str:
        return "PointsTo({!r}, {!r})".format(self.source.name, self.target.name)


@dataclass(frozen=True)
class ListSegment(SpatialAtom):
    """The basic spatial atom ``lseg(x, y)``: an acyclic list segment from ``x`` to ``y``.

    The segment may be empty, in which case ``x`` and ``y`` denote the same
    location and the atom occupies no heap cells.
    """

    source: Const
    target: Const
    kind = "lseg"
    theory = "sll"
    __hash__ = SpatialAtom.__hash__

    def __init__(self, source: "Const | str", target: "Const | str") -> None:
        source, target = make_const(source), make_const(target)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "sort_key", (source.name, target.name, self.kind))
        object.__setattr__(self, "is_trivial", source == target)

    def argument_roles(self) -> Tuple[Tuple[str, Const], ...]:
        return (("src", self.source), ("tgt", self.target))

    def constants(self) -> FrozenSet[Const]:
        return frozenset((self.source, self.target))

    def substitute(self, mapping: Dict[Const, Const]) -> "ListSegment":
        source = mapping.get(self.source, self.source)
        target = mapping.get(self.target, self.target)
        if source is self.source and target is self.target:
            return self
        return ListSegment(source, target)

    def with_ends(self, source: Const, target: Const) -> "ListSegment":
        return ListSegment(source, target)

    def __str__(self) -> str:
        return "lseg({}, {})".format(self.source, self.target)

    def __repr__(self) -> str:
        return "ListSegment({!r}, {!r})".format(self.source.name, self.target.name)


@dataclass(frozen=True)
class DllCell(SpatialAtom):
    """The doubly-linked cell ``cell(x, n, p)``: one cell at ``x`` with two
    pointer fields, ``next = n`` and ``prev = p``."""

    source: Const
    target: Const  # the next field
    prev: Const
    kind = "cell"
    theory = "dll"
    is_trivial = False
    __hash__ = SpatialAtom.__hash__

    def __init__(
        self, source: "Const | str", target: "Const | str", prev: "Const | str"
    ) -> None:
        source, target, prev = make_const(source), make_const(target), make_const(prev)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "prev", prev)
        object.__setattr__(self, "sort_key", (source.name, target.name, self.kind, prev.name))

    def argument_roles(self) -> Tuple[Tuple[str, Const], ...]:
        return (("src", self.source), ("tgt", self.target), ("prv", self.prev))

    def substitute(self, mapping: Dict[Const, Const]) -> "DllCell":
        source = mapping.get(self.source, self.source)
        target = mapping.get(self.target, self.target)
        prev = mapping.get(self.prev, self.prev)
        if source is self.source and target is self.target and prev is self.prev:
            return self
        return DllCell(source, target, prev)

    def __str__(self) -> str:
        return "cell({}, {}, {})".format(self.source, self.target, self.prev)

    def __repr__(self) -> str:
        return "DllCell({!r}, {!r}, {!r})".format(
            self.source.name, self.target.name, self.prev.name
        )


@dataclass(frozen=True)
class DllSegment(SpatialAtom):
    """The doubly-linked segment ``dlseg(x, px, y, py)``.

    The segment runs from ``x`` (exclusive end ``y``); ``px`` is what the
    first cell's ``prev`` field points to and ``py`` is the *last cell* of the
    segment.  Inductively::

        dlseg(x, px, y, py)  =  (x = y /\\ px = py /\\ emp)
                             \\/ (exists u. cell(x, u, px) * dlseg(u, x, y, py))

    so the empty segment requires ``x = y`` and ``px = py``, a one-cell
    segment is ``cell(x, y, px)`` with ``py = x``, and in general the cells
    form a chain whose ``prev`` fields backlink each cell to its predecessor.
    The forced-path property of the fragment is preserved: a heap is a partial
    function, so the cells a ``dlseg`` atom may own are determined by walking
    ``next`` pointers from ``x`` while checking ``prev`` backlinks — no search.
    """

    source: Const
    prev: Const  # px: what the first cell's prev field points to
    target: Const  # y: the exclusive end of the segment
    back: Const  # py: the last cell of the segment
    kind = "dlseg"
    theory = "dll"
    __hash__ = SpatialAtom.__hash__

    def __init__(
        self,
        source: "Const | str",
        prev: "Const | str",
        target: "Const | str",
        back: "Const | str",
    ) -> None:
        source, prev = make_const(source), make_const(prev)
        target, back = make_const(target), make_const(back)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "prev", prev)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "back", back)
        object.__setattr__(
            self, "sort_key", (source.name, target.name, self.kind, prev.name, back.name)
        )
        # dlseg(x, p, x, p) is satisfied exactly by the empty heap.
        object.__setattr__(self, "is_trivial", source == target and prev == back)

    def argument_roles(self) -> Tuple[Tuple[str, Const], ...]:
        return (
            ("src", self.source),
            ("psrc", self.prev),
            ("tgt", self.target),
            ("pback", self.back),
        )

    def substitute(self, mapping: Dict[Const, Const]) -> "DllSegment":
        source = mapping.get(self.source, self.source)
        prev = mapping.get(self.prev, self.prev)
        target = mapping.get(self.target, self.target)
        back = mapping.get(self.back, self.back)
        if (
            source is self.source
            and prev is self.prev
            and target is self.target
            and back is self.back
        ):
            return self
        return DllSegment(source, prev, target, back)

    def __str__(self) -> str:
        return "dlseg({}, {}, {}, {})".format(self.source, self.prev, self.target, self.back)

    def __repr__(self) -> str:
        return "DllSegment({!r}, {!r}, {!r}, {!r})".format(
            self.source.name, self.prev.name, self.target.name, self.back.name
        )


#: The canonical order of a formula's atoms.
_atom_sort_key = attrgetter("sort_key")


#: A spatial formula's hash is the sum of its atoms' hashes modulo 2**61:
#: non-negative and small enough that ``hash()`` returns it unchanged, so a
#: sum kept up to date atom by atom equals the hash of the whole.
FORMULA_HASH_MASK = (1 << 61) - 1


class SpatialFormula:
    """A spatial formula ``S1 * ... * Sn``: a multiset of basic spatial atoms.

    The separating conjunction is associative and commutative, so a spatial
    formula is represented as a canonically sorted tuple of its basic atoms.
    It is *not* idempotent — the multiplicity of atoms matters — hence a
    multiset rather than a set.  The empty formula is ``emp``.

    Instances are immutable and hashable; all "mutators" return new formulas.
    The hash is a multiset hash, the sum of the atoms' hashes (modulo
    :data:`FORMULA_HASH_MASK`), computed once.  The incremental normaliser
    (:mod:`repro.spatial.normalization`) builds a formula per round and keeps
    that sum up to date from the atoms that moved (:meth:`from_sorted`),
    instead of rehashing every atom.
    """

    __slots__ = ("_atoms", "_constants", "_hash")

    def __init__(self, atoms: Iterable[SpatialAtom] = ()):  # noqa: D107
        atom_list = list(atoms)
        for atom in atom_list:
            if not isinstance(atom, SpatialAtom):
                raise TypeError("expected a spatial atom, got {!r}".format(atom))
        self._atoms: Tuple[SpatialAtom, ...] = tuple(sorted(atom_list, key=_atom_sort_key))
        self._constants: Optional[FrozenSet[Const]] = None
        self._hash: Optional[int] = None

    @classmethod
    def from_sorted(
        cls, atoms: Tuple[SpatialAtom, ...], hash_value: Optional[int] = None
    ) -> "SpatialFormula":
        """A formula over atoms already in canonical (``sort_key``) order.

        No re-sort and no type check: the caller vouches for both, and for
        ``hash_value`` being the sum of the atoms' hashes masked with
        :data:`FORMULA_HASH_MASK` when it is given.
        """
        formula = cls.__new__(cls)
        formula._atoms = atoms
        formula._constants = None
        formula._hash = hash_value
        return formula

    def __getstate__(self) -> Tuple[SpatialAtom, ...]:
        # The cached hash derives from the process's string hashes and must
        # not travel with the atoms.
        return self._atoms

    def __setstate__(self, state) -> None:
        # Pickles written before ``__getstate__`` existed carry
        # ``(None, slots)``; an atom is never ``None``.
        self._atoms = state[1]["_atoms"] if state and state[0] is None else state
        self._constants = None
        self._hash = None

    # -- basic protocol ----------------------------------------------------
    @property
    def atoms(self) -> Tuple[SpatialAtom, ...]:
        """The basic atoms in canonical order."""
        return self._atoms

    @property
    def is_emp(self) -> bool:
        """True for the empty spatial formula ``emp``."""
        return not self._atoms

    def __iter__(self) -> Iterator[SpatialAtom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, atom: SpatialAtom) -> bool:
        return atom in self._atoms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpatialFormula):
            return NotImplemented
        return self._atoms == other._atoms

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = sum(map(hash, self._atoms)) & FORMULA_HASH_MASK
        return value

    def __str__(self) -> str:
        if not self._atoms:
            return "emp"
        return " * ".join(str(atom) for atom in self._atoms)

    def __repr__(self) -> str:
        return "SpatialFormula({})".format(list(self._atoms))

    # -- queries -----------------------------------------------------------
    def count(self, atom: SpatialAtom) -> int:
        """Multiplicity of ``atom`` in the formula."""
        return sum(1 for candidate in self._atoms if candidate == atom)

    def constants(self) -> FrozenSet[Const]:
        """All constants occurring in the formula (memoised — instances are
        immutable, and normalisation re-queries the same formula every
        saturation round)."""
        result = self._constants
        if result is None:
            collected = set()
            for atom in self._atoms:
                collected.update(atom.constants())
            result = frozenset(collected)
            self._constants = result
        return result

    def addresses(self) -> Tuple[Const, ...]:
        """The addresses of the basic atoms, with multiplicities, in order."""
        return tuple(atom.address for atom in self._atoms)

    def atoms_at(self, address: Const) -> Tuple[SpatialAtom, ...]:
        """All basic atoms whose address is ``address``."""
        return tuple(atom for atom in self._atoms if atom.address == address)

    def atom_at(self, address: Const) -> Optional[SpatialAtom]:
        """The unique atom at ``address`` in a well-formed formula, or ``None``."""
        candidates = self.atoms_at(address)
        return candidates[0] if candidates else None

    def is_well_formed(self) -> bool:
        """Check the paper's well-formedness condition.

        A spatial formula is well formed when no basic atom has a ``nil``
        address and no two basic atoms share the same address.
        """
        seen = set()
        for atom in self._atoms:
            if atom.address.is_nil:
                return False
            if atom.address in seen:
                return False
            seen.add(atom.address)
        return True

    # -- constructive operations -------------------------------------------
    def star(self, other: "SpatialFormula | SpatialAtom") -> "SpatialFormula":
        """Separating conjunction with another formula or basic atom."""
        if isinstance(other, SpatialAtom):
            return SpatialFormula(self._atoms + (other,))
        return SpatialFormula(self._atoms + other._atoms)

    def __mul__(self, other: "SpatialFormula | SpatialAtom") -> "SpatialFormula":
        return self.star(other)

    def add(self, atom: SpatialAtom) -> "SpatialFormula":
        """Return the formula with one extra occurrence of ``atom``."""
        return SpatialFormula(self._atoms + (atom,))

    def remove(self, atom: SpatialAtom) -> "SpatialFormula":
        """Return the formula with one occurrence of ``atom`` removed."""
        remaining = list(self._atoms)
        try:
            remaining.remove(atom)
        except ValueError:
            raise KeyError("atom {} not present in {}".format(atom, self))
        return SpatialFormula(remaining)

    def replace(self, old: SpatialAtom, new_atoms: Iterable[SpatialAtom]) -> "SpatialFormula":
        """Remove one occurrence of ``old`` and add all atoms in ``new_atoms``."""
        return SpatialFormula(list(self.remove(old)._atoms) + list(new_atoms))

    def substitute(self, mapping: Dict[Const, Const]) -> "SpatialFormula":
        """Simultaneously replace constants according to ``mapping``."""
        return SpatialFormula(atom.substitute(mapping) for atom in self._atoms)

    def drop_trivial(self) -> "SpatialFormula":
        """Remove all trivial atoms ``lseg(x, x)`` (rule N2/N4 of the paper)."""
        return SpatialFormula(atom for atom in self._atoms if not atom.is_trivial)


def emp() -> SpatialFormula:
    """The empty spatial formula ``emp``."""
    return SpatialFormula(())


def spatial(*atoms: SpatialAtom) -> SpatialFormula:
    """Convenience constructor: ``spatial(pts(x, y), lseg(y, z))``."""
    return SpatialFormula(atoms)
