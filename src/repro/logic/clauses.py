"""The clause representation ``Gamma -> Delta`` (Section 3.2 of the paper).

A clause is a disjunction of literals written in sequent form

    A1, ..., An  ->  B1, ..., Bm

meaning "if all atoms on the left hold then at least one atom on the right
holds".  The atoms on the left therefore occur *negatively* in the clause and
the atoms on the right occur *positively*.

Following the paper we only ever need clauses that contain **at most one
spatial atom** (a whole spatial formula ``Sigma`` counts as a single atom),
which gives three clause shapes:

* a *pure clause* ``Gamma -> Delta`` where both sides contain only equality
  atoms;
* a *positive spatial clause* ``Gamma -> Delta, Sigma``;
* a *negative spatial clause* ``Gamma, Sigma -> Delta``.

The class below represents all three with ``gamma``/``delta`` frozensets of
:class:`~repro.logic.atoms.EqAtom` plus an optional spatial formula tagged
with the side it occurs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from operator import attrgetter

from repro.logic.atoms import EqAtom, SpatialFormula
from repro.logic.terms import Const

#: Structural sort key of an atom, precomputed by ``EqAtom.__init__``.
_atom_key = attrgetter("sort_key")


@dataclass(frozen=True)
class Clause:
    """A clause ``Gamma -> Delta`` with at most one spatial formula.

    Attributes
    ----------
    gamma:
        The pure atoms on the left of the sequent arrow (negative occurrences).
    delta:
        The pure atoms on the right of the sequent arrow (positive occurrences).
    spatial:
        The spatial formula occurring in the clause, or ``None`` for a pure
        clause.
    spatial_on_right:
        ``True`` when the spatial formula occurs on the right of the arrow
        (a positive spatial clause, asserting the heap shape), ``False`` when
        it occurs on the left (a negative spatial clause, refuting the shape).
        Ignored when ``spatial`` is ``None``.
    """

    gamma: FrozenSet[EqAtom] = frozenset()
    delta: FrozenSet[EqAtom] = frozenset()
    spatial: Optional[SpatialFormula] = None
    spatial_on_right: bool = True

    # -- constructors -------------------------------------------------------
    @staticmethod
    def pure(gamma: Iterable[EqAtom] = (), delta: Iterable[EqAtom] = ()) -> "Clause":
        """Build a pure clause ``Gamma -> Delta``."""
        return Clause(frozenset(gamma), frozenset(delta), None, True)

    @staticmethod
    def positive_spatial(
        sigma: SpatialFormula,
        gamma: Iterable[EqAtom] = (),
        delta: Iterable[EqAtom] = (),
    ) -> "Clause":
        """Build a positive spatial clause ``Gamma -> Delta, Sigma``."""
        return Clause(frozenset(gamma), frozenset(delta), sigma, True)

    @staticmethod
    def negative_spatial(
        sigma: SpatialFormula,
        gamma: Iterable[EqAtom] = (),
        delta: Iterable[EqAtom] = (),
    ) -> "Clause":
        """Build a negative spatial clause ``Gamma, Sigma -> Delta``."""
        return Clause(frozenset(gamma), frozenset(delta), sigma, False)

    # -- shape predicates ----------------------------------------------------
    #
    # ``is_pure``, ``is_empty`` and ``is_tautology`` are precomputed by
    # ``__post_init__`` (see below): they are read on every enqueue, every
    # model-generation round and every redundancy check, and recomputing the
    # tautology test in particular (a frozenset intersection) dominated those
    # paths.

    @property
    def is_positive_spatial(self) -> bool:
        """True for clauses of the form ``Gamma -> Delta, Sigma``."""
        return self.spatial is not None and self.spatial_on_right

    @property
    def is_negative_spatial(self) -> bool:
        """True for clauses of the form ``Gamma, Sigma -> Delta``."""
        return self.spatial is not None and not self.spatial_on_right

    # -- queries -----------------------------------------------------------
    def constants(self) -> FrozenSet[Const]:
        """All constants occurring in the clause (memoised).

        Callers treat a clause's constant set as a static property — the
        incremental model generator keys its per-constant invalidation on it
        every round — so it is computed once per clause object.
        """
        cached = self._constants  # type: ignore[attr-defined]
        if cached is not None:
            return cached
        result = set()
        for atom in self.gamma:
            result.add(atom.left)
            result.add(atom.right)
        for atom in self.delta:
            result.add(atom.left)
            result.add(atom.right)
        if self.spatial is not None:
            result.update(self.spatial.constants())
        cached = frozenset(result)
        object.__setattr__(self, "_constants", cached)
        return cached

    def literals(self) -> Tuple[Tuple[EqAtom, bool], ...]:
        """The pure literals of the clause as ``(atom, positive)`` pairs.

        Atoms are sorted by their precomputed structural key rather than by
        formatting them: this method sits on hot paths (CNF embedding, proof
        reconstruction) where string building shows up in profiles.
        """
        negative = tuple((atom, False) for atom in self.sorted_gamma())
        positive = tuple((atom, True) for atom in self.sorted_delta())
        return negative + positive

    def sorted_gamma(self) -> Tuple[EqAtom, ...]:
        """``gamma`` as a tuple in structural (presentation) sort-key order.

        This is the *canonical iteration order* of the clause's negative
        atoms.  The superposition calculus iterates negative literals in this
        order when generating inferences, so that every engine configuration
        — naive scan, clause index, dense integer kernel — emits conclusions
        in an identical sequence.  Memoised: the same clause is asked for its
        sorted sides by every inference it participates in.
        """
        cached = self._sorted_gamma  # type: ignore[attr-defined]
        if cached is None:
            cached = tuple(sorted(self.gamma, key=_atom_key))
            object.__setattr__(self, "_sorted_gamma", cached)
        return cached

    def sorted_delta(self) -> Tuple[EqAtom, ...]:
        """``delta`` as a tuple in structural sort-key order (memoised)."""
        cached = self._sorted_delta  # type: ignore[attr-defined]
        if cached is None:
            cached = tuple(sorted(self.delta, key=_atom_key))
            object.__setattr__(self, "_sorted_delta", cached)
        return cached

    def subsumes(self, other: "Clause") -> bool:
        """Clause subsumption for pure clauses.

        ``C`` subsumes ``D`` when every literal of ``C`` occurs in ``D`` (for
        ground clauses subsumption is simply literal-set inclusion).  Spatial
        clauses only subsume syntactically identical clauses.
        """
        if self.spatial is not None or other.spatial is not None:
            return self == other
        return self.gamma <= other.gamma and self.delta <= other.delta

    # -- transformations ----------------------------------------------------
    def substitute(self, mapping: Dict[Const, Const]) -> "Clause":
        """Apply a constant substitution to every component of the clause."""
        return Clause(
            frozenset(atom.substitute(mapping) for atom in self.gamma),
            frozenset(atom.substitute(mapping) for atom in self.delta),
            None if self.spatial is None else self.spatial.substitute(mapping),
            self.spatial_on_right,
        )

    def with_spatial(self, sigma: Optional[SpatialFormula], on_right: bool = True) -> "Clause":
        """Return a copy of the clause with its spatial component replaced."""
        return Clause(self.gamma, self.delta, sigma, on_right)

    def add_gamma(self, atoms: Iterable[EqAtom]) -> "Clause":
        """Return the clause with extra atoms added to the left-hand side."""
        return Clause(self.gamma | frozenset(atoms), self.delta, self.spatial, self.spatial_on_right)

    def add_delta(self, atoms: Iterable[EqAtom]) -> "Clause":
        """Return the clause with extra atoms added to the right-hand side."""
        return Clause(self.gamma, self.delta | frozenset(atoms), self.spatial, self.spatial_on_right)

    def pure_part(self) -> "Clause":
        """The pure clause obtained by dropping the spatial formula."""
        return Clause(self.gamma, self.delta, None, True)

    def __post_init__(self) -> None:
        # Clauses are set members throughout saturation; the generated
        # dataclass hash would rebuild a field tuple per call, so precompute
        # it.  The frozensets it covers cache their own hashes, which also
        # makes later membership tests on gamma/delta cheap.
        object.__setattr__(
            self, "_hash", hash((self.gamma, self.delta, self.spatial, self.spatial_on_right))
        )
        pure = self.spatial is None
        #: True when the clause contains no spatial formula.
        object.__setattr__(self, "is_pure", pure)
        #: True for the empty clause (the contradiction, written ``□``).
        object.__setattr__(self, "is_empty", pure and not self.gamma and not self.delta)
        # A pure clause is a tautology when some atom appears on both sides or
        # when the right-hand side contains a trivial equality ``x = x``;
        # spatial clauses are never considered tautologies by this check.
        tautology = pure and (
            any(atom.is_trivial for atom in self.delta) or bool(self.gamma & self.delta)
        )
        #: Cheap syntactic tautology check for pure clauses.
        object.__setattr__(self, "is_tautology", tautology)
        # Lazily-filled caches for the canonical iteration order (see
        # ``sorted_gamma``/``sorted_delta``) and the constant set.
        object.__setattr__(self, "_sorted_gamma", None)
        object.__setattr__(self, "_sorted_delta", None)
        object.__setattr__(self, "_constants", None)

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __getstate__(self) -> Dict[str, object]:
        # The normaliser's cross-round state (``_normalizer``, see
        # :mod:`repro.spatial.normalization`) belongs to one ``prove()`` call
        # and does not travel with a pickled clause.
        state = dict(self.__dict__)
        state.pop("_normalizer", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # The cached hash derives from the writer's string hashes
        # (``PYTHONHASHSEED``); recompute it in this process.
        self.__dict__.update(state)
        object.__setattr__(
            self, "_hash", hash((self.gamma, self.delta, self.spatial, self.spatial_on_right))
        )

    # -- presentation ---------------------------------------------------------
    def __str__(self) -> str:
        from repro.logic.printer import format_clause

        return format_clause(self)


#: The empty clause ``□`` — deriving it refutes the clause set.
EMPTY_CLAUSE = Clause.pure()
