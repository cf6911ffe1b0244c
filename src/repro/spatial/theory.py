"""The pluggable spatial-theory layer.

The paper presents the entailment procedure for one fixed fragment —
``next``/``lseg`` — but nothing in the *algorithm* depends on that choice:
superposition, the clausal embedding, normalisation (N1–N4) and the Figure 3
loop are all parametric in the predicate vocabulary.  What *is* predicate
specific is

* the well-formedness axioms (which shapes are unsatisfiable and which pure
  clauses they yield),
* the forced-path unfolding rules (U1–U5/SR) that rewrite a demanded spatial
  formula into the asserted one,
* the candidate-model construction (how each atom is realised as concrete
  heap cells),
* the exact satisfaction relation of each atom, and
* the counterexample tweaks of Lemma 4.4 (how a failed unfolding is turned
  into a concrete falsifying heap).

A :class:`SpatialTheory` bundles exactly these ingredients behind one object.
The builtin singly-linked theory (:mod:`repro.spatial.sll`) is the paper's
fragment; the doubly-linked theory (:mod:`repro.spatial.dll`) proves the
abstraction out with two-field cells ``cell(x, n, p)`` and segments
``dlseg(x, px, y, py)``.  Both keep the fragment's crucial *no-search*
property: because a heap is a partial function, the cells any atom may own
are forced.

Atoms carry their theory as a string tag (:attr:`SpatialAtom.theory`), so
formulas remain plain data; :func:`theory_of` recovers the owning theory from
any formula/clause/entailment and rejects mixed-theory inputs, which have no
meaningful heap model (the theories disagree on the cell layout).

See ``ARCHITECTURE.md`` for the layer diagram and a walkthrough of adding a
new predicate family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.logic.atoms import EqAtom, SpatialAtom, SpatialFormula
from repro.logic.terms import Const

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    import random

    from repro.logic.clauses import Clause
    from repro.spatial.unfolding import UnfoldingOutcome

__all__ = [
    "PredicateSignature",
    "SpatialTheory",
    "MixedTheoryError",
    "UnknownTheoryError",
    "register_theory",
    "get_theory",
    "available_theories",
    "predicate_table",
    "theory_of",
]


class MixedTheoryError(ValueError):
    """Raised when one formula/entailment mixes atoms of different theories.

    Theories disagree on the heap-cell layout (one pointer field vs two), so a
    mixed formula has no model space to interpret it in.
    """


class UnknownTheoryError(KeyError):
    """Raised when a theory name is not in the registry."""


@dataclass(frozen=True)
class PredicateSignature:
    """Declarative description of one spatial predicate.

    Attributes
    ----------
    name:
        The surface-syntax predicate name (``next``, ``lseg``, ``cell``, ...).
    kind:
        ``"cell"`` for points-to-like predicates that always occupy exactly
        one heap cell, ``"segment"`` for possibly-empty inductive predicates.
    arity:
        Number of constant arguments.
    constructor:
        Callable building the atom from ``arity`` constants, in surface
        argument order.
    doc:
        One-line reading of the predicate, shown in diagnostics and docs.
    """

    name: str
    kind: str
    arity: int
    constructor: Callable[..., SpatialAtom]
    doc: str = ""


class SpatialTheory:
    """A predicate family plus all the layer-specific logic it owns.

    Subclasses implement the hooks below; everything else in the pipeline
    (CNF embedding, saturation, normalisation, the Figure 3 loop, batching,
    caching, fuzzing) is theory independent and must not be overridden.
    """

    #: Registry key and :attr:`SpatialAtom.theory` tag of the family.
    name: str = ""

    #: One-line description, shown in docs and diagnostics.
    description: str = ""

    #: Number of pointer fields per heap cell.  Determines the heap-value
    #: shape: 1 field stores a bare location, k > 1 fields store a k-tuple.
    cell_fields: int = 1

    #: The predicate signatures of the family, in canonical order.
    signatures: Tuple[PredicateSignature, ...] = ()

    # -- classification ----------------------------------------------------
    def is_segment(self, atom: SpatialAtom) -> bool:
        """True for possibly-empty inductive (segment-like) atoms."""
        raise NotImplementedError

    def is_cell(self, atom: SpatialAtom) -> bool:
        """True for points-to-like atoms (exactly one cell, never empty)."""
        return not self.is_segment(atom)

    # -- saturation-side hooks ---------------------------------------------
    #
    # The well-formedness rules are stated atom by atom and pair by pair;
    # :mod:`repro.spatial.wellformedness` files the anchors, pairs the atoms
    # that collide and builds the pure conclusions (``Gamma -> Delta`` plus
    # the rule's extra equalities).  The consequences must be sound axioms of
    # the theory: shapes no heap can realise, with the emptiness equations of
    # the involved segments added to ``Delta``.
    def allocation_anchors(self, atom: SpatialAtom) -> Tuple[Const, ...]:
        """The locations ``atom`` allocates in every heap satisfying it.

        The address comes first (anchor index 0).  Two anchors of different
        atoms at one non-nil location make the atoms collide
        (:meth:`pair_consequence`).  The default is the address alone.
        """
        return (atom.source,)  # the address

    def atom_consequences(self, atom: SpatialAtom) -> Tuple[Tuple[str, Tuple[EqAtom, ...]], ...]:
        """The rules ``atom`` fires on its own, as ``(rule, extra_delta)`` pairs.

        For example an atom allocating ``nil`` (W1/W2).  The result depends
        on the atom alone; the pairs are emitted in the order given.
        """
        raise NotImplementedError

    def pair_consequence(
        self, first: SpatialAtom, second: SpatialAtom, k_first: int, k_second: int
    ) -> Tuple[str, Tuple[EqAtom, ...], Tuple[SpatialAtom, ...]]:
        """The rule for two atoms whose anchors collide.

        Anchor ``k_first`` of ``first`` and anchor ``k_second`` of ``second``
        name one location, and ``first`` precedes ``second`` in the formula.
        Returns ``(rule, extra_delta, offending atoms)``.
        """
        raise NotImplementedError

    def unfold(self, positive: "Clause", negative: "Clause") -> "UnfoldingOutcome":
        """Rewrite the negative clause's formula into the positive one.

        Both clauses are normalised (and the positive one is well-formed: the
        well-formedness rules of :meth:`atom_consequences` and
        :meth:`pair_consequence` no longer fire).  The rewrite
        must require no search — the forced-path property of the fragment —
        and on failure must report one of the failure kinds that
        :meth:`counterexample_candidates` knows how to realise.  The rewrite
        is recorded as :class:`~repro.spatial.unfolding.UnfoldingMove`
        records and finished by
        :func:`~repro.spatial.unfolding.resolve_spatial`, which applies them
        all at once.
        """
        raise NotImplementedError

    # -- model-side hooks --------------------------------------------------
    def model_heap_cells(
        self, locate: Callable[[Const], str], positive: "Clause"
    ) -> Dict[str, object]:
        """The candidate heap induced by a normalised positive spatial clause.

        ``locate`` maps constants to location names through the equality
        model.  Cell values are bare locations for one-field theories and
        location tuples otherwise (matching :attr:`cell_fields`).
        """
        raise NotImplementedError

    def satisfies_spatial(self, stack, heap, sigma: SpatialFormula) -> bool:
        """The exact relation ``s, h |= S1 * ... * Sn`` for this theory."""
        raise NotImplementedError

    def counterexample_candidates(
        self,
        locate: Callable[[Const], str],
        base_cells: Dict[str, object],
        outcome: Optional["UnfoldingOutcome"],
    ) -> List[Tuple[Dict[str, object], str]]:
        """Candidate falsifying heaps derived from a failed unfolding.

        Returns ``(cells, description)`` pairs in decreasing order of
        preference; the counterexample builder appends the untweaked base
        heap as the final candidate and verifies each against the exact
        semantics before returning it.
        """
        raise NotImplementedError

    # -- generator hooks (fuzzing / metamorphic transforms) -----------------
    def frame_atom(self, source: Const, pool: List[Const], rng: "random.Random") -> SpatialAtom:
        """A random atom addressed at the fresh variable ``source``.

        Used by the frame-extension metamorphic transform; the atom's only
        requirement is that its address is ``source`` (so the frame is
        separated from the rest of the formula by freshness).
        """
        raise NotImplementedError

    def empty_segment_atom(
        self, anchor: Const, pool: List[Const], rng: "random.Random"
    ) -> SpatialAtom:
        """A trivial (empty) segment atom anchored at ``anchor``.

        Must satisfy ``atom.is_trivial``, i.e. be the unit of ``*``.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return "<SpatialTheory {!r}>".format(self.name)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, SpatialTheory] = {}
_BUILTINS_LOADED = False

#: The theory assumed for purely-pure / ``emp`` inputs, which are meaningful
#: in every theory.  The builtin singly-linked fragment keeps the seed
#: behaviour byte-identical.
DEFAULT_THEORY = "sll"


def register_theory(theory: SpatialTheory) -> SpatialTheory:
    """Add a theory to the registry (idempotent per name; returns it)."""
    if not theory.name:
        raise ValueError("a spatial theory needs a non-empty name")
    _REGISTRY[theory.name] = theory
    return theory


def _ensure_builtins() -> None:
    """Import the builtin theories on first registry access.

    Lazy so that :mod:`repro.spatial.theory` can be imported from anywhere in
    the package (including the modules the builtin theories themselves
    import) without a cycle.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.spatial import dll, sll  # noqa: F401  (self-registering imports)


def get_theory(name: str) -> SpatialTheory:
    """Look a theory up by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownTheoryError(
            "unknown spatial theory {!r}; registered: {}".format(
                name, ", ".join(sorted(_REGISTRY)) or "none"
            )
        )


def available_theories() -> Tuple[SpatialTheory, ...]:
    """All registered theories, sorted by name."""
    _ensure_builtins()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def predicate_table() -> Dict[str, Tuple[SpatialTheory, PredicateSignature]]:
    """Map every registered predicate name to its theory and signature.

    This is the parser's single source of truth for the spatial surface
    syntax; predicate names must therefore be globally unique.
    """
    _ensure_builtins()
    table: Dict[str, Tuple[SpatialTheory, PredicateSignature]] = {}
    for theory in available_theories():
        for signature in theory.signatures:
            if signature.name in table:
                raise ValueError(
                    "predicate name {!r} registered by two theories".format(signature.name)
                )
            table[signature.name] = (theory, signature)
    return table


def _theory_names(atoms: Iterable[SpatialAtom]) -> frozenset:
    return frozenset(atom.theory for atom in atoms)


def theory_of(*sources) -> SpatialTheory:
    """The unique theory owning the atoms of the given sources.

    Accepts any mix of :class:`SpatialFormula`, clause-like objects (with a
    ``spatial`` attribute), entailment-like objects (with ``lhs_spatial`` /
    ``rhs_spatial``) and iterables of atoms.  Sources with no spatial atoms
    contribute nothing; when *no* source has an atom the default (singly
    linked) theory is returned, since pure reasoning is theory independent.

    Raises :class:`MixedTheoryError` when two different theories occur.
    """
    names = set()
    for source in sources:
        if source is None:
            continue
        if isinstance(source, SpatialFormula):
            names.update(_theory_names(source))
        elif hasattr(source, "lhs_spatial"):
            names.update(_theory_names(source.lhs_spatial))
            names.update(_theory_names(source.rhs_spatial))
        elif hasattr(source, "spatial"):
            if source.spatial is not None:
                names.update(_theory_names(source.spatial))
        else:
            names.update(_theory_names(source))
    if len(names) > 1:
        raise MixedTheoryError(
            "spatial atoms of different theories may not be mixed: {}".format(
                ", ".join(sorted(names))
            )
        )
    return get_theory(names.pop() if names else DEFAULT_THEORY)
