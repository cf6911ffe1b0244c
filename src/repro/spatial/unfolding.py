"""Unfolding: rewrite a demanded spatial formula into the asserted one.

Unfolding is the heart of the prover's spatial reasoning.  Its inputs are

* a *positive* spatial clause ``C = Gamma -> Delta, Sigma`` whose spatial
  formula has already been normalised and checked well-formed, and
* a *negative* spatial clause ``C' = Gamma', Sigma' -> Delta'`` (also
  normalised).

The positive formula induces a concrete heap — its graph — and the procedure
checks whether that heap also satisfies ``Sigma'``.  Crucially, because both
formulas are normalised, the check involves **no search**: the heap is a
partial function, so the path each segment atom of ``Sigma'`` must follow is
forced, and every rewrite of ``Sigma'`` towards ``Sigma`` is an application of
exactly one unfolding rule of the owning spatial theory
(:mod:`repro.spatial.theory`).

For the builtin singly-linked theory these are the paper's rules (Figure 1,
Lemma 4.4):

* U1 turns a final ``lseg(x, z)`` into the cell ``next(x, z)`` (side condition
  ``x = z`` recorded in ``Delta'``);
* U2 peels a cell ``next(x, y)`` off the front of ``lseg(x, z)`` (side
  condition ``x = z``);
* U3/U4/U5 split ``lseg(x, z)`` at an intermediate point ``y`` when the
  positive formula guarantees that ``z`` cannot occur strictly inside the
  remaining segment (``z`` is ``nil``, or ``z`` is allocated by a ``next`` or
  ``lseg`` atom of ``Sigma``; U5 records the side condition ``z = w``);
* SR finally resolves the two identical spatial formulas away, producing a
  pure clause.

The doubly-linked theory (:mod:`repro.spatial.dll`) instantiates the same
rule skeleton over two-field cells, additionally tracking ``prev`` backlinks
and the segment's last cell.

A theory's ``unfold`` does not rewrite the negative clause itself: it
records each U-rule application as an :class:`UnfoldingMove` (the rule, the
atom it rewrites, the atoms replacing it, the side condition and a
description, rendered when read).  :func:`resolve_spatial` then applies all
moves to one atom multiset, builds the rewritten negative clause once,
checks that its formula is ``Sigma`` and resolves it away.  A clause per
step would re-sort and re-hash the whole formula at every step, making an
unfolding quadratic in the length of the chains it walks.  Those per-step
clauses of the paper's derivation (:class:`UnfoldingStep`, ``before`` and
``after`` each rule) are replayed from the moves only when a caller reads
:attr:`UnfoldingOutcome.steps`: the proof trace does, the prover's step
counter (:attr:`UnfoldingOutcome.step_count`) does not.

When the rewrite cannot be completed the procedure reports *why*, and the
reason tells the counterexample builder how to exhibit a heap satisfying the
left-hand side but not the right-hand side:

* ``"mismatch"`` — the graph of ``Sigma`` itself already fails ``Sigma'``;
* ``"next_expects_cell"`` — ``Sigma'`` pins down cells where ``Sigma`` only
  guarantees a stretchable segment (stretching the segment through a fresh
  anonymous location breaks the entailment);
* ``"dangling_segment"`` — a segment of ``Sigma'`` should stop at a location
  about which ``Sigma`` says nothing (re-routing the heap through that
  location breaks the entailment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.atoms import EqAtom, SpatialAtom, SpatialFormula
from repro.logic.clauses import Clause
from repro.logic.terms import Const
from repro.spatial.theory import theory_of


@dataclass(frozen=True)
class UnfoldingStep:
    """One application of an unfolding rule (or of spatial resolution)."""

    rule: str
    before: Clause
    after: Clause
    positive_premise: Optional[Clause] = None
    side_condition: Optional[EqAtom] = None
    description: str = ""


@dataclass(frozen=True)
class UnfoldingMove:
    """One U-rule application, recorded before any clause is rewritten.

    The move rewrites one occurrence of ``old`` in the negative formula into
    the atoms ``new`` and adds ``side_condition`` (when present) to
    ``Delta'``.  Its description is ``template`` filled with ``subjects``,
    rendered only when read.
    """

    rule: str
    old: SpatialAtom
    new: Tuple[SpatialAtom, ...]
    side_condition: Optional[EqAtom]
    template: str
    subjects: Tuple[object, ...] = ()

    @property
    def description(self) -> str:
        """What the step does, in words (shown in proof traces)."""
        return self.template.format(*self.subjects)


@dataclass
class UnfoldingOutcome:
    """The result of attempting to unfold ``Sigma'`` against ``Sigma``.

    Attributes
    ----------
    success:
        True when the rewrite completed and spatial resolution produced a pure
        clause.
    derived_pure:
        The pure clause produced by SR (only on success).
    moves:
        The U-rule applications performed, in order.  A ``dangling_segment``
        failure keeps the moves made before it; other failures have none.
    positive, negative:
        The two premises, from which :attr:`steps` replays the moves.
    failure_kind:
        One of ``"mismatch"``, ``"next_expects_cell"``, ``"dangling_segment"``
        when ``success`` is false.
    failure_edge:
        For the two case-(b) failures, the edge ``(x, y)`` of the positive
        graph involved in the failure.
    failure_atom:
        For the two case-(b) failures, the positive atom involved — the
        segment the counterexample builder stretches or re-routes.
    failure_target:
        For ``"dangling_segment"``, the end point ``z`` the segment should have
        reached.
    failure_detail:
        A human readable explanation (used in results and logs).
    """

    success: bool
    derived_pure: Optional[Clause] = None
    moves: Tuple[UnfoldingMove, ...] = ()
    positive: Optional[Clause] = None
    negative: Optional[Clause] = None
    failure_kind: Optional[str] = None
    failure_edge: Optional[Tuple[Const, Const]] = None
    failure_atom: Optional[SpatialAtom] = None
    failure_target: Optional[Const] = None
    failure_detail: str = ""
    _steps: Optional[List[UnfoldingStep]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def step_count(self) -> int:
        """The number of :attr:`steps`, without building them."""
        return len(self.moves) + (1 if self.success else 0)

    @property
    def steps(self) -> List[UnfoldingStep]:
        """The rule applications with their clauses, in order (ending with SR
        on success), replayed from the moves on first access."""
        if self._steps is None:
            self._steps = _replay(self)
        return self._steps


def _replay(outcome: UnfoldingOutcome) -> List[UnfoldingStep]:
    """The per-step clauses of an outcome: apply its moves one at a time."""
    steps: List[UnfoldingStep] = []
    current = outcome.negative
    for move in outcome.moves:
        assert current is not None and current.spatial is not None
        delta = current.delta
        if move.side_condition is not None:
            delta = delta | {move.side_condition}
        after = Clause(
            current.gamma,
            delta,
            current.spatial.replace(move.old, move.new),
            spatial_on_right=False,
        )
        steps.append(
            UnfoldingStep(
                rule=move.rule,
                before=current,
                after=after,
                positive_premise=outcome.positive,
                side_condition=move.side_condition,
                description=move.description,
            )
        )
        current = after
    if outcome.success:
        assert current is not None and outcome.derived_pure is not None
        steps.append(
            UnfoldingStep(
                rule="SR",
                before=current,
                after=outcome.derived_pure,
                positive_premise=outcome.positive,
                description="resolve the matching spatial formulas away",
            )
        )
    return steps


def address_map(sigma: SpatialFormula) -> Dict[Const, SpatialAtom]:
    """Map each address of a well-formed formula to its unique atom."""
    mapping: Dict[Const, SpatialAtom] = {}
    for atom in sigma:
        if atom.is_trivial:
            continue
        if atom.address in mapping:
            raise ValueError(
                "unfolding requires a well-formed positive formula; "
                "address {} occurs twice".format(atom.address)
            )
        mapping[atom.address] = atom
    return mapping


def mismatch(detail: str) -> UnfoldingOutcome:
    """A failed outcome of kind ``"mismatch"`` (the base graph falsifies)."""
    return UnfoldingOutcome(success=False, failure_kind="mismatch", failure_detail=detail)


def unclaimed_cells_mismatch(claimed: Dict[Const, bool]) -> Optional[UnfoldingOutcome]:
    """The end-of-matching check: every positive atom must have been claimed.

    Returns the ``"mismatch"`` outcome naming the uncovered addresses, or
    ``None`` when the cover is complete.  Shared by every theory's matcher.
    """
    unclaimed = [address for address, used in claimed.items() if not used]
    if not unclaimed:
        return None
    return mismatch(
        "the right-hand side leaves the cell(s) at {} uncovered".format(
            ", ".join(str(address) for address in sorted(unclaimed, key=str))
        )
    )


def _rewrite(negative: Clause, moves: Sequence[UnfoldingMove]) -> Clause:
    """The negative clause after all ``moves``, built once.

    The moves are applied to one atom multiset — an atom a move introduces
    may be rewritten again by a later move, as a peeled segment is — and the
    side conditions are added to ``Delta'`` together.  The result equals the
    clause that applying the moves one at a time produces.
    """
    sigma = negative.spatial
    assert sigma is not None
    if not moves:
        return negative
    # Keyed by the structural sort key, which determines the atom and hashes
    # without calling back into Python.
    counts: Dict[Tuple[str, ...], int] = {}
    atoms: Dict[Tuple[str, ...], SpatialAtom] = {}
    for atom in sigma:
        key = atom.sort_key
        counts[key] = counts.get(key, 0) + 1
        atoms[key] = atom
    sides: List[EqAtom] = []
    for move in moves:
        key = move.old.sort_key
        left = counts.get(key, 0)
        if not left:
            raise KeyError("atom {} not present in {}".format(move.old, sigma))
        counts[key] = left - 1
        for atom in move.new:
            key = atom.sort_key
            counts[key] = counts.get(key, 0) + 1
            atoms[key] = atom
        if move.side_condition is not None:
            sides.append(move.side_condition)
    rewritten = [atoms[key] for key, count in counts.items() for _ in range(count)]
    delta = negative.delta.union(sides) if sides else negative.delta
    return Clause(negative.gamma, delta, SpatialFormula(rewritten), spatial_on_right=False)


def dangling_segment(
    negative: Clause,
    positive: Clause,
    moves: Sequence[UnfoldingMove],
    demanded: SpatialAtom,
    piece: SpatialAtom,
    target: Const,
) -> UnfoldingOutcome:
    """The case-(b) failure: ``demanded`` must stop at ``target``, which the
    left-hand side does not allocate, while its path runs through ``piece``.

    The moves made before the failure stay on the outcome (they count as
    unfolding steps).
    """
    return UnfoldingOutcome(
        success=False,
        moves=tuple(moves),
        positive=positive,
        negative=negative,
        failure_kind="dangling_segment",
        failure_edge=(piece.source, piece.target),
        failure_atom=piece,
        failure_target=target,
        failure_detail=(
            "{} must stop at {} but the left-hand side does not allocate {}".format(
                demanded, target, target
            )
        ),
    )


def resolve_spatial(
    positive: Clause, negative: Clause, moves: Sequence[UnfoldingMove]
) -> UnfoldingOutcome:
    """Spatial resolution: the shared final phase of every theory's unfolding.

    The moves rewrite the negative clause once (:func:`_rewrite`); the two
    spatial formulas then coincide (asserted here) and SR produces the pure
    clause ``Gamma u Gamma' -> Delta u Delta'``.
    """
    sigma = positive.spatial
    rewritten = _rewrite(negative, moves)
    rewritten_sigma = rewritten.spatial
    assert sigma is not None and rewritten_sigma is not None
    # Both formulas are sorted, so comparing their non-trivial atoms in order
    # compares the formulas without their trivial atoms.
    if [atom for atom in rewritten_sigma if not atom.is_trivial] != [
        atom for atom in sigma if not atom.is_trivial
    ]:
        raise AssertionError(
            "unfolding completed but the rewritten formula {} differs from {}".format(
                rewritten_sigma, sigma
            )
        )

    derived = Clause.pure(positive.gamma | rewritten.gamma, positive.delta | rewritten.delta)
    return UnfoldingOutcome(
        success=True,
        derived_pure=derived,
        moves=tuple(moves),
        positive=positive,
        negative=negative,
    )


def unfold(positive: Clause, negative: Clause) -> UnfoldingOutcome:
    """Attempt to rewrite the negative clause's formula into the positive one.

    ``positive`` must be a normalised, well-formed positive spatial clause and
    ``negative`` a normalised negative spatial clause (both as produced by
    :func:`repro.spatial.normalization.normalize_clause`).  The rewrite is
    delegated to the spatial theory owning the formulas' predicates.
    """
    if not positive.is_positive_spatial:
        raise ValueError("the first argument must be a positive spatial clause")
    if not negative.is_negative_spatial:
        raise ValueError("the second argument must be a negative spatial clause")
    return theory_of(positive, negative).unfold(positive, negative)
