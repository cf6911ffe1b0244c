"""A Smallfoot-style entailment prover (the paper's complete baseline).

Smallfoot's entailment checker implements the original Berdine–Calcagno–
O'Hearn proof system for the fragment.  The defining characteristic of that
system — and the reason the paper's Tables 1–3 show it degrading so quickly —
is that equality (aliasing) decisions and shape decisions are interleaved in
the proof search itself: whenever the truth of the sequent depends on whether
two expressions alias, the search *case splits* and must prove both branches.
SLP instead asks the superposition model for one concrete aliasing arrangement
and revisits it only when the spatial rules discover a new pure fact.

This module reimplements the baseline in that spirit:

* pure reasoning is a union-find over the equalities plus a set of
  disequalities;
* the left-hand side is repeatedly normalised: trivial segments are dropped,
  impossible shapes (a cell at ``nil``, two cells at one address) close the
  branch, and shapes that force equalities (``lseg(nil, y)``,
  ``next``/``lseg`` sharing an address) add them;
* two list segments sharing an address, an undetermined segment blocking a
  match, or a right-hand segment whose emptiness is unknown all trigger a
  **case split**: both branches must be proved;
* matching of the right-hand side against the left-hand side consumes atoms
  one cell or one segment at a time, with the same side conditions as the
  paper's unfolding rules.

The prover is sound and complete for the fragment (the test suite
cross-validates it against SLP and against the semantic enumeration oracle on
thousands of random entailments) but its search is worst-case exponential in
the number of case splits, which is exactly the behaviour the paper's
evaluation attributes to Smallfoot.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.baselines.common import (
    sll_only,
    BaselineResult,
    BaselineVerdict,
    ResourceBudget,
    ResourceExhausted,
    SequentState,
    drop_rhs_pure,
    initial_state,
    state_with_disequality,
    state_with_equality,
)
from repro.logic.atoms import ListSegment, PointsTo, SpatialAtom
from repro.logic.formula import Entailment
from repro.logic.terms import Const, NIL


class SmallfootProver:
    """Sound and complete baseline prover with unguided case-split search."""

    def __init__(self, max_steps: Optional[int] = 5_000_000, max_seconds: Optional[float] = None):
        self.max_steps = max_steps
        self.max_seconds = max_seconds

    # ------------------------------------------------------------------
    def prove(self, entailment: Entailment) -> BaselineResult:
        """Decide ``entailment``; may answer ``unknown`` if the budget is exhausted.

        The rule set only speaks the singly-linked (``next``/``lseg``)
        vocabulary; entailments of any other spatial theory answer ``unknown``.
        """
        if not sll_only(entailment):
            return BaselineResult(verdict=BaselineVerdict.UNKNOWN, entailment=entailment)
        budget = ResourceBudget(max_steps=self.max_steps, max_seconds=self.max_seconds)
        budget.start()
        start = time.perf_counter()
        state = initial_state(entailment)
        try:
            outcome = BaselineVerdict.VALID if self._valid(state, budget) else BaselineVerdict.INVALID
        except ResourceExhausted:
            outcome = BaselineVerdict.UNKNOWN
        return BaselineResult(
            verdict=outcome,
            entailment=entailment,
            steps=budget.steps,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _valid(self, state: Optional[SequentState], budget: ResourceBudget) -> bool:
        """Is the sequent valid?  ``None`` states (inconsistent assumptions) hold vacuously."""
        budget.tick()
        if state is None:
            return True

        # ---------------- left-hand side propagation -----------------------
        action = self._propagate_lhs(state)
        if action is not None:
            kind, payload = action
            if kind == "valid":
                return True
            if kind == "assume":
                left, right = payload
                return self._valid(state_with_equality(state, left, right), budget)
            if kind == "split":
                (a1, b1), (a2, b2) = payload
                return self._valid(
                    state_with_equality(state, a1, b1), budget
                ) and self._valid(state_with_equality(state, a2, b2), budget)
            raise AssertionError("unknown propagation action {}".format(kind))

        # ---------------- right-hand side pure literals --------------------
        for literal in state.rhs_pure:
            left, right = literal.atom.left, literal.atom.right
            if literal.positive:
                # An equality between two distinct representatives is never
                # entailed: the left-hand side is satisfiable with all
                # representatives denoting distinct locations.
                if left != right:
                    return False
            else:
                if left == right:
                    return False
                if not self._entails_disequality(state, left, right, budget):
                    return False
        state = drop_rhs_pure(state)

        # ---------------- spatial matching ----------------------------------
        return self._match(state, budget)

    # ------------------------------------------------------------------
    @staticmethod
    def _propagate_lhs(state: SequentState):
        """One step of left-hand side normalisation, or ``None`` if already normal.

        Returns ``("valid", None)`` when the left-hand side is inconsistent,
        ``("assume", (x, y))`` when an equality is forced, and
        ``("split", ((x, y), (x, z)))`` when a case split is required.
        """
        atoms = state.lhs_atoms
        by_address = {}
        for atom in atoms:
            if isinstance(atom, PointsTo) and atom.source.is_nil:
                return ("valid", None)
            if isinstance(atom, ListSegment) and atom.source.is_nil:
                return ("assume", (atom.target, NIL))
            previous = by_address.get(atom.source)
            if previous is None:
                by_address[atom.source] = atom
                continue
            first_next = isinstance(previous, PointsTo)
            second_next = isinstance(atom, PointsTo)
            if first_next and second_next:
                return ("valid", None)
            if first_next and not second_next:
                return ("assume", (atom.source, atom.target))
            if second_next and not first_next:
                return ("assume", (previous.source, previous.target))
            return (
                "split",
                ((previous.source, previous.target), (atom.source, atom.target)),
            )
        return None

    # ------------------------------------------------------------------
    def _entails_disequality(
        self, state: SequentState, left: Const, right: Const, budget: ResourceBudget
    ) -> bool:
        """Does the left-hand side entail ``left != right``?

        Checked by refutation: the disequality is entailed exactly when adding
        the corresponding equality makes the left-hand side unsatisfiable.
        """
        assumed = state_with_equality(state, left, right)
        return not self._lhs_satisfiable(assumed, budget)

    def _lhs_satisfiable(self, state: Optional[SequentState], budget: ResourceBudget) -> bool:
        """Is the left-hand side (pure and spatial) satisfiable?"""
        budget.tick()
        if state is None:
            return False
        action = self._propagate_lhs(state)
        if action is None:
            # A normal left-hand side is always satisfiable: map every
            # representative to a distinct location and realise every segment
            # as a single cell.
            return True
        kind, payload = action
        if kind == "valid":
            return False
        if kind == "assume":
            left, right = payload
            return self._lhs_satisfiable(state_with_equality(state, left, right), budget)
        (a1, b1), (a2, b2) = payload
        return self._lhs_satisfiable(
            state_with_equality(state, a1, b1), budget
        ) or self._lhs_satisfiable(state_with_equality(state, a2, b2), budget)

    # ------------------------------------------------------------------
    def _match(self, state: Optional[SequentState], budget: ResourceBudget) -> bool:
        """Subtractive matching of the right-hand atoms against the left-hand atoms.

        Matching consumes atoms iteratively.  Whenever it needs an aliasing
        fact that the current pure context does not decide, it **case splits**:
        the two strengthened sequents are re-proved from the *unconsumed*
        state, because atoms already matched still constrain which aliasing
        arrangements are possible.  Each split permanently decides one pair of
        constants, so the recursion terminates.
        """
        budget.tick()
        if state is None:
            return True

        lhs: List[SpatialAtom] = list(state.lhs_atoms)
        rhs: List[SpatialAtom] = list(state.rhs_atoms)

        def split(left: Const, right: Const) -> bool:
            # Restart from the full (unconsumed) sequent with the pair decided.
            return self._valid(state_with_equality(state, left, right), budget) and self._valid(
                state_with_disequality(state, left, right), budget
            )

        while rhs:
            budget.tick()
            atom = rhs[0]
            by_address = {candidate.source: candidate for candidate in lhs}

            if isinstance(atom, PointsTo):
                cell = by_address.get(atom.source)
                if cell is None:
                    return False
                if isinstance(cell, ListSegment):
                    if state.distinct(cell.source, cell.target):
                        # A definitely non-empty segment never entails a single cell.
                        return False
                    return split(cell.source, cell.target)
                if cell.target != atom.target:
                    return False
                lhs.remove(cell)
                rhs.pop(0)
                continue

            # The demanded atom is a list segment lseg(x, z).
            if atom.source == atom.target:
                rhs.pop(0)
                continue
            if not state.distinct(atom.source, atom.target):
                # Unknown emptiness of the demanded segment: case split.
                return split(atom.source, atom.target)

            cell = by_address.get(atom.source)
            if cell is None:
                return False

            if isinstance(cell, PointsTo):
                lhs.remove(cell)
                rhs[0] = ListSegment(cell.target, atom.target)
                continue

            # The producer is itself a list segment.
            if cell.target == atom.target:
                # Identical segments (same end point): frame them away.  The
                # demanded segment's portion is forced to be exactly the
                # producing segment's portion, so no side condition is needed.
                lhs.remove(cell)
                rhs.pop(0)
                continue
            if not state.distinct(cell.source, cell.target):
                return split(cell.source, cell.target)

            # The guard asks whether the demanded end point is guaranteed not to
            # lie strictly inside the producing segment: it is when it is nil
            # or allocated by *any other* atom of the (full, unconsumed)
            # left-hand side, since separation keeps those cells disjoint.
            target = atom.target
            guard = target.is_nil or any(
                other is not cell
                and other.source == target
                and (isinstance(other, PointsTo) or state.distinct(other.source, other.target))
                for other in state.lhs_atoms
            )
            if guard:
                lhs.remove(cell)
                rhs[0] = ListSegment(cell.target, atom.target)
                continue

            anchor = next(
                (other for other in state.lhs_atoms if other is not cell and other.source == target),
                None,
            )
            if (
                anchor is not None
                and isinstance(anchor, ListSegment)
                and not state.distinct(anchor.source, anchor.target)
            ):
                # The guard hinges on whether the segment at ``target`` is empty.
                return split(anchor.source, anchor.target)

            # The demanded segment should stop at a location the left-hand side
            # never allocates: re-routing the producing segment through that
            # location yields a countermodel.
            return False

        # Everything demanded has been produced; any leftover heap on the left
        # (including a possibly-empty segment) admits a model with a non-empty
        # remainder, which the empty right-hand side rejects.
        return not lhs
