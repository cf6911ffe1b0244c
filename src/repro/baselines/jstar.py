"""A jStar-style entailment prover (the paper's incomplete baseline).

jStar discharges entailments by greedy sequent rewriting with a user-supplied
rule set.  The rules distributed with the tool are *incomplete* for the
list-segment fragment — the paper's Section 6 footnote reports that jStar
fails to prove 59 of the 209 verification conditions generated from the
Smallfoot examples, all of them valid.

This baseline mirrors that behaviour.  It applies a fixed set of sound
subtraction rules greedily, with **no case splitting and no backtracking**:

* identical atoms on both sides are framed away;
* empty segments (``lseg(x, x)`` or a segment whose end points are known
  equal) are discarded;
* a demanded ``next(x, y)`` is matched only by a literally identical cell;
* a demanded ``lseg(x, z)`` may consume a cell ``next(x, y)`` when the rules
  can see that ``x != z`` (explicitly, or because ``z`` is ``nil`` or
  allocated by another cell), continuing with ``lseg(y, z)``;
* a demanded ``lseg(x, nil)`` may absorb a left-hand segment ``lseg(x, y)``,
  continuing with ``lseg(y, nil)``.

What is *missing* — deliberately — is the general ``lseg``/``lseg``
composition towards a non-``nil`` end point and every rule that would require
a case analysis on aliasing.  Entailments that need those (for example the
transitivity-style conditions arising from loop invariants) are reported as
``unknown``.  Every rule used is sound, so a ``valid`` answer can be trusted;
the prover never claims validity of an invalid entailment.
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
    initial_state,
    state_with_equality,
)
from repro.logic.atoms import ListSegment, PointsTo, SpatialAtom
from repro.logic.formula import Entailment
from repro.logic.terms import Const, NIL


class JStarProver:
    """Greedy, incomplete sequent-rewriting prover in the style of jStar."""

    def __init__(self, max_steps: Optional[int] = 1_000_000, max_seconds: Optional[float] = None):
        self.max_steps = max_steps
        self.max_seconds = max_seconds

    # ------------------------------------------------------------------
    def prove(self, entailment: Entailment) -> BaselineResult:
        """Attempt to prove ``entailment``; answers ``unknown`` when the rules get stuck.

        The rule set only speaks the singly-linked (``next``/``lseg``)
        vocabulary; entailments of any other spatial theory answer ``unknown``.
        """
        if not sll_only(entailment):
            return BaselineResult(verdict=BaselineVerdict.UNKNOWN, entailment=entailment)
        budget = ResourceBudget(max_steps=self.max_steps, max_seconds=self.max_seconds)
        budget.start()
        start = time.perf_counter()
        try:
            verdict = self._run(initial_state(entailment), budget)
        except ResourceExhausted:
            verdict = BaselineVerdict.UNKNOWN
        return BaselineResult(
            verdict=verdict,
            entailment=entailment,
            steps=budget.steps,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _run(self, state: Optional[SequentState], budget: ResourceBudget) -> BaselineVerdict:
        if state is None:
            return BaselineVerdict.VALID

        state = self._saturate_lhs(state, budget)
        if state is None:
            return BaselineVerdict.VALID

        # Pure right-hand side: only facts directly visible to the rules count.
        for literal in state.rhs_pure:
            left, right = literal.atom.left, literal.atom.right
            if literal.positive:
                if left != right:
                    return BaselineVerdict.UNKNOWN
            else:
                if left == right:
                    return BaselineVerdict.UNKNOWN
                if not self._visible_disequality(state, left, right):
                    return BaselineVerdict.UNKNOWN

        lhs = list(state.lhs_atoms)
        rhs = list(state.rhs_atoms)

        progress = True
        while progress:
            budget.tick()
            progress = False
            if not rhs:
                break
            demanded = rhs[0]

            if demanded.is_trivial:
                rhs.pop(0)
                progress = True
                continue

            # Frame identical atoms.
            if demanded in lhs:
                lhs.remove(demanded)
                rhs.pop(0)
                progress = True
                continue

            if isinstance(demanded, ListSegment):
                cell = self._cell_at(lhs, demanded.source)
                if cell is None:
                    break
                if isinstance(cell, PointsTo):
                    if self._visible_distinct(state, lhs, cell, demanded.target):
                        lhs.remove(cell)
                        rhs[0] = ListSegment(cell.target, demanded.target)
                        progress = True
                        continue
                    break
                # cell is a left-hand list segment
                if demanded.target == NIL:
                    lhs.remove(cell)
                    rhs[0] = ListSegment(cell.target, NIL)
                    progress = True
                    continue
                # The general lseg/lseg composition is missing from the rule
                # set: this is the deliberate incompleteness.
                break
            else:
                # A demanded cell is only matched by an identical cell, which
                # the frame rule above would already have consumed.
                break

        if not rhs and not lhs:
            return BaselineVerdict.VALID
        return BaselineVerdict.UNKNOWN

    # ------------------------------------------------------------------
    def _saturate_lhs(
        self, state: Optional[SequentState], budget: ResourceBudget
    ) -> Optional[SequentState]:
        """Deterministic left-hand side normalisation (no case splits).

        Returns ``None`` when the left-hand side is discovered inconsistent
        (the entailment then holds vacuously).
        """
        while state is not None:
            budget.tick()
            action = None
            for atom in state.lhs_atoms:
                if isinstance(atom, PointsTo) and atom.source.is_nil:
                    return None
                if isinstance(atom, ListSegment) and atom.source.is_nil:
                    action = ("assume", (atom.target, NIL))
                    break
            if action is None:
                seen = {}
                for atom in state.lhs_atoms:
                    other = seen.get(atom.source)
                    if other is None:
                        seen[atom.source] = atom
                        continue
                    if isinstance(other, PointsTo) and isinstance(atom, PointsTo):
                        return None
                    if isinstance(other, PointsTo) and isinstance(atom, ListSegment):
                        action = ("assume", (atom.source, atom.target))
                        break
                    if isinstance(other, ListSegment) and isinstance(atom, PointsTo):
                        action = ("assume", (other.source, other.target))
                        break
                    # Two segments sharing an address would require a case
                    # split, which the greedy rules never perform.
            if action is None:
                return state
            _, (left, right) = action
            state = state_with_equality(state, left, right)
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _cell_at(lhs: List[SpatialAtom], address: Const) -> Optional[SpatialAtom]:
        for atom in lhs:
            if atom.source == address:
                return atom
        return None

    @staticmethod
    def _visible_disequality(state: SequentState, left: Const, right: Const) -> bool:
        """Disequalities the greedy rules can see without case analysis."""
        if state.distinct(left, right):
            return True
        allocated = {atom.source for atom in state.lhs_atoms if isinstance(atom, PointsTo)}
        if left in allocated and (right == NIL or right in allocated):
            return True
        if right in allocated and left == NIL:
            return True
        return False

    def _visible_distinct(
        self, state: SequentState, lhs: List[SpatialAtom], cell: SpatialAtom, target: Const
    ) -> bool:
        """Can the rules see that ``cell.source != target``?"""
        if target == NIL:
            return True
        if state.distinct(cell.source, target):
            return True
        return any(
            other is not cell and isinstance(other, PointsTo) and other.source == target
            for other in lhs
        )
