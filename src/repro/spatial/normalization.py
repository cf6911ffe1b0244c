"""Normalisation rules N1–N4 (Figure 1) driven by the equality model.

Normalisation rewrites the spatial formula of a clause so that every constant
it mentions is in normal form with respect to the current rewrite relation
``R``, and removes trivial ``lseg(x, x)`` atoms.

Each rewrite step is an instance of rule N1 (for positive spatial clauses) or
N3 (for negative ones): the pure premise is the *generating clause* of the
rewrite edge being applied, and its leftover literals are added to the
conclusion — exactly as in the worked example of Section 2, where normalising
with the clause ``∅ -> a = b, a = c`` leaves the reminder literal ``a = b`` in
the normalised clause.  Removing a trivial atom is an instance of N2/N4.

The important property (Lemma 4.2) is that normalisation requires **no
search**: the model tells us which constant to rewrite and which clause
justifies the step.  The normaliser builds on it in two ways.

**State across rounds.**  Figure 3's inner loop normalises the same clause
against a new model every round, and consecutive models differ in a few
constants.  The first call for a clause attaches a :class:`_Normalizer` to
it, which keeps each constant's normal form, the normalised image of every
atom, the non-trivial images in sort order (with their sort keys and the sum
of their hashes) and, once well-formedness asks, their
:class:`~repro.spatial.wellformedness.AnchorIndex`.  A round finds the
constants whose normal form moved with one set intersection against the
model's reducible constants, re-substitutes only the atoms over those
constants, patches the sorted list by bisection and re-files only the moved
atoms' anchors.  The state lasts one ``prove()``: it hangs off the clause
object ``cnf`` built for that call (and off the clauses it returns), never off
the entailment's formulas, which callers share across threads, and the
prover releases it when the call returns (:func:`release_normalization`).

**Lazy steps.**  A round records its rewrite moves — source, target and
generating clause — in the pick order of the stepwise rules (the name-least
reducible constant first).  The moves give the step count and the merged
leftover literals; :func:`normalize_clause` replays them into the N1–N4 step
records a proof needs, so the pick order is decided in one place.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.atoms import FORMULA_HASH_MASK, SpatialAtom, SpatialFormula
from repro.logic.clauses import Clause
from repro.logic.terms import Const
from repro.spatial.theory import theory_of
from repro.spatial.wellformedness import AnchorIndex
from repro.superposition.model import EqualityModel, GeneratingClause


@dataclass(frozen=True)
class NormalizationStep:
    """One application of a normalisation rule.

    Attributes
    ----------
    rule:
        ``"N1"``/``"N3"`` for a rewrite step, ``"N2"``/``"N4"`` for the removal
        of a trivial atom.
    before, after:
        The clause before and after the step.
    pure_premise:
        The generating pure clause justifying a rewrite step (``None`` for
        N2/N4 steps).
    rewritten:
        The pair ``(x, y)`` of the rewrite edge used (``None`` for N2/N4).
    removed:
        The trivial atom removed by an N2/N4 step (``None`` for N1/N3).
    """

    rule: str
    before: Clause
    after: Clause
    pure_premise: Optional[Clause] = None
    rewritten: Optional[Tuple[Const, Const]] = None
    removed: Optional[SpatialAtom] = None


#: One rewrite move: the edge ``source => target`` and its generating clause.
Move = Tuple[Const, Const, GeneratingClause]


#: The stepwise rules' pick order: constants by name.
_by_name = attrgetter("name")


class _Normalizer:
    """The normalisation of one spatial clause, kept across models.

    ``source`` is the clause being normalised.  After :meth:`advance`,
    ``output`` is its normal form under the last model, ``moves`` the rewrite
    moves that produced it and ``trivial`` the number of trivial atoms
    dropped.  What only a moved atom needs — the images, the constants'
    occurrences and the sort keys — is built on the first round that moves
    one (the keys also when well-formedness asks for them).
    """

    __slots__ = (
        "source", "constants", "normal", "images", "occurrences", "atoms", "keys",
        "hash_sum", "trivial", "sigma", "index", "output", "moves",
    )

    def __init__(self, clause: Clause):
        sigma = clause.spatial
        assert sigma is not None
        self.source = clause
        self.constants = sigma.constants()
        #: constant -> its normal form, for the constants reducible last round.
        self.normal: Dict[Const, Const] = {}
        #: The normalised image of every atom of the source formula.
        self.images: Optional[List[SpatialAtom]] = None
        #: constant name -> positions of the source atoms mentioning it.
        self.occurrences: Optional[Dict[str, List[int]]] = None
        #: The non-trivial images in sort order, and their sort keys.
        self.atoms = [atom for atom in sigma if not atom.is_trivial]
        self.keys: Optional[List[Tuple[str, ...]]] = None
        self.trivial = len(sigma) - len(self.atoms)
        #: The sum of the hashes of ``atoms``, kept up to date: without
        #: trivial atoms, the formula's own hash (cached once ``cnf`` hashed
        #: the clause).
        self.hash_sum = (
            sum(map(hash, self.atoms)) & FORMULA_HASH_MASK if self.trivial else hash(sigma)
        )
        #: The formula over ``atoms``, while it is current.
        self.sigma: Optional[SpatialFormula] = sigma if not self.trivial else None
        self.index: Optional[AnchorIndex] = None
        self.output: Optional[Clause] = None
        self.moves: Sequence[Move] = ()

    # -- one round -----------------------------------------------------------
    def advance(self, model: EqualityModel) -> Tuple[Clause, int]:
        """Normalise the source clause under ``model``; ``(clause, steps)``."""
        relation = model.relation
        reducible = self.constants.intersection(relation.domain())
        normal_form = relation.normal_form
        normal = {constant: normal_form(constant) for constant in reducible}
        if normal != self.normal:
            self._move(normal)
        moves = self._replay(model, reducible) if reducible else ()
        self.moves = moves

        source = self.source
        if not moves and not self.trivial:
            output = source
        else:
            if moves:
                generators = [generator for _, _, generator in moves]
                gamma = source.gamma.union(*[g.leftover_gamma for g in generators])
                delta = source.delta.union(*[g.leftover_delta for g in generators])
            else:
                gamma, delta = source.gamma, source.delta
            sigma = self.sigma
            if sigma is None:
                sigma = self.sigma = SpatialFormula.from_sorted(tuple(self.atoms), self.hash_sum)
            output = Clause(gamma, delta, sigma, source.spatial_on_right)
            object.__setattr__(output, "_normalizer", self)
        self.output = output
        return output, len(moves) + self.trivial

    def _move(self, normal: Dict[Const, Const]) -> None:
        """Re-substitute the atoms over constants whose normal form moved."""
        previous = self.normal
        self.normal = normal
        touched = set()
        occurrences = self.occurrences
        if occurrences is None:
            occurrences = self.occurrences = self._occurrences()
        for constant, target in normal.items():
            if previous.get(constant) is not target:
                touched.update(occurrences[constant.name])
        for constant in previous:
            if constant not in normal:
                touched.update(occurrences[constant.name])
        if not touched:
            return
        images = self.images
        if images is None:
            images = self.images = list(self.source.spatial)  # type: ignore[arg-type]
        if self.keys is None:
            self.keys = [atom.sort_key for atom in self.atoms]
        sources = self.source.spatial.atoms  # type: ignore[union-attr]
        for position in touched:
            old = images[position]
            new = sources[position].substitute(normal)
            if new is not old:
                images[position] = new
                self._refile(old, new)

    def _occurrences(self) -> Dict[str, List[int]]:
        occurrences: Dict[str, List[int]] = {}
        for position, atom in enumerate(self.source.spatial):  # type: ignore[arg-type]
            for _, constant in atom.argument_roles():
                occurrences.setdefault(constant.name, []).append(position)
        return occurrences

    def _refile(self, old: SpatialAtom, new: SpatialAtom) -> None:
        """Replace one occurrence of ``old`` by ``new`` among the images."""
        keys, atoms, index = self.keys, self.atoms, self.index
        assert keys is not None
        self.sigma = None
        if old.is_trivial:
            self.trivial -= 1
        else:
            position = bisect_left(keys, old.sort_key)
            del keys[position]
            del atoms[position]
            self.hash_sum = (self.hash_sum - hash(old)) & FORMULA_HASH_MASK
            if index is not None:
                index.remove(old)
        if new.is_trivial:
            self.trivial += 1
        else:
            key = new.sort_key
            position = bisect_left(keys, key)
            keys.insert(position, key)
            atoms.insert(position, new)
            self.hash_sum = (self.hash_sum + hash(new)) & FORMULA_HASH_MASK
            if index is not None:
                index.add(new)

    @staticmethod
    def _replay(model: EqualityModel, reducible) -> List[Move]:
        """The rewrite moves of the stepwise rules, in their pick order.

        The stepwise rules rewrite the name-least reducible constant of the
        formula by one edge, until none is left; a rewrite can bring in a
        reducible target, which then waits its turn by name.  Irreducible
        constants are never picked, so only the reducible ones are tracked.
        """
        relation = model.relation
        pending = sorted(reducible, key=_by_name)
        present = set(reducible)
        moves: List[Move] = []
        while pending:
            source = pending.pop(0)
            present.discard(source)
            target = relation.successor(source)
            assert target is not None
            moves.append((source, target, model.generator_for(source, target)))
            if target in relation and target not in present:
                present.add(target)
                insort(pending, target, key=_by_name)
        return moves

    # -- well-formedness -----------------------------------------------------
    def anchor_index(
        self, clause: Clause
    ) -> Optional[Tuple[AnchorIndex, List[Tuple[str, ...]]]]:
        """The anchor index and sort keys of ``clause``, if it is the output."""
        if clause is not self.output:
            return None
        if self.keys is None:
            self.keys = [atom.sort_key for atom in self.atoms]
        if self.index is None:
            self.index = AnchorIndex(theory_of(self.source), self.atoms)
        return self.index, self.keys

    # -- the stepwise derivation ---------------------------------------------
    def steps(self) -> List[NormalizationStep]:
        """The N1–N4 steps from the source clause to the output, replayed."""
        source = self.source
        on_right = source.spatial_on_right
        rewrite_rule = "N1" if on_right else "N3"
        removal_rule = "N2" if on_right else "N4"
        steps: List[NormalizationStep] = []
        current = source
        for rewritten, target, generator in self.moves:
            updated = Clause(
                current.gamma | generator.leftover_gamma,
                current.delta | generator.leftover_delta,
                current.spatial.substitute({rewritten: target}),  # type: ignore[union-attr]
                on_right,
            )
            steps.append(
                NormalizationStep(
                    rule=rewrite_rule,
                    before=current,
                    after=updated,
                    pure_premise=generator.clause,
                    rewritten=(rewritten, target),
                )
            )
            current = updated
        for _ in range(self.trivial):
            sigma = current.spatial
            assert sigma is not None
            trivial = next(atom for atom in sigma if atom.is_trivial)
            updated = Clause(current.gamma, current.delta, sigma.remove(trivial), on_right)
            steps.append(
                NormalizationStep(rule=removal_rule, before=current, after=updated, removed=trivial)
            )
            current = updated
        return steps

    def release(self) -> None:
        """Drop the state; clauses still pointing here (outputs a proof keeps)
        fall back to the from-scratch paths."""
        self.output = self.images = self.occurrences = None
        self.keys = self.index = self.sigma = None
        self.atoms = []
        self.normal = {}
        self.moves = ()


def _normalizer_of(clause: Clause) -> _Normalizer:
    """The normaliser whose source is ``clause``, created on first use."""
    normalizer = clause.__dict__.get("_normalizer")
    if normalizer is None or normalizer.source is not clause:
        normalizer = _Normalizer(clause)
        object.__setattr__(clause, "_normalizer", normalizer)
    return normalizer


def release_normalization(clause: Clause) -> None:
    """End the cross-round state of ``clause``, at the end of one ``prove()``."""
    normalizer = clause.__dict__.pop("_normalizer", None)
    if normalizer is not None and normalizer.source is clause:
        normalizer.release()


def normalize_clause_fast(clause: Clause, model: EqualityModel) -> Tuple[Clause, int]:
    """Normalise the spatial formula of ``clause`` with respect to ``model``.

    Returns the normalised clause together with the number of N1–N4 steps
    that :func:`normalize_clause` would record, without building them.  Pure
    clauses are returned unchanged.  Called again on the same clause object,
    it re-normalises only what the new model moved (see the module
    docstring); ``tests/test_normalization_oracle.py`` checks every call the
    prover makes against the stepwise rules applied from scratch.
    """
    if clause.is_pure or clause.spatial is None:
        return clause, 0
    return _normalizer_of(clause).advance(model)


def normalize_clause(clause: Clause, model: EqualityModel) -> Tuple[Clause, List[NormalizationStep]]:
    """Normalise ``clause`` and return the rule applications performed.

    The rewriting applies single edges of the model's rewrite relation one at
    a time, mirroring rule N1/N3 exactly: each step substitutes ``y`` for
    ``x`` throughout the spatial formula, where ``x => y`` is an edge of ``R``
    and the generating clause's leftover literals are merged into the clause.
    Then each trivial atom is removed by an N2/N4 step.  The steps (used for
    proof reconstruction) are replayed from the moves that
    :func:`normalize_clause_fast` records.  Pure clauses are returned
    unchanged.
    """
    if clause.is_pure or clause.spatial is None:
        return clause, []
    normalizer = _normalizer_of(clause)
    normalized, _ = normalizer.advance(model)
    return normalized, normalizer.steps()
