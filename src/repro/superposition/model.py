"""Candidate-model generation ``Gen(S*)`` for saturated pure clause sets.

When saturation does not derive the empty clause, the completeness proof of
the superposition calculus constructs a model of the clause set.  The
construction (due to Bachmair and Ganzinger, used by the paper via Lemma 3.1)
processes the clauses in increasing clause order and lets certain *productive*
clauses generate rewrite edges:

    a clause ``Gamma -> Delta, x = y`` generates the edge ``x => y`` when

    * ``x > y`` in the term ordering,
    * ``x = y`` is strictly maximal in the clause,
    * the clause is false in the partial model built so far, and
    * ``x`` is still irreducible (has no outgoing edge yet).

The result is a convergent rewrite relation ``R`` together with the map ``g``
from each edge to its generating clause.  Lemma 3.1(2) of the paper — the
generating clause's remaining literals are false under ``R`` — is exactly the
property the spatial normalisation rules N1/N3 rely on, so we keep the leftover
``Gamma``/``Delta`` of the generating clause alongside each edge.

Both generators verify that the relation they built really satisfies every
pure clause of the input.  For a properly saturated input this always holds;
verifying it explicitly is what lets the prover work with partially
saturated sets (see :func:`_verify_model`).  A failure raises
:class:`ModelGenerationError` rather than silently producing a wrong answer.

:func:`generate_model` builds the model from scratch (the reference engine's
path); :class:`IncrementalModelGenerator` maintains it across rounds on the
dense kernel's clause records (the production engine's path).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.logic.atoms import EqAtom
from repro.logic.clauses import Clause
from repro.logic.ordering import TermOrder
from repro.logic.terms import Const
from repro.superposition.kernel import _MASK, SHIFT, IntClause, _cmask_of
from repro.superposition.rewrite import RewriteRelation


class ModelGenerationError(RuntimeError):
    """Raised when the candidate model fails to satisfy the (allegedly saturated) clauses."""


@dataclass(frozen=True)
class GeneratingClause:
    """Bookkeeping for one rewrite edge: the clause that generated it.

    ``leftover_gamma`` and ``leftover_delta`` are the clause's literals other
    than the generating equation itself; by Lemma 3.1 they are all false in the
    final model, which is what allows the normalisation rules to carry them
    into normalised spatial clauses.
    """

    clause: Clause
    equation: EqAtom
    leftover_gamma: FrozenSet[EqAtom]
    leftover_delta: FrozenSet[EqAtom]


@dataclass
class EqualityModel:
    """The pair ``<R, g>`` returned by ``Gen(S*)``.

    Attributes
    ----------
    relation:
        The convergent rewrite relation ``R``.
    generators:
        The map ``g`` from rewrite edges ``(x, y)`` to their generating clause
        record.
    order:
        The term ordering the model was generated under (needed to interpret
        normal forms consistently downstream).
    """

    relation: RewriteRelation
    generators: Dict[Tuple[Const, Const], GeneratingClause]
    order: TermOrder

    def normal_form(self, constant: Const) -> Const:
        """The ``R``-normal form of a constant."""
        return self.relation.normal_form(constant)

    def satisfies_atom(self, atom: EqAtom) -> bool:
        """``R |~ x = y``."""
        return self.relation.satisfies_atom(atom)

    def satisfies_literal(self, atom: EqAtom, positive: bool) -> bool:
        """Satisfaction of a pure literal."""
        return self.relation.satisfies_literal(atom, positive)

    def satisfies_pure_clause(self, clause: Clause) -> bool:
        """``R |~ Gamma -> Delta`` for a pure clause."""
        return self.relation.satisfies_pure_clause(clause)

    def generator_for(self, source: Const, target: Const) -> GeneratingClause:
        """The generating clause of the edge ``source => target``."""
        return self.generators[(source, target)]

    def edge_count(self) -> int:
        """Number of rewrite edges in the model."""
        return len(self.relation)


def generate_model(clauses: Iterable[Clause], order: TermOrder) -> EqualityModel:
    """Run the candidate-model construction on a saturated set of pure clauses.

    Parameters
    ----------
    clauses:
        The saturated pure clauses (the empty clause must not be among them).
    order:
        The term ordering; ``nil`` must be minimal, as the paper requires.

    Raises :class:`ModelGenerationError` when the generated relation does not
    satisfy every input clause (see :func:`_verify_model`).
    """
    pure_clauses: List[Clause] = []
    for clause in clauses:
        if not clause.is_pure:
            raise ValueError("generate_model expects pure clauses only")
        if clause.is_empty:
            raise ValueError("cannot generate a model: the empty clause is present")
        if clause.is_tautology:
            continue
        pure_clauses.append(clause)

    ordered = sorted(pure_clauses, key=order.clause_sort_key)

    relation = RewriteRelation()
    generators: Dict[Tuple[Const, Const], GeneratingClause] = {}

    for clause in ordered:
        if relation.satisfies_pure_clause(clause):
            continue
        production = _productive_equation(clause, relation, order)
        if production is None:
            # The clause stays false at this point of the construction.  For a
            # genuinely saturated set the final verification below still
            # succeeds because some larger clause will produce the missing
            # edge; if not, verification reports the problem.
            continue
        big, small, equation = production
        relation.add_edge(big, small)
        generators[(big, small)] = GeneratingClause(
            clause=clause,
            equation=equation,
            leftover_gamma=clause.gamma,
            leftover_delta=clause.delta - {equation},
        )

    _verify_model(relation, ordered, generators)

    return EqualityModel(relation=relation, generators=generators, order=order)


#: Sentinel for construction-trail positions not yet evaluated (clauses
#: inserted since the last construction).
_UNDECIDED = object()


class IncrementalModelGenerator:
    """``Gen(S*)`` maintained incrementally across saturation rounds.

    The prover's inner loop regenerates the candidate model after every
    saturation chunk and every batch of well-formedness consequences.  Between
    two consecutive calls the clause set changes only a little, yet the
    one-shot :func:`generate_model` re-sorts, re-constructs and re-verifies
    everything from scratch.  This class keeps three pieces of state alive
    between calls:

    * the **construction list** — the *productive* clauses only (those with a
      precomputed ``production``), kept insertion-sorted under the dense
      clause sort key (which is injective, so positions are unambiguous and
      removals can be found by bisection).  Any other clause can never add
      an edge, so its construction decision is always "no edge" and leaving
      it out of the list changes no edge;
    * the **construction trail** — the produce/skip decision at every position
      of the list.  A decision at position ``i`` depends only on the
      *rewrite relation* built from the clauses before ``i``, not on those
      clauses themselves: as long as the edge sequence replayed so far equals
      the previous construction's, recorded decisions stay valid and are
      applied without satisfiability checks.  A newly inserted clause is
      evaluated in place; if it produces **no** edge the relation is
      unchanged and the replay continues, so only an insertion that actually
      fires (or the removal of a clause that had fired) invalidates the
      decisions behind it;
    * the **verification cache** — the set of clauses (of every shape) not yet
      checked against the current rewrite relation, plus the per-edge
      generating clauses whose leftover literals were checked.  Satisfaction
      of a clause depends only on the *normal forms of its own constants*:
      when the edge set changes, the generator diffs the reducible constants'
      normal forms against the previous round's, ORs the moved constants
      into a bitmask and re-verifies only the clauses whose constant mask
      (``IntClause.cmask``) meets it.

    Every structure is keyed by integers: clauses come straight off the
    kernel's raw change feed (``drain_known_changes_raw``), ordering uses the
    precomputed packed sort keys, satisfaction checks unpack atom codes with
    two shifts, and the rewrite relation is a plain ``int -> int``
    dictionary.  Nothing is decoded during maintenance; symbolic objects are
    built only in :meth:`_materialise`, whose relation starts with the
    reducible constants' normal forms cached.

    The result equals ``generate_model`` called from scratch on the engine's
    known clauses every round: the dense sort key is order- and
    equality-isomorphic to ``TermOrder.clause_sort_key``, the precomputed
    ``IntClause.production`` agrees with ``TermOrder.production``
    literal-for-literal, satisfaction is evaluated over the same normal
    forms, and the caches are invalidated exactly when their inputs change
    (pinned round for round by ``tests/test_kernel.py``, and at every round
    of real proofs by ``tests/test_prover_models.py``).
    """

    def __init__(self, order: TermOrder):
        self.order = order
        self._core = None
        self._encoder = None
        self._members: Set[IntClause] = set()
        #: The construction list: productive members, by dense sort key.
        self._keys: List[Tuple[int, ...]] = []
        self._ordered: List[IntClause] = []
        #: Per-position construction decision: ``None`` (no edge),
        #: ``(big, small)`` id pair, or ``_UNDECIDED``; the producing clause
        #: is the position's clause, so it is not stored.
        self._decisions: List[object] = []
        self._replay_barrier = 0
        self._verified_edges: Optional[Dict[int, int]] = None
        #: Normal forms under the verified edges; reducible constants only.
        self._verified_normal_forms: Dict[int, int] = {}
        self._verified_generators: Dict[Tuple[int, int], IntClause] = {}
        self._unverified: Set[IntClause] = set()
        #: IntClause -> its (immutable) GeneratingClause record; an interned
        #: clause determines its equation, so the record never changes.
        self._generating_cache: Dict[IntClause, GeneratingClause] = {}

    def model_for_engine(self, engine) -> EqualityModel:
        """The candidate model of a kernel engine's current known clause set.

        The first call pairs the generator with the engine's kernel core (the
        change feed supports one consumer, which is exactly the pairing the
        prover creates).  The reference engine has no core; it builds its
        models with :func:`generate_model`.
        """
        if self._core is None:
            core = engine.dense_core()
            if core is None:
                raise ValueError(
                    "the incremental model generator needs a kernel engine; "
                    "use generate_model with the reference engine"
                )
            self._core = core
            self._encoder = core.encoder
        added, removed = self._core.drain_known_changes_raw()
        if added or removed:
            self._apply_changes(added, removed)
        edges, gen_of, normal_forms = self._construct()
        self._verify(edges, gen_of, normal_forms)
        return self._materialise(edges, gen_of, normal_forms)

    # -- maintenance ---------------------------------------------------------
    def _apply_changes(self, added: List[IntClause], removed: List[IntClause]) -> None:
        sort_key_of = self._encoder.sort_key_of
        members = self._members
        unverified = self._unverified
        keys, ordered, decisions = self._keys, self._ordered, self._decisions
        for clause in removed:
            if clause not in members:
                continue
            members.discard(clause)
            unverified.discard(clause)
            if clause.production is None:
                continue
            position = bisect_left(keys, sort_key_of(clause))
            decision = decisions[position]
            del keys[position]
            del ordered[position]
            del decisions[position]
            if decision is not None and decision is not _UNDECIDED:
                self._replay_barrier = min(self._replay_barrier, position)
            elif position < self._replay_barrier:
                self._replay_barrier -= 1
        for clause in added:
            # Kernel clauses are pure by construction; the feed filters
            # tautologies, but mirror generate_model's guards.
            if clause.is_empty:
                raise ValueError("cannot generate a model: the empty clause is present")
            if clause.is_tautology or clause in members:
                continue
            members.add(clause)
            unverified.add(clause)
            # Memoise the constant mask ``_verify`` reads.  Ids are never
            # renumbered once the feed has been drained, so it stays valid.
            _cmask_of(clause)
            if clause.production is None:
                continue
            key = sort_key_of(clause)
            position = bisect_left(keys, key)
            keys.insert(position, key)
            ordered.insert(position, clause)
            decisions.insert(position, _UNDECIDED)
            if position < self._replay_barrier:
                self._replay_barrier += 1

    # -- construction --------------------------------------------------------
    def _construct(
        self,
    ) -> Tuple[Dict[int, int], Dict[Tuple[int, int], IntClause], Dict[int, int]]:
        decisions = self._decisions
        barrier = self._replay_barrier
        trusted = True
        edges: Dict[int, int] = {}
        gen_of: Dict[Tuple[int, int], IntClause] = {}
        # Normal forms of the relation built so far, maintained eagerly as
        # edges are added: evaluating a clause is then a dictionary hit per
        # constant instead of a rewrite-chain chase.  It holds exactly the
        # reducible ids; an absent id is its own normal form.
        normal_forms: Dict[int, int] = {}
        nf_get = normal_forms.get
        classes: Dict[int, List[int]] = {}

        def apply_edge(big: int, small: int) -> None:
            edges[big] = small
            target = nf_get(small, small)
            group = classes.pop(big, None)
            if group is None:
                group = [big]
            else:
                group.append(big)
            for identifier in group:
                normal_forms[identifier] = target
            bucket = classes.get(target)
            if bucket is None:
                classes[target] = group
            else:
                bucket.extend(group)

        for position, clause in enumerate(self._ordered):
            if trusted:
                if position >= barrier:
                    trusted = False
                else:
                    decision = decisions[position]
                    if decision is not _UNDECIDED:
                        if decision is not None:
                            big, small = decision
                            apply_edge(big, small)
                            gen_of[(big, small)] = clause
                        continue
            # A productive clause has an empty ``gamma`` (see
            # ``DenseEncoder._fill``): it is true exactly when some
            # consequent holds.
            fresh = None
            for code in clause.delta:
                big, small = code >> SHIFT, code & _MASK
                if nf_get(big, big) == nf_get(small, small):
                    break
            else:
                big, small, _equation = clause.production
                if big not in edges:
                    apply_edge(big, small)
                    gen_of[(big, small)] = clause
                    fresh = (big, small)
                    trusted = False
            decisions[position] = fresh
        self._replay_barrier = len(self._ordered)
        return edges, gen_of, normal_forms

    # -- verification --------------------------------------------------------
    def _verify(
        self,
        edges: Dict[int, int],
        gen_of: Dict[Tuple[int, int], IntClause],
        normal_forms: Dict[int, int],
    ) -> None:
        unverified = self._unverified
        if edges != self._verified_edges:
            previous = self._verified_normal_forms
            previous_get = previous.get
            moved = 0
            for identifier, normal in normal_forms.items():
                if previous_get(identifier, identifier) != normal:
                    moved |= 1 << identifier
            for identifier in previous:
                if identifier not in normal_forms:
                    moved |= 1 << identifier
            if moved:
                unverified.update(
                    clause for clause in self._members if clause.cmask & moved
                )
            self._verified_normal_forms = normal_forms
            self._verified_edges = edges
            self._verified_generators = {}
        snapshot_get = self._verified_normal_forms.get
        if unverified:
            for clause in list(unverified):
                satisfied = False
                for code in clause.gamma:
                    big, small = code >> SHIFT, code & _MASK
                    if snapshot_get(big, big) != snapshot_get(small, small):
                        satisfied = True
                        break
                if not satisfied:
                    for code in clause.delta:
                        big, small = code >> SHIFT, code & _MASK
                        if snapshot_get(big, big) == snapshot_get(small, small):
                            satisfied = True
                            break
                if not satisfied:
                    raise ModelGenerationError(
                        "the candidate model does not satisfy the clause {}".format(
                            self._encoder.decode(clause)
                        )
                    )
                unverified.discard(clause)
        checked = self._verified_generators
        for edge, generator in gen_of.items():
            if checked.get(edge) is generator:
                continue
            # Lemma 3.1(2): leftover gamma atoms hold, leftover delta atoms
            # (everything but the generating equation) fail.
            leftover_ok = True
            for code in generator.gamma:
                big, small = code >> SHIFT, code & _MASK
                if snapshot_get(big, big) != snapshot_get(small, small):
                    leftover_ok = False
                    break
            if leftover_ok:
                top = generator.production[2]
                for code in generator.delta:
                    if code == top:
                        continue
                    big, small = code >> SHIFT, code & _MASK
                    if snapshot_get(big, big) == snapshot_get(small, small):
                        leftover_ok = False
                        break
            if not leftover_ok:
                const_of = self._encoder.const_of
                raise ModelGenerationError(
                    "the generating clause of the edge {} => {} has leftover literals "
                    "that the candidate model does not refute ({})".format(
                        const_of(edge[0]), const_of(edge[1]), self._encoder.decode(generator)
                    )
                )
            checked[edge] = generator

    # -- the symbolic boundary -----------------------------------------------
    def _generating(self, clause: IntClause) -> GeneratingClause:
        record = self._generating_cache.get(clause)
        if record is None:
            decoded = self._encoder.decode(clause)
            equation = self._encoder.atom_of(clause.production[2])
            record = GeneratingClause(
                clause=decoded,
                equation=equation,
                leftover_gamma=decoded.gamma,
                leftover_delta=decoded.delta - {equation},
            )
            self._generating_cache[clause] = record
        return record

    def _materialise(
        self,
        edges: Dict[int, int],
        gen_of: Dict[Tuple[int, int], IntClause],
        normal_forms: Dict[int, int],
    ) -> EqualityModel:
        const_of = self._encoder.const_of
        relation = RewriteRelation.preloaded(
            {const_of(big): const_of(small) for big, small in edges.items()},
            {
                const_of(identifier): const_of(normal)
                for identifier, normal in normal_forms.items()
            },
        )
        generators = {
            (const_of(big), const_of(small)): self._generating(generator)
            for (big, small), generator in gen_of.items()
        }
        return EqualityModel(relation=relation, generators=generators, order=self.order)


def _verify_model(
    relation: RewriteRelation,
    clauses: List[Clause],
    generators: Dict[Tuple[Const, Const], GeneratingClause],
) -> None:
    """Check the two properties the prover relies on (Theorem 3.1 and Lemma 3.1).

    1. The candidate relation satisfies every known pure clause.
    2. For every rewrite edge, the generating clause's leftover literals are
       false under the final relation (so that the normalisation rules N1/N3
       carry only literals that the model refutes).

    Both properties are guaranteed once the clause set is saturated; verifying
    them explicitly lets the prover work with *partially* saturated sets and
    simply resume saturation when the candidate is not yet good enough.
    """
    failures = [clause for clause in clauses if not relation.satisfies_pure_clause(clause)]
    if failures:
        raise ModelGenerationError(
            "the candidate model does not satisfy {} clause(s) "
            "(first failure: {})".format(len(failures), failures[0])
        )
    for (source, target), generator in generators.items():
        leftover_ok = all(
            relation.satisfies_atom(atom) for atom in generator.leftover_gamma
        ) and not any(relation.satisfies_atom(atom) for atom in generator.leftover_delta)
        if not leftover_ok:
            raise ModelGenerationError(
                "the generating clause of the edge {} => {} has leftover literals "
                "that the candidate model does not refute ({})".format(
                    source, target, generator.clause
                )
            )


def _productive_equation(
    clause: Clause, relation: RewriteRelation, order: TermOrder
) -> Optional[Tuple[Const, Const, EqAtom]]:
    """Find the equation through which ``clause`` may produce a rewrite edge.

    Returns ``(larger, smaller, equation)`` when the productivity conditions
    hold, ``None`` otherwise.  The ordering-level conditions (no selected
    literals, orientable, strictly maximal) identify at most one equation and
    are memoised on the ordering; only irreducibility depends on the relation
    built so far.
    """
    production = order.production(clause)
    if production is None:
        return None
    if not relation.is_irreducible(production[0]):
        return None
    return production
