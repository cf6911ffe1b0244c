"""The incremental inner loop, checked round for round against from-scratch rules.

The normaliser keeps its state across the rounds of one ``prove()`` and
re-substitutes only the atoms over constants the model moved; the
well-formedness rules answer from anchor buckets that survive the rounds
(:mod:`repro.spatial.normalization`, :mod:`repro.spatial.wellformedness`).
These tests wrap the three calls the prover makes through
``repro.core.prover`` — ``normalize_clause_fast``, ``normalize_clause`` and
``well_formedness_consequences`` — and compare every result with a reference
computed from scratch:

* normalisation: the stepwise N1–N4 rules, one rewrite edge at a time, the
  name-least reducible constant first (the algorithm the normaliser replaced,
  copied here), for the clause, the step count and the step records;
* well-formedness: the all-pairs scans ``reference_sll`` and
  ``reference_dll`` of ``tests/test_wellformedness_pairing.py``.

The inputs are the golden-trace inputs, under both engines (the default
engine's models are maintained incrementally, the reference engine's are
rebuilt from scratch every round) and with proofs, a hypothesis sample of
generated ``sll`` and ``dll`` entailments, and drawn model sequences whose
rewrite chains pass through constants outside the formula.  One more test
checks that the state does not outlive its ``prove()``.
"""

from __future__ import annotations

import contextlib
import pickle
from typing import Dict, Iterator, List, Optional, Tuple

from hypothesis import example, given
from hypothesis import strategies as st

import repro.core.prover as prover_module
from repro.core.config import ProverConfig
from repro.core.prover import Prover
from repro.fuzz.generator import DEFAULT_WEIGHTS, EntailmentGenerator, GeneratorProfile
from repro.logic.atoms import DllSegment, EqAtom, SpatialFormula
from repro.logic.clauses import Clause
from repro.logic.ordering import default_order
from repro.logic.parser import parse_entailment
from repro.logic.terms import Const
from repro.spatial.normalization import (
    NormalizationStep,
    normalize_clause,
    normalize_clause_fast,
)
from repro.spatial.theory import theory_of
from repro.spatial.wellformedness import well_formedness_consequences
from repro.superposition.model import EqualityModel, GeneratingClause
from repro.superposition.rewrite import RewriteRelation
from tests.test_prover_golden import golden_inputs
from tests.test_wellformedness_pairing import (
    POOL,
    colliding_formulas,
    dll_atoms,
    pure_atoms,
    reference_dll,
    reference_sll,
    sll_atoms,
)

# ---------------------------------------------------------------------------
# The references
# ---------------------------------------------------------------------------


def _find_reducible_constant(sigma: SpatialFormula, model: EqualityModel) -> Optional[Const]:
    for constant in sorted(sigma.constants(), key=lambda c: c.name):
        if not model.relation.is_irreducible(constant):
            return constant
    return None


def reference_normalize(
    clause: Clause, model: EqualityModel
) -> Tuple[Clause, List[NormalizationStep]]:
    """N1–N4 one edge at a time, from scratch."""
    if clause.is_pure or clause.spatial is None:
        return clause, []
    rewrite_rule = "N1" if clause.spatial_on_right else "N3"
    removal_rule = "N2" if clause.spatial_on_right else "N4"
    steps: List[NormalizationStep] = []
    current = clause
    while True:
        sigma = current.spatial
        assert sigma is not None
        source = _find_reducible_constant(sigma, model)
        if source is None:
            break
        target = model.relation.successor(source)
        assert target is not None
        generator = model.generator_for(source, target)
        updated = Clause(
            current.gamma | generator.leftover_gamma,
            current.delta | generator.leftover_delta,
            sigma.substitute({source: target}),
            current.spatial_on_right,
        )
        steps.append(
            NormalizationStep(
                rule=rewrite_rule,
                before=current,
                after=updated,
                pure_premise=generator.clause,
                rewritten=(source, target),
            )
        )
        current = updated
    while True:
        sigma = current.spatial
        assert sigma is not None
        trivial = next((atom for atom in sigma if atom.is_trivial), None)
        if trivial is None:
            break
        updated = Clause(
            current.gamma, current.delta, sigma.remove(trivial), current.spatial_on_right
        )
        steps.append(
            NormalizationStep(rule=removal_rule, before=current, after=updated, removed=trivial)
        )
        current = updated
    return current, steps


REFERENCE_WELLFORMEDNESS = {"sll": reference_sll, "dll": reference_dll}


@contextlib.contextmanager
def checked_round_by_round(calls: Dict[str, int]) -> Iterator[None]:
    """Check every normalisation and well-formedness call of the prover."""
    fast = prover_module.normalize_clause_fast
    stepwise = prover_module.normalize_clause
    well_formedness = prover_module.well_formedness_consequences

    def normalize_clause_fast(clause, model):
        result = fast(clause, model)
        expected, steps = reference_normalize(clause, model)
        assert result == (expected, len(steps)), (str(clause), str(result[0]), str(expected))
        calls["normalize"] += 1
        return result

    def normalize_clause(clause, model):
        result, steps = stepwise(clause, model)
        assert (result, steps) == reference_normalize(clause, model), str(clause)
        calls["normalize"] += 1
        return result, steps

    def well_formedness_consequences(clause):
        consequences = well_formedness(clause)
        reference = REFERENCE_WELLFORMEDNESS[theory_of(clause).name]
        assert list(consequences) == reference(clause), str(clause)
        calls["wellformedness"] += 1
        return consequences

    prover_module.normalize_clause_fast = normalize_clause_fast
    prover_module.normalize_clause = normalize_clause
    prover_module.well_formedness_consequences = well_formedness_consequences
    try:
        yield
    finally:
        prover_module.normalize_clause_fast = fast
        prover_module.normalize_clause = stepwise
        prover_module.well_formedness_consequences = well_formedness


def prove_checked(entailments, config: ProverConfig) -> Dict[str, int]:
    calls = {"normalize": 0, "wellformedness": 0}
    prover = Prover(config)
    with checked_round_by_round(calls):
        for entailment in entailments:
            prover.prove(entailment)
    return calls


# ---------------------------------------------------------------------------
# Golden inputs, both engines
# ---------------------------------------------------------------------------

GOLDEN = [entailment for _, entailment in golden_inputs()]


def test_golden_inputs_default_engine_round_for_round():
    calls = prove_checked(GOLDEN, ProverConfig(record_proof=False))
    # Guard the guard: the wrapped calls really are the prover's.
    assert calls["normalize"] > 2 * len(GOLDEN) and calls["wellformedness"] > len(GOLDEN)


def test_golden_inputs_reference_engine_round_for_round():
    calls = prove_checked(GOLDEN, ProverConfig(record_proof=False).reference())
    assert calls["normalize"] > 2 * len(GOLDEN) and calls["wellformedness"] > len(GOLDEN)


def test_golden_inputs_with_proofs_round_for_round():
    """With a proof recorded, the prover asks for the stepwise records."""
    calls = prove_checked(GOLDEN, ProverConfig())
    assert calls["normalize"] > 2 * len(GOLDEN) and calls["wellformedness"] > len(GOLDEN)


def test_the_state_lasts_one_prove():
    """A returned proof keeps normalised clauses, not the state behind them."""
    result = Prover().prove(parse_entailment("lseg(nil, x) * next(x, y) |- next(x, y)"))
    normalized = [step.clause for step in result.proof.steps if step.rule == "N1"]
    assert normalized
    for step in result.proof.steps:
        normalizer = step.clause.__dict__.get("_normalizer")
        assert normalizer is None or normalizer.output is None
        assert "_normalizer" not in pickle.loads(pickle.dumps(step.clause)).__dict__


# ---------------------------------------------------------------------------
# Generated entailments
# ---------------------------------------------------------------------------

SLL_PROFILE = GeneratorProfile(
    weights={name: weight for name, weight in DEFAULT_WEIGHTS.items() if name != "dll"}
)
DLL_PROFILE = GeneratorProfile.only("dll", min_variables=2)


@given(st.integers(0, 2**32 - 1), st.sampled_from([SLL_PROFILE, DLL_PROFILE]), st.booleans())
def test_generated_entailments_round_for_round(seed, profile, reference):
    entailment = EntailmentGenerator(seed, profile).case(0).entailment
    config = ProverConfig(record_proof=False)
    prove_checked([entailment], config.reference() if reference else config)


# ---------------------------------------------------------------------------
# Model sequences drawn directly
# ---------------------------------------------------------------------------


@st.composite
def models(draw):
    """A terminating rewrite relation over ``POOL``, each edge with a clause.

    Edges point down a drawn order of the constants, so chains such as
    ``x => y => z`` occur, with ``y`` often outside the formula.
    """
    ranked = draw(st.permutations(POOL))
    edges = {}
    generators = {}
    for position, source in enumerate(ranked[1:], start=1):
        if not draw(st.booleans()):
            continue
        target = ranked[draw(st.integers(0, position - 1))]
        equation = EqAtom(source, target)
        gamma = frozenset(draw(st.lists(pure_atoms, max_size=2)))
        delta = frozenset(draw(st.lists(pure_atoms, max_size=2))) - {equation}
        edges[source] = target
        generators[(source, target)] = GeneratingClause(
            clause=Clause.pure(gamma, delta | {equation}),
            equation=equation,
            leftover_gamma=gamma,
            leftover_delta=delta,
        )
    return EqualityModel(RewriteRelation(edges), generators, default_order(POOL))


def _one_edge_model(source: Const, target: Const) -> EqualityModel:
    """The model rewriting ``source`` to ``target``, generated by ``source = target``."""
    equation = EqAtom(source, target)
    generator = GeneratingClause(
        clause=Clause.pure(frozenset(), frozenset({equation})),
        equation=equation,
        leftover_gamma=frozenset(),
        leftover_delta=frozenset(),
    )
    return EqualityModel(
        RewriteRelation({source: target}), {(source, target): generator}, default_order(POOL)
    )


@given(
    st.sampled_from(["sll", "dll"]).flatmap(
        lambda theory: colliding_formulas(sll_atoms if theory == "sll" else dll_atoms)
    ),
    st.booleans(),
    st.lists(models(), min_size=1, max_size=5),
)
# The first model turns the only dll atom trivial, the second brings it
# back: the anchor index built for the empty output must still be a dll one.
@example(
    atoms=[DllSegment(POOL[0], POOL[0], POOL[0], POOL[1])],
    positive=True,
    sequence=[
        _one_edge_model(POOL[1], POOL[0]),
        EqualityModel(RewriteRelation({}), {}, default_order(POOL)),
    ],
)
def test_model_sequences_match_the_references(atoms, positive, sequence):
    """One clause object through several models, every round checked."""
    sigma = SpatialFormula(atoms)
    clause = Clause.positive_spatial(sigma) if positive else Clause.negative_spatial(sigma)
    for model in sequence:
        expected, steps = reference_normalize(clause, model)
        assert normalize_clause_fast(clause, model) == (expected, len(steps))
        assert normalize_clause(clause, model) == (expected, steps)
        if positive and atoms:
            normalized, _ = normalize_clause_fast(clause, model)
            reference = REFERENCE_WELLFORMEDNESS[theory_of(normalized).name]
            assert well_formedness_consequences(normalized) == reference(normalized)
