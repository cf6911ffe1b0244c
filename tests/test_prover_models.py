"""The prover's inner loop, round by round: models and derivation records.

``tests/test_kernel.py`` pins the incremental model generator round for round
on engines that only saturate.  The prover's inner loop also feeds its engine
from outside (well-formedness consequences, the clauses unfolding derives)
and asks for a model after rounds that stop mid-saturation.  The first test
here spies on every ``model_for_engine`` call of real proofs and compares its
answer with a from-scratch ``generate_model`` over the engine's known
clauses: the same relation and generator records, or both refuse.  It runs
at the production ``SATURATION_CHUNK``, where almost every round saturates
fully and its candidate always verifies, and at a chunk of 4 given clauses,
where rounds stop mid-saturation and verification decides.

The other two pin the derivation record: only proof reconstruction reads it,
so a proof-free prove keeps none, and a prove that records its proof still
formats the proof it always did.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import repro.core.prover as prover_module
from repro.benchgen.random_fold import FoldParameters, random_fold_batch
from repro.benchgen.random_unsat import UnsatParameters, random_unsat_batch
from repro.core.config import ProverConfig
from repro.core.prover import Prover
from repro.core.result import Verdict
from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile
from repro.superposition.model import (
    IncrementalModelGenerator,
    ModelGenerationError,
    generate_model,
)
from repro.superposition.saturation import SaturationEngine

HERE = os.path.dirname(os.path.abspath(__file__))


def _inputs():
    """Folds, Table 1 members and ``dll`` cases: each feeds the engine from outside."""
    inputs = []
    for variables in (20, 30):
        inputs.extend(
            random_fold_batch(FoldParameters.paper(variables), 4, seed=12000 + variables)
        )
    inputs.extend(random_unsat_batch(UnsatParameters.paper(10), 8, seed=11010))
    cases = EntailmentGenerator(seed=1, profile=GeneratorProfile.only("dll")).cases(10)
    inputs.extend(case.entailment for case in cases)
    return inputs


def _assert_same_model(model, expected):
    assert model.relation == expected.relation
    assert set(model.generators) == set(expected.generators)
    for edge, record in model.generators.items():
        other = expected.generators[edge]
        assert record.clause == other.clause
        assert record.equation == other.equation
        assert record.leftover_gamma == other.leftover_gamma
        assert record.leftover_delta == other.leftover_delta


@pytest.mark.parametrize("chunk", [prover_module.SATURATION_CHUNK, 4])
def test_every_round_builds_the_model_generate_model_builds(monkeypatch, chunk):
    monkeypatch.setattr(prover_module, "SATURATION_CHUNK", chunk)
    original = IncrementalModelGenerator.model_for_engine
    rounds = {"verified": 0, "refused": 0}

    def spy(self, engine):
        try:
            expected = generate_model(engine.known_pure_clauses(), self.order)
        except ModelGenerationError:
            expected = None
        try:
            model = original(self, engine)
        except ModelGenerationError:
            assert expected is None, "the generator refused a model generate_model builds"
            rounds["refused"] += 1
            raise
        assert expected is not None, "the generator built a model generate_model refuses"
        _assert_same_model(model, expected)
        rounds["verified"] += 1
        return model

    monkeypatch.setattr(IncrementalModelGenerator, "model_for_engine", spy)
    prover = Prover(ProverConfig(record_proof=False))
    for entailment in _inputs():
        prover.prove(entailment)
    assert rounds["verified"] > 0
    if chunk == 4:
        assert rounds["refused"] > 0


def _capture_engines(monkeypatch):
    engines = []
    original = SaturationEngine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(SaturationEngine, "__init__", init)
    return engines


def _golden_fold():
    """``fold/20/2`` of the golden set (valid) and its pinned proof digest."""
    with open(os.path.join(HERE, "golden", "prover_traces.json")) as handle:
        records = {record[0]: record for record in json.load(handle)["records"]}
    record = records["fold/20/2"]
    assert record[2] == "valid"
    entailment = random_fold_batch(FoldParameters.paper(20), 20, seed=12020)[2]
    return entailment, record[5]


def test_a_proof_free_prove_keeps_no_derivation_records(monkeypatch):
    engines = _capture_engines(monkeypatch)
    entailment, _digest = _golden_fold()
    result = Prover(ProverConfig(record_proof=False)).prove(entailment)
    assert result.verdict is Verdict.VALID
    assert result.proof is None
    (engine,) = engines
    assert engine.generated_count > 0
    assert len(engine.derivations) == 0


def test_a_prove_that_records_its_proof_formats_the_same_proof(monkeypatch):
    engines = _capture_engines(monkeypatch)
    entailment, digest = _golden_fold()
    result = Prover(ProverConfig(record_proof=True)).prove(entailment)
    assert result.verdict is Verdict.VALID
    (engine,) = engines
    assert len(engine.derivations) > 0
    text = result.proof.format()
    assert hashlib.sha1(text.encode("utf-8")).hexdigest()[:16] == digest
