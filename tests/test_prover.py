"""End-to-end tests of the SLP prover: verdicts, proofs, counterexamples, statistics."""

import pytest

from repro import ProverConfig, Prover, Verdict, parse_entailment, prove
from repro.core.proof import INPUT_RULE
from repro.logic.clauses import EMPTY_CLAUSE
from repro.logic.printer import format_clause
from repro.semantics.satisfaction import falsifies_entailment
from tests.conftest import KNOWN_VERDICTS


@pytest.mark.parametrize("text,expected", KNOWN_VERDICTS)
def test_known_verdicts(prover, text, expected):
    result = prover.prove(parse_entailment(text))
    assert result.is_valid == expected, text


@pytest.mark.parametrize("text,expected", KNOWN_VERDICTS)
def test_known_verdicts_without_bookkeeping(fast_prover, text, expected):
    assert fast_prover.prove(parse_entailment(text)).is_valid == expected, text


def test_result_objects(prover):
    valid = prover.prove(parse_entailment("next(x, nil) |- lseg(x, nil)"))
    assert valid.verdict is Verdict.VALID and bool(valid)
    assert valid.proof is not None and valid.proof.is_refutation
    assert valid.counterexample is None

    invalid = prover.prove(parse_entailment("lseg(x, y) |- next(x, y)"))
    assert invalid.verdict is Verdict.INVALID and not bool(invalid)
    assert invalid.proof is None
    assert invalid.counterexample is not None


def test_counterexamples_are_genuine(prover):
    for text, expected in KNOWN_VERDICTS:
        if expected:
            continue
        entailment = parse_entailment(text)
        result = prover.prove(entailment)
        assert result.counterexample is not None
        assert falsifies_entailment(
            result.counterexample.stack, result.counterexample.heap, entailment
        ), text


def test_proofs_are_well_founded(prover):
    for text, expected in KNOWN_VERDICTS:
        if not expected:
            continue
        result = prover.prove(parse_entailment(text))
        proof = result.proof
        assert proof is not None
        assert proof.conclusion == EMPTY_CLAUSE
        seen = set()
        for step in proof:
            assert all(premise in seen for premise in step.premises)
            assert step.index not in seen
            seen.add(step.index)
        # Leaves are either cnf inputs or pure clauses; the rendering is non-empty text.
        assert proof.format()


def test_statistics_are_populated(prover):
    result = prover.prove(
        parse_entailment("lseg(x, y) * lseg(y, z) * next(z, w) |- lseg(x, z) * next(z, w)")
    )
    stats = result.statistics
    assert stats.iterations >= 1
    assert stats.saturation_rounds >= 1
    assert stats.elapsed_seconds > 0
    assert stats.unfolding_steps >= 1


def test_prove_convenience_function():
    assert prove(parse_entailment("true |- emp")).is_valid


def test_prover_is_reusable(prover):
    first = prover.prove(parse_entailment("next(x, nil) |- lseg(x, nil)"))
    second = prover.prove(parse_entailment("lseg(x, y) |- next(x, y)"))
    third = prover.prove(parse_entailment("next(x, nil) |- lseg(x, nil)"))
    assert first.is_valid and third.is_valid and not second.is_valid


def test_config_for_benchmarking_disables_proofs():
    config = ProverConfig().for_benchmarking()
    assert not config.record_proof and not config.verify_counterexamples
    result = Prover(config).prove(parse_entailment("next(x, nil) |- lseg(x, nil)"))
    assert result.is_valid and result.proof is None


def test_large_but_easy_entailment(prover):
    chain = " * ".join("next(x{}, x{})".format(i, i + 1) for i in range(12))
    text = "{} * next(x12, nil) |- lseg(x0, nil)".format(chain)
    assert prover.prove(parse_entailment(text)).is_valid


def test_deep_refutation_rebuilds_its_proof(prover):
    """A 300-cell chain: the refutation is some 900 derivations deep, more
    than a recursive rebuild of the proof fits on Python's stack."""
    cells = 300
    chain = " * ".join("x{} |-> x{}".format(i, i + 1) for i in range(cells))
    text = "{} * x{} |-> nil |- lseg(x0, nil)".format(chain, cells)
    result = prover.prove(parse_entailment(text))
    assert result.is_valid and result.proof.is_refutation
    assert format_clause(result.proof.conclusion) == "[]"


def test_proof_uses_input_rule_for_cnf_clauses(prover):
    entailment = parse_entailment("x != x /\\ emp |- emp")
    result = prover.prove(entailment)
    # The left-hand side is inconsistent, so the refutation is purely pure.
    assert result.is_valid
    assert INPUT_RULE in result.proof.rules_used()
    # The engine simplifies the input clause by equality resolution as it
    # adds it; the proof names that step instead of presenting [] as input.
    steps = [(format_clause(step.clause), step.rule, step.premises) for step in result.proof]
    assert steps == [("x = x -->", INPUT_RULE, ()), ("[]", "equality-resolution", (1,))]
    reference = Prover(ProverConfig().reference()).prove(entailment)
    assert reference.proof.format() == result.proof.format()
