"""Tests for the benchmark workload generators and the comparison harness."""

import random

import pytest

from repro.benchgen.cloning import clone_entailment
from repro.benchgen.harness import compare_on_batch, default_checkers, format_table, run_batch
from repro.benchgen.random_fold import FoldParameters, random_fold_batch, random_fold_entailment
from repro.benchgen.random_unsat import (
    TABLE1_PARAMETERS,
    UnsatParameters,
    random_unsat_batch,
    random_unsat_entailment,
)
from repro.logic.atoms import ListSegment, PointsTo
from repro.logic.parser import parse_entailment


class TestRandomUnsat:
    def test_paper_parameters_cover_10_to_20(self):
        assert set(TABLE1_PARAMETERS) == set(range(10, 21))
        params = UnsatParameters.paper(10)
        assert params.p_lseg == 0.10 and params.p_neq == 0.20
        with pytest.raises(ValueError):
            UnsatParameters.paper(9)

    def test_structure_of_instances(self):
        rng = random.Random(1)
        entailment = random_unsat_entailment(UnsatParameters(8, 0.3, 0.3), rng)
        assert entailment.has_false_rhs
        assert all(isinstance(atom, ListSegment) for atom in entailment.lhs_spatial)
        assert all(not literal.positive for literal in entailment.lhs_pure)

    def test_batches_are_reproducible(self):
        params = UnsatParameters.paper(10)
        assert random_unsat_batch(params, 5, seed=3) == random_unsat_batch(params, 5, seed=3)
        assert random_unsat_batch(params, 5, seed=3) != random_unsat_batch(params, 5, seed=4)

    def test_calibration_yields_a_mix_of_verdicts(self, fast_prover):
        batch = random_unsat_batch(UnsatParameters.paper(10), 30, seed=11)
        verdicts = [fast_prover.prove(entailment).is_valid for entailment in batch]
        assert any(verdicts) and not all(verdicts)


class TestRandomFold:
    def test_structure_of_instances(self):
        rng = random.Random(2)
        entailment = random_fold_entailment(FoldParameters(8, 0.7), rng)
        # The left-hand side is a permutation shape: one atom per variable.
        assert len(entailment.lhs_spatial) == 8
        sources = [atom.source for atom in entailment.lhs_spatial]
        assert len(set(sources)) == 8
        assert entailment.lhs_spatial.is_well_formed()
        # The right-hand side only contains segments.
        assert all(isinstance(atom, ListSegment) for atom in entailment.rhs_spatial)
        assert len(entailment.rhs_spatial) <= len(entailment.lhs_spatial)

    def test_mix_of_next_and_lseg(self):
        rng = random.Random(3)
        entailment = random_fold_entailment(FoldParameters(12, 0.7), rng)
        kinds = {type(atom) for atom in entailment.lhs_spatial}
        assert PointsTo in kinds

    def test_batches_are_reproducible_and_mixed(self, fast_prover):
        params = FoldParameters.paper(9)
        batch = random_fold_batch(params, 20, seed=5)
        assert batch == random_fold_batch(params, 20, seed=5)
        verdicts = [fast_prover.prove(entailment).is_valid for entailment in batch]
        assert any(verdicts) and not all(verdicts)


class TestCloning:
    def test_clone_counts_and_renaming(self):
        entailment = parse_entailment("x != y /\\ lseg(x, y) * next(y, nil) |- lseg(x, nil)")
        cloned = clone_entailment(entailment, 3)
        assert len(cloned.lhs_spatial) == 3 * len(entailment.lhs_spatial)
        assert len(cloned.variables()) == 3 * len(entailment.variables())
        with pytest.raises(ValueError):
            clone_entailment(entailment, 0)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x |-> y * y |-> nil |- lseg(x, nil)", True),
            ("lseg(x, y) |- next(x, y)", False),
            ("lseg(x, y) * lseg(y, nil) |- lseg(x, nil)", True),
        ],
    )
    def test_cloning_preserves_validity(self, fast_prover, text, expected):
        entailment = parse_entailment(text)
        for copies in (1, 2, 3):
            cloned = clone_entailment(entailment, copies)
            assert fast_prover.prove(cloned).is_valid == expected


class TestHarness:
    def test_run_batch_and_format_table(self):
        batch = [
            parse_entailment("x |-> nil |- lseg(x, nil)"),
            parse_entailment("lseg(x, y) |- next(x, y)"),
        ]
        checkers = default_checkers(per_instance_timeout=2.0)
        run = run_batch("slp", checkers["slp"], batch)
        assert run.attempted == 2 and run.solved == 2 and run.valid == 1
        assert not run.timed_out

        row = compare_on_batch("tiny", batch, per_instance_timeout=2.0)
        table = format_table("demo", [row])
        assert "tiny" in table and "slp" in table

    def test_budget_reporting(self):
        batch = [parse_entailment("x |-> nil |- lseg(x, nil)")] * 3
        checkers = default_checkers(per_instance_timeout=2.0)
        run = run_batch("slp", checkers["slp"], batch, budget_seconds=0.0)
        assert run.timed_out
        assert run.cell.startswith("(")
