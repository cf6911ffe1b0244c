"""Tests of the differential fuzzing subsystem (:mod:`repro.fuzz`).

The layers are tested bottom-up: the generator's determinism and coverage,
the metamorphic transforms' verdict relations (validated *semantically*
against the bounded enumeration oracle — a transform with a wrong relation
cannot pass), the oracle battery, the shrinker, and finally whole campaigns:
clean on the real prover, and catching + shrinking a deliberately injected
soundness bug down to the paper-thin reproducers the acceptance criterion
demands.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz import (
    EntailmentGenerator,
    EnumerationOracle,
    FunctionOracle,
    GeneratorProfile,
    JStarOracle,
    ProverOracle,
    ReferenceProverOracle,
    STRATEGIES,
    SmallfootOracle,
    TRANSFORMS,
    run_campaign,
    shrink,
    transform_by_name,
)
from repro.fuzz.metamorphic import applicable_transforms
from repro.logic.atoms import ListSegment
from repro.logic.formula import Entailment
from repro.logic.parser import parse_entailment
from repro.logic.printer import format_entailment
from repro.logic.terms import make_const
from tests.conftest import KNOWN_VERDICTS


# ---------------------------------------------------------------------------
# Generator layer
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_case_is_deterministic_and_history_free(self):
        generator = EntailmentGenerator(seed=7)
        batch = generator.cases(25)
        # Re-drawing any index in isolation gives the identical instance.
        for case in batch:
            replay = EntailmentGenerator(seed=7).case(case.index)
            assert replay.strategy == case.strategy
            assert replay.entailment == case.entailment

    def test_different_seeds_differ(self):
        a = EntailmentGenerator(seed=0).entailments(10)
        b = EntailmentGenerator(seed=1).entailments(10)
        assert a != b

    def test_every_strategy_is_exercised(self):
        cases = EntailmentGenerator(seed=3).cases(300)
        seen = {case.strategy for case in cases}
        assert seen == set(STRATEGIES)

    def test_single_strategy_profile(self):
        for strategy in STRATEGIES:
            cases = EntailmentGenerator(
                seed=5, profile=GeneratorProfile.only(strategy)
            ).cases(5)
            assert {case.strategy for case in cases} == {strategy}

    def test_zero_weight_strategy_never_drawn(self):
        profile = GeneratorProfile().with_weights(near_symmetric=0.0, unsat=0.0)
        cases = EntailmentGenerator(seed=11, profile=profile).cases(200)
        drawn = {case.strategy for case in cases}
        assert "near_symmetric" not in drawn and "unsat" not in drawn

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            GeneratorProfile(min_variables=1)
        with pytest.raises(ValueError):
            GeneratorProfile(min_variables=5, max_variables=3)
        with pytest.raises(ValueError):
            GeneratorProfile(weights={"no_such_strategy": 1.0})
        with pytest.raises(ValueError):
            GeneratorProfile(weights={"mixed": 0.0})

    def test_near_symmetric_family_gets_invariant_keys(self):
        # The family stresses logic/canonical.py's individualisation search:
        # up to seven interchangeable copies of one gadget.  Pruned by
        # automorphisms, the search keys every instance within its default
        # budget, and the key survives a renaming of the variables.
        from repro.logic.canonical import canonicalize

        cases = EntailmentGenerator(
            seed=1, profile=GeneratorProfile.only("near_symmetric")
        ).cases(60)
        for case in cases:
            entailment = case.entailment
            variables = sorted(entailment.variables())
            fresh = list(variables)
            random.Random(case.index).shuffle(fresh)
            renaming = {
                variable: make_const("r_" + other.name)
                for variable, other in zip(variables, fresh)
            }
            assert (
                canonicalize(entailment).key
                == canonicalize(entailment.rename(renaming)).key
            )

    def test_generated_entailments_round_trip_through_the_parser(self):
        for case in EntailmentGenerator(seed=13).cases(60):
            text = format_entailment(case.entailment)
            assert parse_entailment(text) == case.entailment

    def test_variable_counts_respect_the_profile(self):
        profile = GeneratorProfile(min_variables=3, max_variables=4)
        for case in EntailmentGenerator(seed=17, profile=profile).cases(80):
            if case.strategy == "near_symmetric":
                continue  # sized by gadget copies, not by the variable range
            assert len(case.entailment.variables()) <= 4


# ---------------------------------------------------------------------------
# Metamorphic layer
# ---------------------------------------------------------------------------


def _small_battery():
    """Small entailments with enumerable ground truth, varied enough to hit
    every transform's applicability conditions."""
    texts = [text for text, _ in KNOWN_VERDICTS]
    return [
        entailment
        for entailment in map(parse_entailment, texts)
        if len(entailment.variables()) <= 3
    ]


class TestMetamorphicRelations:
    #: The transform relations are *semantic* claims; check them against the
    #: exact-semantics enumeration oracle, not against any prover.
    oracle = EnumerationOracle(max_variables=5, max_atoms=10, extra_locations=1)

    @pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.name)
    def test_relation_holds_semantically(self, transform):
        rng = random.Random(42)
        checked = 0
        for entailment in _small_battery():
            original = self.oracle.check(entailment)
            if original is None:
                continue
            for attempt in range(3):
                mutant = transform.apply(entailment, rng)
                if mutant is None:
                    continue
                expected = transform.relation.expected(original)
                if expected is None:
                    continue
                observed = self.oracle.check(mutant)
                if observed is None:
                    continue  # the mutant outgrew the enumeration bound
                assert observed == expected, (
                    transform.name,
                    str(entailment),
                    str(mutant),
                )
                checked += 1
        assert checked >= 5, "transform {} was never exercised".format(transform.name)

    def test_every_transform_applies_somewhere(self):
        rng = random.Random(1)
        for transform in TRANSFORMS:
            produced = any(
                transform.apply(entailment, rng) is not None
                for entailment in _small_battery()
            )
            assert produced, transform.name

    def test_applicable_transforms_static_filter(self):
        bare = parse_entailment("true |- emp")
        names = {transform.name for transform in applicable_transforms(bare)}
        assert "weaken_consequent" not in names
        assert "weaken_antecedent" not in names
        assert "duplicate_cell" not in names
        assert "contradict_antecedent" in names  # invents a fresh variable

    def test_transform_by_name(self):
        assert transform_by_name("alpha_rename").name == "alpha_rename"
        with pytest.raises(KeyError):
            transform_by_name("no_such_transform")

    @given(seed=st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=20)
    def test_alpha_rename_preserves_prover_verdict(self, seed):
        prover = ProverOracle()
        case = EntailmentGenerator(seed=seed).case(0)
        rng = random.Random(seed)
        mutant = transform_by_name("alpha_rename").apply(case.entailment, rng)
        if mutant is None:
            return
        assert prover.check(mutant) == prover.check(case.entailment)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class TestOracles:
    def test_oracles_agree_on_known_verdicts(self):
        slp = ProverOracle()
        reference = ReferenceProverOracle()
        enumeration = EnumerationOracle(max_variables=4)
        smallfoot = SmallfootOracle()
        jstar = JStarOracle()
        for text, expected in KNOWN_VERDICTS:
            entailment = parse_entailment(text)
            assert slp.check(entailment) == expected, text
            assert reference.check(entailment) == expected, text
            answer = enumeration.check(entailment)
            assert answer in (None, expected), text
            answer = smallfoot.check(entailment)
            assert answer in (None, expected), text
            answer = jstar.check(entailment)  # one-sided: only valid is trusted
            assert answer in (None, True), text
            if answer is True:
                assert expected, text

    def test_enumeration_bound(self):
        oracle = EnumerationOracle(max_variables=2)
        big = parse_entailment("lseg(a, b) * lseg(b, c) * lseg(c, d) |- lseg(a, d)")
        assert oracle.check(big) is None
        small = parse_entailment("x != y /\\ next(x, y) |- lseg(x, y)")
        assert oracle.check(small) is True

    def test_prover_oracle_timeout_is_undecided(self):
        oracle = ProverOracle(max_seconds=1e-9)
        assert oracle.check(parse_entailment("lseg(x, y) * lseg(y, nil) |- lseg(x, nil)")) is None


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_rejects_non_reproducing_input(self):
        entailment = parse_entailment("next(x, nil) |- lseg(x, nil)")
        with pytest.raises(ValueError):
            shrink(entailment, lambda e: False)

    def test_shrinks_to_a_minimal_invalid_core(self):
        prover = ProverOracle()
        # A large invalid entailment; "the prover answers invalid" plays the
        # role of the disagreement predicate.
        entailment = parse_entailment(
            "a != b /\\ b != c /\\ next(a, b) * next(b, c) * lseg(c, d) * next(e, nil)"
            " |- lseg(a, c) * lseg(c, d)"
        )
        assert prover.check(entailment) is False
        result = shrink(entailment, lambda e: prover.check(e) is False)
        assert result.entailment.size() <= 2
        assert prover.check(result.entailment) is False
        assert result.steps_accepted > 0

    def test_result_always_satisfies_predicate(self):
        prover = ProverOracle()
        predicate = lambda e: prover.check(e) is True  # noqa: E731
        entailment = parse_entailment(
            "x != y /\\ next(x, y) * next(y, nil) * lseg(z, nil) |- lseg(x, nil) * lseg(z, nil)"
        )
        assert predicate(entailment)
        result = shrink(entailment, predicate)
        assert predicate(result.entailment)
        assert result.entailment.size() <= entailment.size()


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_campaign_is_deterministic(self):
        first = run_campaign(seed=0, iterations=40)
        second = run_campaign(seed=0, iterations=40)
        assert json.dumps(first.to_json(include_timing=False), sort_keys=True) == json.dumps(
            second.to_json(include_timing=False), sort_keys=True
        )

    def test_campaign_is_clean_and_cross_checks_three_sources(self):
        report = run_campaign(seed=0, iterations=60)
        assert report.clean, [f.to_json() for f in report.disagreements]
        # slp (the primary) + enumeration + reference = three verdict sources.
        assert set(report.oracle_checks) == {"enumeration", "reference"}
        assert report.oracle_decided["reference"] == report.instances_checked
        assert report.oracle_decided["enumeration"] > 0
        assert report.metamorphic_pairs_checked > 0
        assert report.undecided == 0

    def test_campaign_exercises_the_batch_cache_layers(self):
        report = run_campaign(seed=0, iterations=120)
        # Alpha-renamed mutants are fingerprint-identical to their originals,
        # so the in-batch deduplication of PR 2 must fire.
        assert report.deduplicated > 0

    def test_injected_soundness_bug_is_caught_and_shrunk(self):
        """The acceptance-criterion mutation test.

        The buggy oracle claims every entailment with an ``lseg`` on the
        right-hand side is valid — a caricature of a broken U-rule.  The
        campaign must notice the disagreement and shrink it to a reproducer
        of at most 4 conjuncts.
        """
        truthful = ProverOracle()

        def buggy_check(entailment: Entailment):
            if any(isinstance(atom, ListSegment) for atom in entailment.rhs_spatial):
                return True
            return truthful.check(entailment)

        report = run_campaign(
            seed=0,
            iterations=60,
            oracles=[EnumerationOracle(max_variables=3), FunctionOracle("buggy", buggy_check)],
        )
        findings = [f for f in report.disagreements if f.kind == "differential"]
        assert findings, "the injected bug went unnoticed"
        shrunk = [f for f in findings if f.shrunk is not None]
        assert shrunk, "no finding was shrunk"
        assert min(f.shrunk_conjuncts for f in shrunk) <= 4

    def test_findings_are_banked_as_corpus_reproducers(self, tmp_path):
        truthful = ProverOracle()

        def buggy_check(entailment: Entailment):
            if any(isinstance(atom, ListSegment) for atom in entailment.rhs_spatial):
                return True
            return truthful.check(entailment)

        corpus_dir = tmp_path / "corpus"
        report = run_campaign(
            seed=0,
            iterations=30,
            oracles=[EnumerationOracle(max_variables=3), FunctionOracle("buggy", buggy_check)],
            corpus_dir=str(corpus_dir),
        )
        banked = [f for f in report.disagreements if f.corpus_path]
        assert banked
        from repro.fuzz import load_corpus

        entries = load_corpus(str(corpus_dir))
        assert entries
        # Ground truth follows the trust hierarchy: enumeration outranks the
        # buggy oracle, so every banked verdict is genuine.
        slp = ProverOracle()
        for entry in entries:
            assert slp.check(entry.entailment) == entry.expected_valid, entry.name

    def test_metamorphic_violation_is_reported(self):
        """A prover wrong only about one input family gets caught *without any
        oracle*: the verdict-pair check against the transform relation
        suffices."""
        truthful = ProverOracle()

        def oblivious_check(entailment: Entailment):
            # Mishandles contradictory antecedents — reports invalid whenever
            # two pure literals contradict each other syntactically.  This is
            # the exact target of the contradict_antecedent flip transform.
            seen = {}
            for literal in entailment.lhs_pure:
                if literal.atom in seen and seen[literal.atom] != literal.positive:
                    return False  # unsound: the contradiction makes it VALID
                seen[literal.atom] = literal.positive
            return truthful.check(entailment)

        report = run_campaign(
            seed=2,
            iterations=80,
            oracles=[],  # no differential oracles: only the metamorphic layer can see it
            p_transform=1.0,
            primary_oracle=FunctionOracle("oblivious", oblivious_check),
            shrink_findings=False,
        )
        metamorphic = [f for f in report.disagreements if f.kind == "metamorphic"]
        assert metamorphic, "the relation violation went unnoticed"
        assert any(f.transform == "contradict_antecedent" for f in metamorphic)

    def test_honest_prover_violates_no_relation(self):
        report = run_campaign(seed=2, iterations=60, oracles=[], p_transform=1.0)
        assert all(f.kind != "metamorphic" for f in report.disagreements)

    def test_timeouts_count_as_undecided(self):
        report = run_campaign(seed=0, iterations=10, timeout=1e-9, oracles=[], shrink_findings=False)
        assert report.undecided == report.instances_checked
        assert report.metamorphic_pairs_checked == 0

    def test_campaign_with_baselines(self):
        report = run_campaign(seed=4, iterations=25, include_baselines=True)
        assert report.clean, [f.to_json() for f in report.disagreements]
        assert "smallfoot" in report.oracle_checks and "jstar" in report.oracle_checks
        assert report.oracle_decided.get("smallfoot", 0) > 0

    def test_parallel_campaign_matches_sequential(self):
        sequential = run_campaign(seed=0, iterations=40, jobs=1)
        parallel = run_campaign(seed=0, iterations=40, jobs=2)
        assert json.dumps(
            sequential.to_json(include_timing=False), sort_keys=True
        ) == json.dumps(parallel.to_json(include_timing=False), sort_keys=True)


class TestFuzzCli:
    def test_cli_clean_campaign(self, capsys, tmp_path):
        from repro.cli import main

        summary = tmp_path / "summary.json"
        exit_code = main(
            [
                "fuzz",
                "--seed", "0",
                "--iterations", "30",
                "--summary", str(summary),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "no disagreements found" in output
        payload = json.loads(summary.read_text())
        assert payload["iterations"] == 30
        assert payload["disagreements"] == []

    def test_cli_is_deterministic(self, capsys):
        from repro.cli import main

        def run():
            main(["fuzz", "--seed", "0", "--iterations", "25"])
            out = capsys.readouterr().out
            # Drop the timing line, keep everything the seed determines.
            return [line for line in out.splitlines() if not line.startswith("elapsed")]

        assert run() == run()

    def test_cli_weight_overrides_and_validation(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "fuzz",
                    "--seed", "1",
                    "--iterations", "15",
                    "--weight", "near_symmetric=1.0",
                    "--weight", "mixed=0.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "near_symmetric" in out

        with pytest.raises(SystemExit):
            main(["fuzz", "--weight", "bogus=1.0"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["fuzz", "--iterations", "0"])
        capsys.readouterr()
