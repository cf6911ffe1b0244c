"""The pluggable spatial-theory layer and the doubly-linked theory.

Covers the registry, the D/W well-formedness rules, the forced-path
unfolding over two-field cells, exact satisfaction, verified counterexample
tweaks, the end-to-end prover behaviour, the ``dll`` generator family
cross-checked against the enumeration oracle, and the batch/cache layer on
``dlseg`` entailments.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchProver
from repro.core.config import ProverConfig
from repro.core.prover import Prover, prove
from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile
from repro.fuzz.metamorphic import applicable_transforms
from repro.fuzz.oracles import EnumerationOracle, JStarOracle, SmallfootOracle
from repro.logic.atoms import SpatialFormula
from repro.logic.canonical import canonicalize
from repro.logic.clauses import Clause
from repro.logic.formula import Entailment, dcell, dlseg, eq, lseg, pts
from repro.logic.parser import parse_entailment
from repro.logic.terms import Const, NIL, make_const
from repro.semantics.enumeration import (
    interpretation_count,
    is_valid_by_enumeration,
)
from repro.semantics.heap import Heap, Stack
from repro.semantics.satisfaction import falsifies_entailment, satisfies_spatial
from repro.spatial.theory import (
    MixedTheoryError,
    UnknownTheoryError,
    available_theories,
    get_theory,
    predicate_table,
    theory_of,
)
from repro.spatial.unfolding import unfold
from repro.spatial.wellformedness import well_formedness_consequences


def _positive(*atoms):
    return Clause.positive_spatial(SpatialFormula(atoms))


def _negative(*atoms):
    return Clause.negative_spatial(SpatialFormula(atoms))


class TestRegistry:
    def test_builtin_theories_registered(self):
        names = [theory.name for theory in available_theories()]
        assert names == ["dll", "sll"]

    def test_predicate_table_routes_names(self):
        table = predicate_table()
        assert table["next"][0].name == "sll" and table["next"][1].arity == 2
        assert table["lseg"][1].kind == "segment"
        assert table["cell"][0].name == "dll" and table["cell"][1].arity == 3
        assert table["dlseg"][1].arity == 4

    def test_theory_of_formulas_and_entailments(self):
        assert theory_of(SpatialFormula([pts("x", "y")])).name == "sll"
        assert theory_of(SpatialFormula([dcell("x", "y", "p")])).name == "dll"
        assert theory_of(Entailment.build(lhs=[eq("x", "y")], rhs=[])).name == "sll"
        entailment = Entailment.build(lhs=[dlseg("x", "p", "y", "q")], rhs=[])
        assert theory_of(entailment).name == "dll"

    def test_mixed_theories_are_rejected(self):
        mixed = Entailment.build(lhs=[pts("x", "y")], rhs=[dcell("x", "y", "p")])
        with pytest.raises(MixedTheoryError):
            theory_of(mixed)
        with pytest.raises(MixedTheoryError):
            prove(mixed)

    def test_unknown_theory(self):
        with pytest.raises(UnknownTheoryError):
            get_theory("singly-linked-but-wrong")

    def test_cell_fields(self):
        assert get_theory("sll").cell_fields == 1
        assert get_theory("dll").cell_fields == 2

    def test_classification(self):
        dll = get_theory("dll")
        assert dll.is_cell(dcell("x", "y", "p"))
        assert dll.is_segment(dlseg("x", "p", "y", "q"))
        sll = get_theory("sll")
        assert sll.is_cell(pts("x", "y"))
        assert sll.is_segment(lseg("x", "y"))


class TestDllAtoms:
    def test_trivial_segment(self):
        assert dlseg("x", "p", "x", "p").is_trivial
        assert not dlseg("x", "p", "x", "q").is_trivial
        assert not dlseg("x", "p", "y", "p").is_trivial
        assert not dcell("x", "y", "p").is_trivial

    def test_substitute(self):
        mapping = {make_const("x"): make_const("z")}
        assert dcell("x", "x", "x").substitute(mapping) == dcell("z", "z", "z")
        assert dlseg("x", "p", "x", "q").substitute(mapping) == dlseg("z", "p", "z", "q")

    def test_argument_roles_and_constants(self):
        atom = dlseg("a", "p", "b", "q")
        assert [role for role, _ in atom.argument_roles()] == ["src", "psrc", "tgt", "pback"]
        assert atom.constants() == frozenset(
            {Const("a"), Const("p"), Const("b"), Const("q")}
        )

    def test_formula_ordering_is_deterministic(self):
        one = SpatialFormula([dcell("b", "c", "a"), dlseg("a", "p", "b", "q")])
        two = SpatialFormula([dlseg("a", "p", "b", "q"), dcell("b", "c", "a")])
        assert one == two and one.atoms == two.atoms

    def test_str_forms(self):
        assert str(dcell("x", "y", "p")) == "cell(x, y, p)"
        assert str(dlseg("x", "p", "y", "q")) == "dlseg(x, p, y, q)"


class TestDllWellFormedness:
    def rules(self, clause):
        return [(c.rule, c.conclusion) for c in well_formedness_consequences(clause)]

    def test_w1_cell_at_nil(self):
        rules = self.rules(_positive(dcell(NIL, "y", "p")))
        assert [rule for rule, _ in rules] == ["W1"]
        assert rules[0][1] == Clause.pure()

    def test_w2_segment_at_nil(self):
        (consequence,) = well_formedness_consequences(
            _positive(dlseg(NIL, "p", "y", "q"))
        )
        assert consequence.rule == "W2"
        assert "y = nil" in str(consequence.conclusion)

    def test_d1_equal_ends_force_prev_equation(self):
        (consequence,) = well_formedness_consequences(_positive(dlseg("x", "p", "x", "q")))
        assert consequence.rule == "D1"
        assert "p = q" in str(consequence.conclusion)

    def test_d2_nil_back(self):
        (consequence,) = well_formedness_consequences(_positive(dlseg("x", "p", "y", NIL)))
        assert consequence.rule == "D2"
        assert "x = y" in str(consequence.conclusion)

    def test_d3_back_equals_end(self):
        (consequence,) = well_formedness_consequences(_positive(dlseg("x", "p", "y", "y")))
        assert consequence.rule == "D3"
        assert "x = y" in str(consequence.conclusion)

    def test_w3_two_cells_share_address(self):
        (consequence,) = well_formedness_consequences(
            _positive(dcell("x", "a", "b"), dcell("x", "c", "d"))
        )
        assert consequence.rule == "W3"
        assert consequence.conclusion == Clause.pure()

    def test_w4_cell_and_segment_share_address(self):
        (consequence,) = well_formedness_consequences(
            _positive(dcell("x", "a", "b"), dlseg("x", "p", "y", "q"))
        )
        assert consequence.rule == "W4"
        assert "x = y" in str(consequence.conclusion)

    def test_w5_two_segments_share_address(self):
        (consequence,) = well_formedness_consequences(
            _positive(dlseg("x", "p", "y", "q"), dlseg("x", "r", "z", "s"))
        )
        assert consequence.rule == "W5"
        rendered = str(consequence.conclusion)
        assert "x = y" in rendered and "x = z" in rendered

    def test_d4_back_collides_with_cell(self):
        (consequence,) = well_formedness_consequences(
            _positive(dlseg("x", "p", "y", "q"), dcell("q", "a", "b"))
        )
        assert consequence.rule == "D4"
        assert "x = y" in str(consequence.conclusion)

    def test_d4_two_backs_collide(self):
        (consequence,) = well_formedness_consequences(
            _positive(dlseg("x", "p", "y", "q"), dlseg("z", "r", "w", "q"))
        )
        assert consequence.rule == "D4"
        rendered = str(consequence.conclusion)
        assert "x = y" in rendered and "w = z" in rendered

    def test_own_back_is_not_a_collision(self):
        # dlseg(x, p, y, x): a one-cell segment; head and back coincide.
        assert well_formedness_consequences(_positive(dlseg("x", "p", "y", "x"))) == []

    def test_trivial_segments_contribute_nothing(self):
        assert well_formedness_consequences(
            _positive(dlseg("x", "p", "x", "p"), dcell("x", "y", "z"))
        ) == []


class TestDllUnfolding:
    def test_exact_cell_match_resolves(self):
        outcome = unfold(_positive(dcell("x", "y", "p")), _negative(dcell("x", "y", "p")))
        assert outcome.success
        assert [step.rule for step in outcome.steps] == ["SR"]

    def test_fold_chain_uses_u2_and_u1(self):
        positive = _positive(dcell("x", "y", NIL), dcell("y", NIL, "x"))
        negative = _negative(dlseg("x", NIL, NIL, "y"))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert [step.rule for step in outcome.steps] == ["U2", "U1", "SR"]

    def test_one_cell_segment_folds_demanded_cell(self):
        outcome = unfold(
            _positive(dlseg("x", "p", "y", "x")), _negative(dcell("x", "y", "p"))
        )
        assert outcome.success
        assert [step.rule for step in outcome.steps] == ["U1", "SR"]
        # The side condition x = y escapes the empty-segment case.
        assert "x = y" in str(outcome.steps[0].after)

    def test_split_at_segment_uses_u3_for_nil_end(self):
        positive = _positive(dlseg("x", "p", "y", "q"), dcell("y", NIL, "q"))
        negative = _negative(dlseg("x", "p", NIL, "y"))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U3" in [step.rule for step in outcome.steps]

    def test_split_uses_u5_when_anchored_by_segment(self):
        # The demanded end z is the head of the positive segment C, so the
        # split at the first piece records C's emptiness as the side condition.
        positive = _positive(
            dlseg("x", "p", "y", "q"),
            dlseg("y", "q", "z", "r"),
            dlseg("z", "r", "w", "s"),
        )
        negative = _negative(dlseg("x", "p", "z", "r"), dlseg("z", "r", "w", "s"))
        outcome = unfold(positive, negative)
        assert outcome.success
        rules = [step.rule for step in outcome.steps]
        assert "U5" in rules and rules[-1] == "SR"
        u5 = next(step for step in outcome.steps if step.rule == "U5")
        assert "w = z" in str(u5.side_condition)

    def test_unanchored_concatenation_dangles(self):
        # Without an allocation anchor for z, the first segment could run
        # through it, so the plain two-segment concatenation must fail.
        positive = _positive(dlseg("x", "p", "y", "q"), dlseg("y", "q", "z", "r"))
        negative = _negative(dlseg("x", "p", "z", "r"))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "dangling_segment"
        assert outcome.failure_target == Const("z")

    def test_demanded_cell_on_two_cell_segment_is_stretchable(self):
        outcome = unfold(
            _positive(dlseg("x", "p", "y", "q")), _negative(dcell("x", "q", "p"))
        )
        assert not outcome.success
        assert outcome.failure_kind == "next_expects_cell"
        assert outcome.failure_atom == dlseg("x", "p", "y", "q")

    def test_path_entering_back_cell_is_stretchable(self):
        positive = _positive(dlseg("x", "p", "y", "q"), dcell("z", "q", "w"))
        negative = _negative(dcell("z", "q", "w"), dlseg("q", "z", "y", "q"))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "next_expects_cell"

    def test_broken_backlink_is_a_mismatch(self):
        positive = _positive(dcell("x", "y", NIL), dcell("y", NIL, NIL))
        negative = _negative(dlseg("x", NIL, NIL, "y"))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "mismatch"

    def test_wrong_last_cell_is_a_mismatch(self):
        positive = _positive(dcell("x", "y", NIL), dcell("y", NIL, "x"))
        negative = _negative(dlseg("x", NIL, NIL, "x"))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "mismatch"

    def test_dangling_segment(self):
        positive = _positive(dlseg("x", "p", "y", "q"), dcell("y", "z", "q"))
        negative = _negative(dlseg("x", "p", "z", "y"))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "dangling_segment"
        assert outcome.failure_target == Const("z")

    def test_path_that_never_reaches_the_end_is_a_mismatch(self):
        # The demanded end z is simply absent from the forced path: the base
        # graph itself falsifies the demand, no tweak needed.
        positive = _positive(dlseg("x", "p", "y", "q"))
        negative = _negative(dlseg("x", "p", "z", "q"))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "mismatch"

    def test_uncovered_cells_are_a_mismatch(self):
        positive = _positive(dcell("x", "y", NIL), dcell("y", NIL, "x"))
        negative = _negative(dcell("x", "y", NIL))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "mismatch"


class TestDllSatisfaction:
    def test_cell_requires_both_fields(self):
        stack = Stack({make_const("x"): "lx", make_const("y"): "ly", make_const("p"): "lp"})
        sigma = SpatialFormula([dcell("x", "y", "p")])
        assert satisfies_spatial(stack, Heap({"lx": ("ly", "lp")}), sigma)
        assert not satisfies_spatial(stack, Heap({"lx": ("ly", "ly")}), sigma)
        assert not satisfies_spatial(stack, Heap({"lx": "ly"}), sigma)

    def test_empty_segment_requires_prev_equation(self):
        stack = Stack({make_const("x"): "l0", make_const("p"): "lp", make_const("q"): "lq"})
        assert satisfies_spatial(
            stack, Heap(), SpatialFormula([dlseg("x", "p", "x", "p")])
        )
        assert not satisfies_spatial(
            stack, Heap(), SpatialFormula([dlseg("x", "p", "x", "q")])
        )

    def test_walk_checks_backlinks_and_last_cell(self):
        x, y = make_const("x"), make_const("y")
        stack = Stack({x: "lx", y: "ly"})
        sigma = SpatialFormula([dlseg("x", NIL, NIL, "y")])
        good = Heap({"lx": ("ly", "nil"), "ly": ("nil", "lx")})
        assert satisfies_spatial(stack, good, sigma)
        broken_backlink = Heap({"lx": ("ly", "nil"), "ly": ("nil", "nil")})
        assert not satisfies_spatial(stack, broken_backlink, sigma)
        wrong_last = SpatialFormula([dlseg("x", NIL, NIL, "x")])
        assert not satisfies_spatial(stack, good, wrong_last)

    def test_segment_must_partition_heap(self):
        x, y = make_const("x"), make_const("y")
        stack = Stack({x: "lx", y: "ly"})
        heap = Heap({"lx": ("ly", "nil"), "ly": ("nil", "lx"), "extra": ("nil", "nil")})
        assert not satisfies_spatial(stack, heap, SpatialFormula([dlseg("x", NIL, NIL, "y")]))


class TestDllProver:
    CASES = [
        ("cell(x, y, nil) * cell(y, nil, x) |- dlseg(x, nil, nil, y)", True),
        ("x != y /\\ cell(x, y, p) |- dlseg(x, p, y, x)", True),
        ("cell(x, y, p) |- dlseg(x, p, y, x)", False),
        ("dlseg(x, nil, nil, y) |- cell(x, y, nil) * cell(y, nil, x)", False),
        ("x = y /\\ p = q |- dlseg(x, p, y, q)", True),
        ("emp |- dlseg(x, p, x, p)", True),
        ("cell(x, y, nil) * cell(y, nil, nil) |- dlseg(x, nil, nil, y)", False),
        ("dlseg(x, p, y, q) * cell(y, nil, q) |- dlseg(x, p, nil, y)", True),
        ("dlseg(x, p, y, q) * cell(y, z, q) |- dlseg(x, p, z, y)", False),
        ("cell(x, a, b) * cell(x, a, b) |- false", True),
        ("x != y /\\ dlseg(x, p, y, nil) |- false", True),
        ("x != y /\\ dlseg(x, p, y, y) |- false", True),
        ("p != q /\\ dlseg(x, p, x, q) |- false", True),
        ("dlseg(x, p, y, q) * dlseg(y, q, z, r) |- dlseg(x, p, z, r)", False),
        ("y != z /\\ dlseg(x, p, y, q) * dlseg(y, q, z, r) |- dlseg(x, p, z, r)", False),
        ("dlseg(x, p, nil, q) |- dlseg(x, p, nil, q)", True),
    ]

    @pytest.mark.parametrize("text,expected", CASES, ids=[c[0] for c in CASES])
    def test_verdicts(self, text, expected):
        result = prove(parse_entailment(text))
        assert result.is_valid == expected
        if not result.is_valid:
            cex = result.counterexample
            assert cex is not None
            assert falsifies_entailment(cex.stack, cex.heap, result.entailment)

    def test_segment_concatenation_needs_distinct_end(self):
        # With z = nil the first segment cannot run through the end, so the
        # U3 anchor applies and the composition is provable.
        result = prove(
            parse_entailment(
                "dlseg(x, p, y, q) * dlseg(y, q, nil, r) |- dlseg(x, p, nil, r)"
            )
        )
        assert result.is_valid

    def test_proof_records_dll_rules(self):
        result = prove(
            parse_entailment("cell(x, y, nil) * cell(y, nil, x) |- dlseg(x, nil, nil, y)")
        )
        rendered = result.proof.format()
        assert "U2" in rendered and "SR" in rendered

    def test_counterexample_stretches_segment(self):
        result = prove(parse_entailment("x != y /\\ dlseg(x, p, y, q) |- cell(x, q, p)"))
        assert not result.is_valid
        assert "stretched" in result.counterexample.description

    def test_counterexample_reroutes_dangling_segment(self):
        result = prove(parse_entailment("dlseg(x, p, y, q) |- dlseg(x, p, z, q)"))
        assert not result.is_valid

    def test_agrees_with_enumeration_on_case_table(self):
        for text, expected in self.CASES:
            entailment = parse_entailment(text)
            if interpretation_count(entailment) > 200_000:
                continue
            assert is_valid_by_enumeration(entailment) == expected, text


class TestDllGeneratorFamily:
    def test_family_is_deterministic_and_dll_only(self):
        profile = GeneratorProfile.only("dll", min_variables=2, max_variables=4)
        one = EntailmentGenerator(seed=5, profile=profile).cases(30)
        two = EntailmentGenerator(seed=5, profile=profile).cases(30)
        assert [c.entailment for c in one] == [c.entailment for c in two]
        for case in one:
            assert case.strategy == "dll"
            for sigma in (case.entailment.lhs_spatial, case.entailment.rhs_spatial):
                for atom in sigma:
                    assert atom.theory == "dll"

    def test_family_cross_checks_against_enumeration(self):
        """The acceptance pin: dll instances validated against the oracle."""
        profile = GeneratorProfile.only("dll", min_variables=2, max_variables=4)
        generator = EntailmentGenerator(seed=20260727, profile=profile)
        oracle = EnumerationOracle(max_variables=3)
        prover = Prover(ProverConfig(record_proof=False))
        decided = 0
        for case in generator.cases(60):
            verdict = prover.prove(case.entailment).is_valid
            answer = oracle.check(case.entailment)
            if answer is not None:
                decided += 1
                assert answer == verdict, str(case.entailment)
        assert decided >= 20  # the family must actually exercise the oracle

    def test_transforms_stay_inside_the_theory(self):
        profile = GeneratorProfile.only("dll", min_variables=2, max_variables=4)
        generator = EntailmentGenerator(seed=9, profile=profile)
        import random

        for case in generator.cases(25):
            if case.entailment.lhs_spatial.is_emp and case.entailment.rhs_spatial.is_emp:
                continue  # pure-only instances default to the sll theory
            rng = random.Random(case.index)
            for transform in applicable_transforms(case.entailment):
                mutant = transform.apply(case.entailment, rng)
                if mutant is None:
                    continue
                for sigma in (mutant.lhs_spatial, mutant.rhs_spatial):
                    for atom in sigma:
                        assert atom.theory == "dll", transform.name


class TestDllBaselineGuards:
    def test_baselines_answer_none_for_dll(self):
        entailment = parse_entailment("cell(x, y, nil) |- dlseg(x, nil, y, x)")
        assert SmallfootOracle().check(entailment) is None
        assert JStarOracle().check(entailment) is None


class TestDllBatchAndCache:
    def test_canonical_fingerprint_is_alpha_invariant_for_dll(self):
        entailment = parse_entailment(
            "dlseg(a, p, b, q) * cell(b, nil, q) |- dlseg(a, p, nil, b)"
        )
        renamed = entailment.rename(
            {make_const(n): make_const(n + "_r") for n in ("a", "b", "p", "q")}
        )
        assert canonicalize(entailment).key == canonicalize(renamed).key

    def test_fingerprint_distinguishes_argument_roles(self):
        one = canonicalize(Entailment.build(lhs=[dlseg("x", "p", "y", "q")], rhs=[]))
        two = canonicalize(Entailment.build(lhs=[dlseg("x", "q", "y", "p")], rhs=[]))
        three = canonicalize(Entailment.build(lhs=[dlseg("y", "p", "x", "q")], rhs=[]))
        # Renaming-equivalent problems collide; genuinely different ones must not.
        assert one.key == two.key == three.key  # all alpha-equivalent shapes
        four = canonicalize(Entailment.build(lhs=[dlseg("x", "p", "p", "y")], rhs=[]))
        assert four.key != one.key

    def test_cached_counterexample_is_renamed_back(self):
        caching = BatchProver(ProverConfig(record_proof=False), jobs=1)
        original = parse_entailment("dlseg(x, p, y, q) |- cell(x, q, p)")
        caching.prove_all([original])
        renamed = original.rename(
            {make_const(n): make_const("w_" + n) for n in ("x", "p", "y", "q")}
        )
        (second,) = caching.prove_all([renamed])
        assert second.from_cache
        assert not second.is_valid
        cex = second.counterexample
        assert falsifies_entailment(cex.stack, cex.heap, renamed)

    def test_batch_prover_handles_dll(self):
        profile = GeneratorProfile.only("dll", min_variables=2, max_variables=4)
        entailments = EntailmentGenerator(seed=12, profile=profile).entailments(20)
        sequential = [prove(e).is_valid for e in entailments]
        with BatchProver(ProverConfig(record_proof=False), jobs=2, cache=True) as batch:
            results = batch.prove_all(entailments)
        assert [r.is_valid for r in results] == sequential


class TestEnumerationBudget:
    def test_interpretation_count_grows_with_cell_fields(self):
        sll = Entailment.build(lhs=[lseg("x", "y")], rhs=[])
        dll_e = Entailment.build(lhs=[dlseg("x", "p", "y", "q")], rhs=[])
        assert interpretation_count(sll) < interpretation_count(dll_e)

    def test_oracle_refuses_oversized_dll_instances(self):
        oracle = EnumerationOracle(max_variables=3)
        big = Entailment.build(
            lhs=[dlseg("a", "b", "c", "a")], rhs=[dcell("b", "c", "a")]
        )
        assert len(big.variables()) == 3
        assert oracle.check(big) is None  # two-field heap space over budget

    def test_oracle_still_decides_small_dll_instances(self):
        entailment = parse_entailment("cell(x, y, nil) |- dlseg(x, nil, y, x)")
        assert EnumerationOracle(max_variables=3).check(entailment) is False


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_dll_counterexamples_always_verify(index):
    """Any invalid dll instance yields a genuinely falsifying interpretation."""
    generator = EntailmentGenerator(
        seed=31, profile=GeneratorProfile.only("dll", min_variables=2, max_variables=4)
    )
    entailment = generator.case(index).entailment
    result = prove(entailment)
    if not result.is_valid:
        cex = result.counterexample
        assert falsifies_entailment(cex.stack, cex.heap, entailment)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=5_000))
def test_dll_prover_matches_enumeration_within_bound(index):
    generator = EntailmentGenerator(
        seed=47, profile=GeneratorProfile.only("dll", min_variables=2, max_variables=4)
    )
    entailment = generator.case(index).entailment
    oracle = EnumerationOracle(max_variables=2)
    answer = oracle.check(entailment)
    if answer is not None:
        assert prove(entailment).is_valid == answer
