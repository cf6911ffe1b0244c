"""Equivalence of the production engine against the reference oracle.

The dense kernel, its clause index and the incremental model generator are
pure optimisations: the engine must derive *identical* clauses in an
*identical* order, and the prover must return identical verdicts with
identical work counters, whether it runs the default engine or
``ProverConfig.reference()`` (the symbolic loop with linear scans and
from-scratch model builds).  These tests pin that property on a sizeable
random corpus, at both the engine level and the whole-prover level, and pin
the clause index's queries against brute force.
"""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

from repro.benchgen.random_unsat import UnsatParameters, random_unsat_batch
from repro.core.config import ProverConfig
from repro.core.prover import Prover
from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile, STRATEGIES
from repro.logic.cnf import cnf
from repro.logic.ordering import default_order
from repro.semantics.satisfaction import falsifies_entailment
from repro.superposition.kernel import DenseEncoder, IntClauseIndex
from repro.superposition.saturation import SaturationEngine

#: Size of the random-entailment corpus (the acceptance criterion asks >= 200).
CORPUS_SIZE = 220
CORPUS_SEED = 20260727


def _corpus():
    # The corpus is drawn through the fuzzing subsystem's generator layer, so
    # the equivalence pin covers every shape family the fuzzer produces
    # (alias chains, disequality paths, near-symmetric gadgets, ...) rather
    # than one ad-hoc distribution.
    entailments = EntailmentGenerator(seed=CORPUS_SEED).entailments(CORPUS_SIZE)
    # A slice of the Table 1 distribution too: wide pure clauses exercise the
    # subsumption index far harder than the small mixed entailments above.
    for variables in (10, 13):
        entailments.extend(
            random_unsat_batch(UnsatParameters.paper(variables), 10, seed=variables)
        )
    return entailments


def test_indexed_prover_matches_reference_on_corpus():
    """Identical verdicts, work counters and genuine counterexamples on >=200 entailments."""
    indexed = Prover(ProverConfig().for_benchmarking())
    reference = Prover(ProverConfig().for_benchmarking().reference())
    corpus = _corpus()
    assert len(corpus) >= 200
    for entailment in corpus:
        fast = indexed.prove(entailment)
        slow = reference.prove(entailment)
        assert fast.is_valid == slow.is_valid, entailment
        assert (
            fast.statistics.generated_clauses == slow.statistics.generated_clauses
        ), entailment
        if fast.is_invalid:
            cex = fast.counterexample
            assert cex is not None
            assert falsifies_entailment(cex.stack, cex.heap, entailment)


#: The two engines, as ``use_kernel`` values: the kernel, then the reference.
ENGINE_MATRIX = (True, False)


def _saturated_engines(entailment):
    embedding = cnf(entailment)
    engines = []
    for use_kernel in ENGINE_MATRIX:
        engine = SaturationEngine(default_order(entailment.constants()), use_kernel=use_kernel)
        engine.add_clauses(embedding.pure_clauses)
        engine.saturate()
        engines.append(engine)
    return engines


def test_indexed_engine_derives_identical_clause_sets():
    """The given-clause loop itself: same actives, in the same order, same counts.

    The kernel (with its clause index) must agree clause-for-clause with the
    reference loop (see also tests/test_kernel.py for the kernel-specific
    pins).
    """
    for entailment in _corpus()[:60]:
        kernel, naive = _saturated_engines(entailment)
        assert kernel.refuted == naive.refuted
        assert kernel.clauses() == naive.clauses()
        assert kernel.generated_count == naive.generated_count


class TestGeneratorRoutedProperties:
    """Property-based equivalence: any generator instance, any strategy.

    Hypothesis picks the seed and the strategy; the instance comes from the
    fuzz generator, so shrinking a failure here reports a (seed, strategy)
    pair that regenerates it exactly.
    """

    indexed = Prover(ProverConfig().for_benchmarking())
    reference = Prover(ProverConfig().for_benchmarking().reference())

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 30),
        strategy=st.sampled_from(sorted(STRATEGIES)),
    )
    def test_indexed_matches_reference_on_any_generated_instance(self, seed, strategy):
        entailment = (
            EntailmentGenerator(seed=seed, profile=GeneratorProfile.only(strategy))
            .case(0)
            .entailment
        )
        fast = self.indexed.prove(entailment)
        slow = self.reference.prove(entailment)
        assert fast.is_valid == slow.is_valid, entailment
        assert (
            fast.statistics.generated_clauses == slow.statistics.generated_clauses
        ), entailment

    @given(seed=st.integers(min_value=0, max_value=2 ** 30))
    def test_engine_clause_sets_agree_on_generated_instances(self, seed):
        entailment = EntailmentGenerator(seed=seed).case(0).entailment
        kernel, naive = _saturated_engines(entailment)
        assert kernel.refuted == naive.refuted
        assert kernel.clauses() == naive.clauses()
        assert kernel.generated_count == naive.generated_count


class TestClauseIndex:
    """Unit tests of the kernel's clause index against brute-force answers.

    The oracle is the symbolic :meth:`Clause.subsumes` and the calculus's
    inference rules; the index sees the same clauses in dense form.
    """

    @staticmethod
    def _random_pure_clauses(rng, count=120, n_vars=6):
        from repro.logic.clauses import Clause
        from repro.logic.intern import intern_atom
        from repro.logic.terms import NIL, variable_pool

        pool = list(variable_pool(n_vars)) + [NIL]
        clauses = []
        seen = set()
        while len(clauses) < count:
            gamma = frozenset(
                intern_atom(rng.choice(pool), rng.choice(pool))
                for _ in range(rng.randint(0, 2))
            )
            delta = frozenset(
                intern_atom(rng.choice(pool), rng.choice(pool))
                for _ in range(rng.randint(0, 3))
            )
            clause = Clause(gamma, delta, None, True)
            # One object per distinct clause, as the engine guarantees.
            if not clause.is_empty and not clause.is_tautology and clause not in seen:
                seen.add(clause)
                clauses.append(clause)
        return clauses

    @staticmethod
    def _dense_forms(clauses):
        """The clauses' term order and the dense form of each clause."""
        order = default_order(
            [c for clause in clauses for c in clause.constants()]
        )
        encoder = DenseEncoder(order)
        return order, {clause: encoder.encode_clause(clause) for clause in clauses}

    def test_subsumption_queries_match_brute_force(self):
        """Forward and backward subsumption, across adds and removes."""
        rng = random.Random(7)
        clauses = self._random_pure_clauses(rng, count=140)
        _, dense = self._dense_forms(clauses)
        index = IntClauseIndex()
        active = []
        for clause in clauses:
            expected_forward = any(a.subsumes(clause) for a in active)
            assert index.is_subsumed(dense[clause]) == expected_forward
            expected_backward = [a for a in active if clause.subsumes(a)]
            victims = index.subsumed_by(dense[clause])
            assert set(victims) == {dense[a] for a in expected_backward}
            assert len(victims) == len(expected_backward)
            # Mirror the engine: drop the subsumed, then activate the clause.
            for victim in expected_backward:
                index.remove(dense[victim])
                active.remove(victim)
            index.add(dense[clause])
            active.append(clause)
        assert len(index) == len(active)

    def test_inference_partners_is_a_superset_of_productive_pairs(self):
        from repro.superposition.calculus import SuperpositionCalculus

        rng = random.Random(11)
        clauses = self._random_pure_clauses(rng, count=80)
        order, dense = self._dense_forms(clauses)
        calculus = SuperpositionCalculus(order)
        index = IntClauseIndex()
        active = []
        for given in clauses:
            partners = index.inference_partners(dense[given])
            partner_set = set(partners)
            # Soundness: every pair the naive scan would find is offered.
            for other in active:
                if other == given:
                    continue
                if calculus.infer_between(given, other) or calculus.infer_between(
                    other, given
                ):
                    assert dense[other] in partner_set, (given, other)
            # Order: partners come back in activation order.
            activated = [dense[a] for a in active]
            positions = [activated.index(p) for p in partners]
            assert positions == sorted(positions)
            index.add(dense[given])
            active.append(given)

    def test_remove_is_complete(self):
        rng = random.Random(3)
        clauses = self._random_pure_clauses(rng, count=40)
        _, dense = self._dense_forms(clauses)
        index = IntClauseIndex()
        for clause in clauses:
            index.add(dense[clause])
        for clause in clauses:
            index.remove(dense[clause])
        assert len(index) == 0
        for clause in clauses:
            assert not index.is_subsumed(dense[clause])
            assert index.subsumed_by(dense[clause]) == []
            assert index.inference_partners(dense[clause]) == []
