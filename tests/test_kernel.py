"""The dense integer clause kernel: encoding round-trips, byte-identical
derivations, dense ordering keys, adaptive indexing, the engine-to-model
change feed and the incremental model generator.

The kernel (``repro/superposition/kernel.py``) re-implements the given-clause
loop over packed integers; everything here pins the contract it ships under,
**representation transparency**: encode/decode is lossless, the kernel
engine derives *byte-identical clauses in identical order* to the reference
engine (``ProverConfig.reference()``, the symbolic loop), and the
incremental model generator builds the models ``generate_model`` builds from
scratch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen.random_unsat import UnsatParameters, random_unsat_batch
from repro.core.config import ProverConfig
from repro.core.prover import Prover
from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile, STRATEGIES
from repro.logic.clauses import Clause
from repro.logic.cnf import cnf
from repro.logic.intern import intern_atom
from repro.logic.ordering import default_order
from repro.logic.terms import NIL, make_const, variable_pool
from repro.superposition.kernel import DenseEncoder, IntSaturationCore
from repro.superposition.model import (
    IncrementalModelGenerator,
    ModelGenerationError,
    generate_model,
)
from repro.superposition.saturation import SaturationEngine

CORPUS_SEED = 20260727


def _mixed_theory_corpus(count):
    """Generator instances across every family — includes both spatial theories."""
    return EntailmentGenerator(seed=CORPUS_SEED).entailments(count)


# ---------------------------------------------------------------------------
# Encoding round-trip
# ---------------------------------------------------------------------------


@st.composite
def pure_clauses(draw):
    """Random pure clauses over a small constant pool (plus nil)."""
    pool = list(variable_pool(draw(st.integers(min_value=1, max_value=7)))) + [NIL]
    atoms = st.builds(
        intern_atom, st.sampled_from(pool), st.sampled_from(pool)
    )
    gamma = draw(st.frozensets(atoms, max_size=4))
    delta = draw(st.frozensets(atoms, max_size=4))
    return Clause(gamma, delta, None, True)


class TestEncodingRoundTrip:
    @given(clause=pure_clauses())
    def test_decode_encode_is_identity(self, clause):
        order = default_order(clause.constants())
        encoder = DenseEncoder(order)
        encoded = encoder.encode_clause(clause)
        # Defeat the decode memo (encode_clause pins the original object) so
        # the real decode path — codes back to interned atoms — is exercised.
        encoded.decoded = None
        assert encoder.decode(encoded) == clause

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 30),
        strategy=st.sampled_from(sorted(STRATEGIES)),
    )
    def test_round_trip_across_both_theories(self, seed, strategy):
        """Every pure clause of any generated entailment's embedding round-trips.

        The strategies include the doubly-linked family, so the encoding is
        exercised over both spatial theories' vocabularies.
        """
        entailment = (
            EntailmentGenerator(seed=seed, profile=GeneratorProfile.only(strategy))
            .case(0)
            .entailment
        )
        order = default_order(entailment.constants())
        encoder = DenseEncoder(order)
        for clause in cnf(entailment).pure_clauses:
            encoded = encoder.encode_clause(clause)
            encoded.decoded = None
            assert encoder.decode(encoded) == clause

    def test_encoding_is_faithful_not_simplifying(self):
        """Trivial atoms and tautologies survive the round trip untouched."""
        a, b = make_const("a"), make_const("b")
        clause = Clause(
            frozenset({intern_atom(a, a), intern_atom(a, b)}),
            frozenset({intern_atom(b, b)}),
            None,
            True,
        )
        encoder = DenseEncoder(default_order([a, b]))
        encoded = encoder.encode_clause(clause)
        assert len(encoded.gamma) == 2 and len(encoded.delta) == 1
        assert encoded.is_tautology
        encoded.decoded = None
        assert encoder.decode(encoded) == clause


# ---------------------------------------------------------------------------
# Dense ordering keys
# ---------------------------------------------------------------------------


class TestDenseSortKey:
    @given(first=pure_clauses(), second=pure_clauses())
    def test_dense_key_orders_like_clause_sort_key(self, first, second):
        """The packed-int clause key is order- and equality-isomorphic to
        ``TermOrder.clause_sort_key`` (the incremental model generator sorts
        by whichever of the two it is fed)."""
        order = default_order(first.constants() | second.constants())
        encoder = DenseEncoder(order)
        dense_first = encoder.sort_key_of(encoder.encode_clause(first))
        dense_second = encoder.sort_key_of(encoder.encode_clause(second))
        symbolic_first = order.clause_sort_key(first)
        symbolic_second = order.clause_sort_key(second)
        assert (dense_first < dense_second) == (symbolic_first < symbolic_second)
        assert (dense_first == dense_second) == (symbolic_first == symbolic_second)


# ---------------------------------------------------------------------------
# Byte-identical derivations: kernel against reference
# ---------------------------------------------------------------------------


def _saturate(entailment, use_kernel):
    order = default_order(entailment.constants())
    engine = SaturationEngine(order, use_kernel=use_kernel)
    engine.add_clauses(cnf(entailment).pure_clauses)
    engine.saturate()
    return engine


#: The two engines, as ``use_kernel`` values; the last is the reference.
ENGINE_MATRIX = (True, False)

#: Index activation points for the invisibility checks: from the first
#: clause, early, and never.
THRESHOLDS = (0, 4, 10 ** 9)


class TestKernelDerivationIdentity:
    def test_kernel_matrix_derives_identical_clauses_on_corpus(self):
        """Both engines: same actives, same order, same counts, same
        derivation records, over the equivalence corpus."""
        for entailment in _mixed_theory_corpus(60):
            engines = [_saturate(entailment, use_kernel) for use_kernel in ENGINE_MATRIX]
            base = engines[-1]  # symbolic, unindexed: the reference engine
            base_derivations = {
                clause: (inference.rule, inference.premises)
                for clause, inference in base.derivations.items()
            }
            for engine in engines[:-1]:
                assert engine.refuted == base.refuted
                assert engine.clauses() == base.clauses()
                assert engine.generated_count == base.generated_count
                assert engine.known_pure_clauses() == base.known_pure_clauses()
                derivations = {
                    clause: (inference.rule, inference.premises)
                    for clause, inference in engine.derivations.items()
                }
                assert derivations == base_derivations

    @given(seed=st.integers(min_value=0, max_value=2 ** 30))
    @settings(deadline=None)
    def test_kernel_engine_matches_symbolic_on_any_generated_instance(self, seed):
        entailment = EntailmentGenerator(seed=seed).case(0).entailment
        kernel = _saturate(entailment, use_kernel=True)
        symbolic = _saturate(entailment, use_kernel=False)
        assert kernel.refuted == symbolic.refuted
        assert kernel.clauses() == symbolic.clauses()
        assert kernel.generated_count == symbolic.generated_count

    def test_lazy_result_clauses_snapshot_the_round(self):
        """A kernel result's ``clauses`` reflects the round it was returned
        from, even when the engine keeps saturating afterwards (the symbolic
        engine snapshots eagerly; the lazy path must observe the same)."""
        for entailment in _mixed_theory_corpus(10):
            order = default_order(entailment.constants())
            kernel_engine = SaturationEngine(order, use_kernel=True)
            symbolic_engine = SaturationEngine(order, use_kernel=False)
            pure = cnf(entailment).pure_clauses
            kernel_engine.add_clauses(pure)
            symbolic_engine.add_clauses(pure)
            first_kernel = kernel_engine.saturate(max_given=3)
            first_symbolic = symbolic_engine.saturate(max_given=3)
            # Keep saturating *before* reading the first result's clauses.
            kernel_engine.saturate()
            symbolic_engine.saturate()
            assert first_kernel.clauses == first_symbolic.clauses
            assert len(first_kernel) == len(first_symbolic)

    def test_adaptive_threshold_is_invisible(self, monkeypatch):
        """Index activation point must never change what is derived."""
        import repro.superposition.kernel as kernel_module

        corpus = _mixed_theory_corpus(25)
        variants = []
        for threshold in THRESHOLDS:
            monkeypatch.setattr(kernel_module, "ADAPTIVE_INDEX_THRESHOLD", threshold)
            variants.append([_saturate(entailment, True) for entailment in corpus])
        immediate = variants[0]
        for engines in variants[1:]:
            for engine, reference in zip(engines, immediate):
                assert engine.clauses() == reference.clauses()
                assert engine.generated_count == reference.generated_count

    def test_index_threshold_is_behaviour_invisible(self, monkeypatch):
        """Any activation point, same verdicts and counters from the prover."""
        import repro.superposition.kernel as kernel_module

        corpus = _mixed_theory_corpus(20)
        default = Prover(ProverConfig().for_benchmarking())
        expected = [default.prove(entailment) for entailment in corpus]
        for threshold in THRESHOLDS:
            monkeypatch.setattr(kernel_module, "ADAPTIVE_INDEX_THRESHOLD", threshold)
            for entailment, theirs in zip(corpus, expected):
                ours = default.prove(entailment)
                assert ours.is_valid == theirs.is_valid
                assert (
                    ours.statistics.generated_clauses
                    == theirs.statistics.generated_clauses
                )

    def test_prover_verdicts_and_counters_match_reference(self):
        fast = Prover(ProverConfig().for_benchmarking())
        reference = Prover(ProverConfig().for_benchmarking().reference())
        corpus = _mixed_theory_corpus(80)
        corpus.extend(random_unsat_batch(UnsatParameters.paper(11), 8, seed=11))
        for entailment in corpus:
            ours = fast.prove(entailment)
            theirs = reference.prove(entailment)
            assert ours.is_valid == theirs.is_valid, entailment
            assert (
                ours.statistics.generated_clauses
                == theirs.statistics.generated_clauses
            ), entailment


# ---------------------------------------------------------------------------
# Subsumption queries: feature-bitmask scans and the clause index
# ---------------------------------------------------------------------------


class TestBitsetSubsumption:
    """Before the clause index goes live the core answers subsumption with
    linear scans pruned by per-side literal feature bitmasks; afterwards it
    asks the index.  Both must answer exactly what set containment does."""

    def test_bitset_queries_match_brute_force(self):
        """Forward and backward subsumption answers (and the surviving
        active order) against set-containment brute force, across adds and
        removes, with the index live from the start, early, and never."""
        import random

        rng = random.Random(13)
        pool = list(variable_pool(6)) + [NIL]
        clauses = []
        seen = set()
        while len(clauses) < 140:
            gamma = frozenset(
                intern_atom(rng.choice(pool), rng.choice(pool))
                for _ in range(rng.randint(0, 2))
            )
            delta = frozenset(
                intern_atom(rng.choice(pool), rng.choice(pool))
                for _ in range(rng.randint(0, 3))
            )
            clause = Clause(gamma, delta, None, True)
            if not clause.is_empty and not clause.is_tautology and clause not in seen:
                seen.add(clause)
                clauses.append(clause)
        order = default_order([c for clause in clauses for c in clause.constants()])
        for threshold in THRESHOLDS:
            core = IntSaturationCore(order, max_clauses=200000)
            core._index_threshold = threshold
            active = []
            for clause in clauses:
                encoded = core.encoder.encode_clause(clause)
                # The brute-force oracle works off the raw code tuples: the
                # memoised frozensets and bitmasks are under test.
                eg, ed = frozenset(encoded.gamma), frozenset(encoded.delta)
                expected_forward = any(
                    frozenset(a.gamma) <= eg and frozenset(a.delta) <= ed
                    for a in active
                )
                assert core._is_subsumed_by_active(encoded) == expected_forward
                active = [
                    a
                    for a in active
                    if not (eg <= frozenset(a.gamma) and ed <= frozenset(a.delta))
                ]
                core._remove_subsumed_active(encoded)
                assert core._active == active
                core._register_active(encoded)
                active.append(encoded)
            assert core._index_live == (threshold < len(clauses))


# ---------------------------------------------------------------------------
# Late constant registration (the encoder rebuild path)
# ---------------------------------------------------------------------------


class TestEncoderRebuild:
    def test_late_constants_renumber_and_stay_equivalent(self):
        """Adding clauses over constants unknown to the order forces a dense
        renumbering; engine state must survive it unchanged."""
        a, b = make_const("a"), make_const("b")
        order = default_order([a, b])
        matrix = []
        for use_kernel in (True, False):
            engine = SaturationEngine(order, use_kernel=use_kernel)
            engine.add_clauses(
                [Clause.pure(delta=[intern_atom(a, b)])]
            )
            engine.saturate()
            # "A" sorts below every registered name, so appending it cannot
            # keep the id spaces monotone: the kernel must rebuild.
            late = make_const("A")
            engine.add_clauses(
                [
                    Clause.pure(gamma=[intern_atom(late, a)], delta=[intern_atom(late, b)]),
                    Clause.pure(delta=[intern_atom(late, NIL)]),
                ]
            )
            engine.saturate()
            matrix.append(engine)
        kernel, symbolic = matrix
        assert kernel.refuted == symbolic.refuted
        assert kernel.clauses() == symbolic.clauses()
        assert kernel.generated_count == symbolic.generated_count


# ---------------------------------------------------------------------------
# Statistics plumbing
# ---------------------------------------------------------------------------


class TestGeneratedClausesSync:
    def test_statistics_match_engine_counter_after_prove(self, monkeypatch):
        """``ProverStatistics.generated_clauses`` equals the engine's final
        counter — including the derived clause queued by the outer loop's
        last ``add_clauses`` call."""
        import repro.core.prover as prover_module

        captured = []

        class CapturingEngine(SaturationEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured.append(self)

        monkeypatch.setattr(prover_module, "SaturationEngine", CapturingEngine)
        prover = Prover(ProverConfig(record_proof=False))
        for entailment in _mixed_theory_corpus(30):
            captured.clear()
            result = prover.prove(entailment)
            assert len(captured) == 1
            assert result.statistics.generated_clauses == captured[0].generated_count


# ---------------------------------------------------------------------------
# The engine-to-model change feed
# ---------------------------------------------------------------------------


class TestKnownChangeFeed:
    def test_feed_tracks_known_set(self):
        """Accumulated drains reproduce exactly the engine's non-tautological
        known clause set at every saturation pause."""
        for entailment in _mixed_theory_corpus(15):
            order = default_order(entailment.constants())
            core = IntSaturationCore(order, max_clauses=200000)
            decode = core.encoder.decode
            core.add_clauses(cnf(entailment).pure_clauses)
            mirrored = set()
            while True:
                result = core.saturate(max_given=7)
                added, removed = core.drain_known_changes_raw()
                for clause in removed:
                    mirrored.discard(decode(clause))
                for clause in added:
                    mirrored.add(decode(clause))
                expected = {
                    clause
                    for clause in core.known_pure_clauses()
                    if not clause.is_tautology
                }
                assert mirrored == expected
                if result.complete:
                    break

    def test_dense_keys_in_feed_are_sorted_consistently(self):
        entailment = _mixed_theory_corpus(1)[0]
        order = default_order(entailment.constants())
        core = IntSaturationCore(order, max_clauses=200000)
        decode = core.encoder.decode
        core.add_clauses(cnf(entailment).pure_clauses)
        core.saturate()
        added, _removed = core.drain_known_changes_raw()
        by_dense = sorted(added, key=core.encoder.sort_key_of)
        by_symbolic = sorted(added, key=lambda clause: order.clause_sort_key(decode(clause)))
        assert by_dense == by_symbolic

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 30),
        late_count=st.integers(min_value=1, max_value=3),
    )
    @settings(deadline=None, max_examples=30)
    def test_feed_keys_stay_order_isomorphic_across_a_rebuild(self, seed, late_count):
        """A late-constant renumbering happening *before* the first drain must
        leave the drained dense keys order-isomorphic to (in fact injectively
        consistent with) ``TermOrder.clause_sort_key``."""
        entailment = EntailmentGenerator(seed=seed).case(0).entailment
        order = default_order(entailment.constants())
        core = IntSaturationCore(order, max_clauses=200000)
        core.add_clauses(cnf(entailment).pure_clauses)
        core.saturate()
        # Capital names sort below every generated constant, so interning
        # them cannot keep the dense id space monotone: the encoder must
        # renumber every existing id (and re-fill every interned clause).
        late = [make_const("A{}".format(i)) for i in range(late_count)]
        core.add_clauses(
            [Clause.pure(delta=[intern_atom(constant, NIL)]) for constant in late]
            + [
                Clause.pure(gamma=[intern_atom(late[0], NIL)]),
            ]
        )
        core.saturate()
        added, removed = core.drain_known_changes_raw()
        sort_key_of = core.encoder.sort_key_of
        decode = core.encoder.decode
        for feed in (added, removed):
            by_dense = sorted(feed, key=sort_key_of)
            by_symbolic = sorted(feed, key=lambda clause: order.clause_sort_key(decode(clause)))
            assert by_dense == by_symbolic
            # Injectivity: distinct clauses never share a dense key.
            keys = [sort_key_of(clause) for clause in feed]
            assert len(set(keys)) == len(keys)

    def test_rebuild_after_drain_is_refused(self):
        """Dense keys already handed out must never be silently invalidated."""
        a, b = make_const("a"), make_const("b")
        order = default_order([a, b])
        core = IntSaturationCore(order, max_clauses=200000)
        core.add_clauses([Clause.pure(delta=[intern_atom(a, b)])])
        core.saturate()
        core.drain_known_changes_raw()
        with pytest.raises(RuntimeError):
            core.add_clauses([Clause.pure(delta=[intern_atom(make_const("A"), NIL)])])


# ---------------------------------------------------------------------------
# The incremental model generator
# ---------------------------------------------------------------------------


class TestDenseModelGenerator:
    def test_models_match_symbolic_round_for_round(self):
        """At every saturation pause, ``model_for_engine`` on a kernel engine
        builds the model ``generate_model`` builds from scratch over the
        engine's known clauses: the same relation and the same generating
        clause records, field for field, including rounds where the set
        shrinks (subsumption) and rounds where no model exists yet."""
        for entailment in _mixed_theory_corpus(25):
            order = default_order(entailment.constants())
            engine = SaturationEngine(order, use_kernel=True)
            engine.add_clauses(cnf(entailment).pure_clauses)
            generator = IncrementalModelGenerator(order)
            while True:
                result = engine.saturate(max_given=5)
                if result.refuted:
                    break
                try:
                    expected = generate_model(engine.known_pure_clauses(), order)
                except ModelGenerationError:
                    expected = None
                try:
                    model = generator.model_for_engine(engine)
                except ModelGenerationError:
                    model = None
                assert (model is None) == (expected is None)
                if model is not None:
                    assert model.relation == expected.relation
                    assert set(model.generators) == set(expected.generators)
                    for edge, record in model.generators.items():
                        other = expected.generators[edge]
                        assert record.clause == other.clause
                        assert record.equation == other.equation
                        assert record.leftover_gamma == other.leftover_gamma
                        assert record.leftover_delta == other.leftover_delta
                if result.complete:
                    break

    def test_dense_generator_is_actually_used_by_the_prover(self, monkeypatch):
        calls = []
        original = IncrementalModelGenerator.model_for_engine

        def spy(self, engine):
            calls.append(self)
            return original(self, engine)

        monkeypatch.setattr(IncrementalModelGenerator, "model_for_engine", spy)
        result = Prover(ProverConfig()).prove(_mixed_theory_corpus(1)[0])
        assert result.verdict is not None
        assert calls, "the default configuration should route through the generator"

    def test_empty_clause_is_rejected(self):
        a, b = make_const("a"), make_const("b")
        order = default_order([a, b])
        core = IntSaturationCore(order, max_clauses=200000)
        core.add_clauses(
            [
                Clause.pure(delta=[intern_atom(a, b)]),
                Clause.pure(gamma=[intern_atom(a, b)]),
            ]
        )
        core.saturate()
        with pytest.raises(ValueError):
            IncrementalModelGenerator(order).model_for_engine(core)

    def test_the_reference_engine_is_refused(self):
        order = default_order([make_const("a")])
        engine = SaturationEngine(order, use_kernel=False)
        with pytest.raises(ValueError):
            IncrementalModelGenerator(order).model_for_engine(engine)
