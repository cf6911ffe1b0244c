"""The batch proving engine: proof cache, deduplication and the worker pool.

The contract under test is the acceptance bar of the batch subsystem:
verdicts from :class:`~repro.core.batch.BatchProver` — parallel or not,
cached or not — are identical to sequential :meth:`Prover.prove`, and cached
answers come back in the requesting entailment's own vocabulary with genuine
(back-mapped) counterexamples and well-formed proofs.
"""

from __future__ import annotations

import random

import pytest

import repro.core.cache as cache_module
from repro.core.batch import BatchProver, FailureInfo, default_jobs
from repro.core.cache import ProofCache
from repro.core.config import ProverConfig
from repro.core.prover import Prover, ProverTimeout
from repro.frontend import all_programs, generate_vcs, prove_procedure
from repro.logic.canonical import TooSymmetricError
from repro.logic.formula import Entailment, lseg, neq, pts
from repro.logic.parser import parse_entailment
from repro.logic.terms import make_const
from repro.semantics.satisfaction import falsifies_entailment
from tests.conftest import make_random_entailment
from tests.test_index_equivalence import _corpus


def _alpha(entailment: Entailment, tag: str) -> Entailment:
    """Rename every variable to a fresh ``tag``-prefixed name."""
    return entailment.rename(
        {
            c: make_const("{}_{}".format(tag, c.name))
            for c in entailment.constants()
            if not c.is_nil
        }
    )


def _small_corpus(count: int = 40, seed: int = 9):
    rng = random.Random(seed)
    return [
        make_random_entailment(random.Random(rng.randrange(2 ** 30)), n_vars=5)
        for _ in range(count)
    ]


def _prove(engine: BatchProver, entailment: Entailment):
    """One entailment as a batch of its own: a cache lookup, then a prove."""
    (outcome,) = engine.prove_all([entailment])
    return outcome


# ---------------------------------------------------------------------------
# ProofCache
# ---------------------------------------------------------------------------


class TestProofCache:
    def test_hit_matches_fresh_proof_on_alpha_renamed_queries(self):
        """A cache hit returns the fresh verdict, with artifacts mapped back."""
        caching = BatchProver(ProverConfig(), jobs=1)
        fresh_prover = Prover(ProverConfig())
        for index, entailment in enumerate(_small_corpus(25)):
            first = _prove(caching, entailment)
            assert not first.from_cache
            renamed = _alpha(entailment, "copy{}".format(index % 3))
            cached = _prove(caching, renamed)
            fresh = fresh_prover.prove(renamed)
            assert cached.from_cache
            assert cached.verdict == fresh.verdict
            assert cached.entailment == renamed
            if cached.is_invalid:
                cex = cached.counterexample
                assert cex is not None
                assert falsifies_entailment(cex.stack, cex.heap, renamed)
            elif cached.proof is not None:
                assert cached.proof.is_refutation
                assert len(cached.proof) == len(fresh.proof)

    def test_conjunct_reordering_also_hits(self):
        cache = ProofCache()
        caching = BatchProver(ProverConfig(), jobs=1, cache=cache)
        entailment = Entailment.build(
            lhs=[neq("a", "b"), neq("b", "nil"), pts("a", "b"), lseg("b", "nil")],
            rhs=[lseg("a", "nil")],
        )
        _prove(caching, entailment)
        reordered = Entailment(
            tuple(reversed(entailment.lhs_pure)),
            entailment.lhs_spatial,
            entailment.rhs_pure,
            entailment.rhs_spatial,
        )
        assert _prove(caching, reordered).from_cache
        assert cache.hits == 1

    def test_lru_eviction(self):
        cache = ProofCache(max_entries=2)
        caching = BatchProver(ProverConfig().for_benchmarking(), jobs=1, cache=cache)
        batch = [
            Entailment.build(lhs=[pts("x", "y")], rhs=[lseg("x", "y")]),
            Entailment.build(lhs=[pts("x", "nil")], rhs=[lseg("x", "nil")]),
            Entailment.build(lhs=[lseg("x", "y"), lseg("y", "nil")], rhs=[lseg("x", "nil")]),
        ]
        for entailment in batch:
            _prove(caching, entailment)
        assert len(cache) == 2
        # The first entailment was evicted; the last two still hit.
        assert not _prove(caching, batch[0]).from_cache
        assert _prove(caching, batch[2]).from_cache

    def test_uncacheable_entailments_are_proved_not_cached(self, monkeypatch):
        # Pruned by automorphisms, the canonicaliser keys even eight
        # interchangeable segments within its default budget, so make it
        # give up to reach the uncacheable path.
        def too_symmetric(entailment, budget=None):
            raise TooSymmetricError("refinement budget exceeded")

        monkeypatch.setattr(cache_module, "canonicalize", too_symmetric)
        caching = BatchProver(ProverConfig().for_benchmarking(), jobs=1)
        symmetric = Entailment.build(
            lhs=[lseg("a{}".format(i), "b{}".format(i)) for i in range(8)]
        )
        expected = Prover(ProverConfig().for_benchmarking()).prove(symmetric).verdict
        for _ in range(2):
            result = _prove(caching, symmetric)
            assert result.verdict == expected and not result.from_cache
        assert caching.cache.uncacheable == 2
        assert len(caching.cache) == 0


# ---------------------------------------------------------------------------
# BatchProver
# ---------------------------------------------------------------------------


class TestBatchProver:
    def test_verdicts_bit_identical_to_sequential_on_equivalence_corpus(self):
        """The acceptance corpus: parallel + cached == plain sequential."""
        corpus = _corpus()
        assert len(corpus) >= 240
        sequential = Prover(ProverConfig().for_benchmarking())
        expected = [sequential.prove(entailment).verdict for entailment in corpus]
        with BatchProver(
            ProverConfig().for_benchmarking(), jobs=2, cache=True
        ) as batch:
            results = batch.prove_all(corpus)
        assert [result.verdict for result in results] == expected
        for entailment, result in zip(corpus, results):
            if result.is_invalid and result.counterexample is not None:
                assert falsifies_entailment(
                    result.counterexample.stack, result.counterexample.heap, entailment
                )

    def test_in_batch_deduplication(self):
        base = _small_corpus(10, seed=3)
        batch_input = base + [_alpha(e, "dup") for e in base]
        with BatchProver(ProverConfig().for_benchmarking(), jobs=1) as batch:
            results = batch.prove_all(batch_input)
            stats = batch.statistics
        assert stats.deduplicated + stats.cache_hits >= len(base)
        assert stats.proved <= len(base)
        for original, duplicate in zip(results[: len(base)], results[len(base):]):
            assert original.verdict == duplicate.verdict

    def test_iter_ordered_streams_in_input_order(self):
        corpus = _small_corpus(12, seed=4)
        with BatchProver(ProverConfig().for_benchmarking(), jobs=2) as batch:
            indices = [index for index, _ in batch.iter_ordered(corpus)]
        assert indices == list(range(len(corpus)))

    def test_no_cache_disables_memoisation(self):
        base = _small_corpus(5, seed=6)
        with BatchProver(
            ProverConfig().for_benchmarking(), jobs=1, cache=False
        ) as batch:
            batch.prove_all(base + base)
            assert batch.statistics.cache_hits == 0
            assert batch.statistics.deduplicated == 0
            assert batch.statistics.proved == 2 * len(base)

    def test_shared_cache_between_engines(self):
        cache = ProofCache()
        corpus = _small_corpus(8, seed=7)
        with BatchProver(ProverConfig().for_benchmarking(), cache=cache) as first:
            first.prove_all(corpus)
        with BatchProver(ProverConfig().for_benchmarking(), cache=cache) as second:
            second.prove_all([_alpha(e, "again") for e in corpus])
            assert second.statistics.cache_hits == len(corpus)

    def test_per_instance_timeout_yields_structured_failure(self):
        config = ProverConfig().for_benchmarking().with_timeout(1e-9)
        hard = Entailment.build(
            lhs=[lseg("x", "y"), lseg("y", "z"), lseg("z", "x"), neq("x", "z")],
            rhs=[lseg("x", "z")],
        )
        with BatchProver(config, jobs=1, cache=True) as batch:
            results = batch.prove_all([hard, _alpha(hard, "t")])
        for outcome in results:
            assert isinstance(outcome, FailureInfo)
            assert outcome.kind == "timeout"
            assert not outcome  # falsy, so "if result:" never mistakes it for a verdict
            assert not outcome.is_valid and not outcome.is_invalid
        assert batch.statistics.timed_out == 2
        assert batch.statistics.failed == 2

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            BatchProver(jobs=0)

    def test_default_jobs_is_sane(self):
        assert 1 <= default_jobs() <= 8


# ---------------------------------------------------------------------------
# Follower echoes: eviction-safety and exact cache accounting
# ---------------------------------------------------------------------------


class TestFollowerEcho:
    def test_echo_survives_leader_eviction_between_yields(self):
        """Regression: the follower echo must not depend on the cache entry.

        ``iter_results`` yields the leader's result to the consumer *before*
        echoing its duplicates.  A consumer that stores into the shared cache
        between those yields (here: a tiny ``max_entries=1`` LRU, one foreign
        store) evicts the leader's entry — the old echo path re-looked the
        entry up and crashed the whole batch on ``assert echoed is not None``.
        """
        cache = ProofCache(max_entries=1)
        base = Entailment.build(
            lhs=[pts("x", "y"), pts("y", "nil")], rhs=[lseg("x", "nil")]
        )
        copies = [_alpha(base, "dup{}".format(i)) for i in range(3)]
        evictor = Entailment.build(lhs=[pts("p", "nil")], rhs=[lseg("p", "nil")])
        evictor_result = Prover(ProverConfig().for_benchmarking()).prove(evictor)
        with BatchProver(
            ProverConfig().for_benchmarking(), jobs=1, cache=cache
        ) as batch:
            results = batch.iter_results([base] + copies)
            index, leader = next(results)
            assert index == 0 and leader.is_valid
            # The consumer shares the cache and stores a different problem
            # between yields: with max_entries=1 the leader's entry is gone.
            cache.store(evictor, evictor_result)
            echoes = list(results)
        assert sorted(index for index, _ in echoes) == [1, 2, 3]
        for index, echoed in echoes:
            assert echoed.from_cache
            assert echoed.verdict == leader.verdict
            assert echoed.entailment == copies[index - 1]
        assert batch.statistics.deduplicated == len(copies)

    def test_echo_artifacts_are_renamed_into_follower_vocabulary(self):
        """Echoed counterexamples must falsify the *follower's* entailment."""
        cache = ProofCache(max_entries=1)
        invalid = Entailment.build(
            lhs=[lseg("a", "b")], rhs=[pts("a", "b")]
        )
        copy = _alpha(invalid, "twin")
        with BatchProver(
            ProverConfig().for_benchmarking(), jobs=1, cache=cache
        ) as batch:
            outcomes = dict(batch.iter_results([invalid, copy]))
        echoed = outcomes[1]
        assert echoed.from_cache and echoed.is_invalid
        assert echoed.counterexample is not None
        assert falsifies_entailment(
            echoed.counterexample.stack, echoed.counterexample.heap, copy
        )

    def test_echoes_count_as_dedup_not_cache_traffic(self):
        """Counter exactness on a dedup-heavy batch.

        Each of the three distinct problems is proved once; each alpha copy
        misses once at scan time (its leader has not resolved yet) and is
        then echoed.  Echoes are dedup events: the cache's own ``hits`` (and
        the batch's ``cache_hits``) must stay untouched by them.
        """
        cache = ProofCache()
        base = [
            Entailment.build(lhs=[pts("x", "nil")], rhs=[lseg("x", "nil")]),
            Entailment.build(lhs=[pts("x", "y"), pts("y", "nil")], rhs=[lseg("x", "nil")]),
            Entailment.build(lhs=[lseg("x", "y"), lseg("y", "nil")], rhs=[lseg("x", "nil")]),
        ]
        batch_input = base + [_alpha(e, "echo") for e in base]
        with BatchProver(
            ProverConfig().for_benchmarking(), jobs=1, cache=cache
        ) as batch:
            batch.prove_all(batch_input)
            stats = batch.statistics
        assert stats.proved == len(base)
        assert stats.deduplicated == len(base)
        assert stats.cache_hits == 0 and cache.hits == 0
        assert cache.misses == 2 * len(base)  # one per leader, one per follower
        assert stats.cache_misses == 2 * len(base)
        assert cache.uncacheable == 0
        # A later batch of fresh copies is genuine cache traffic.
        with BatchProver(
            ProverConfig().for_benchmarking(), jobs=1, cache=cache
        ) as later:
            later.prove_all([_alpha(e, "later") for e in base])
            assert later.statistics.cache_hits == len(base)
        assert cache.hits == len(base)

    def test_hit_rate_accounts_for_uncacheable_lookups(self):
        cache = ProofCache()
        assert cache.hit_rate == 0.0
        cache.hits, cache.misses, cache.uncacheable = 3, 1, 4
        assert cache.hit_rate == pytest.approx(3 / 8)


class TestProofRequests:
    """A request for a proof is never answered by a proof-less entry."""

    VALID = parse_entailment("a |-> b * b |-> nil |- lseg(a, nil)")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_proof_request_is_not_answered_by_a_proofless_hit(self, jobs):
        with BatchProver(ProverConfig(record_proof=False), jobs=jobs) as engine:
            (plain,) = engine.prove_all([self.VALID])
            assert plain.is_valid and plain.proof is None
            (proved,) = engine.prove_all([_alpha(self.VALID, "r")], record_proof=True)
            assert proved.is_valid and proved.proof is not None and proved.proof.is_refutation
            assert not proved.from_cache
            # The proved result replaced the entry: the next request hits it.
            (again,) = engine.prove_all([self.VALID], record_proof=True)
            assert again.from_cache and again.proof is not None
            stats = engine.statistics
            assert (stats.cache_hits, stats.cache_misses) == (1, 2)
            assert (engine.cache.hits, engine.cache.misses) == (1, 2)
            assert stats.cache_hits + stats.cache_misses + engine.cache.uncacheable == 3

    def test_proofless_hit_still_answers_requests_without_proof(self):
        with BatchProver(ProverConfig(record_proof=False), jobs=1) as engine:
            engine.prove_all([self.VALID])
            (hit,) = engine.prove_all([self.VALID])
            assert hit.from_cache and hit.proof is None
            assert engine.statistics.cache_hits == 1

    def test_caching_prover_proves_when_its_config_asks_for_proofs(self):
        cache = ProofCache()
        _prove(BatchProver(ProverConfig(record_proof=False), cache=cache), self.VALID)
        asking = BatchProver(ProverConfig(), cache=cache)
        result = _prove(asking, self.VALID)
        assert result.is_valid and result.proof is not None and not result.from_cache
        assert (cache.hits, cache.misses) == (0, 2)
        assert _prove(asking, self.VALID).proof is not None
        assert cache.hits == 1


# ---------------------------------------------------------------------------
# Prover timeout (the harness satellite)
# ---------------------------------------------------------------------------


class TestProverTimeout:
    def test_prover_raises_on_exhausted_budget(self):
        prover = Prover(ProverConfig().with_timeout(1e-9))
        entailment = Entailment.build(
            lhs=[lseg("x", "y"), lseg("y", "nil")], rhs=[lseg("x", "nil")]
        )
        with pytest.raises(ProverTimeout):
            prover.prove(entailment)

    def test_no_budget_means_no_timeout(self):
        prover = Prover(ProverConfig())
        entailment = Entailment.build(lhs=[pts("x", "nil")], rhs=[lseg("x", "nil")])
        assert prover.prove(entailment).is_valid

    def test_harness_slp_checker_honours_budget(self):
        from repro.benchgen.harness import default_checkers, run_slp_batch

        checkers = default_checkers(per_instance_timeout=1e-9)
        entailment = Entailment.build(
            lhs=[lseg("x", "y"), lseg("y", "nil")], rhs=[lseg("x", "nil")]
        )
        assert checkers["slp"](entailment) is None
        run = run_slp_batch([entailment] * 3, per_instance_timeout=1e-9)
        assert run.solved == 0
        assert run.timed_out
        assert run.cell == "(0%)"


# ---------------------------------------------------------------------------
# Frontend: prove_procedure
# ---------------------------------------------------------------------------


class TestProveProcedure:
    def test_examples_verify_with_matching_vc_counts(self):
        for procedure in all_programs()[:3]:
            report = prove_procedure(procedure, config=ProverConfig().for_benchmarking())
            assert report.verified, report
            assert len(report.results) == len(generate_vcs(procedure))
            assert report.failures() == []

    def test_vc_stream_hits_the_cache(self):
        # Procedures with loops re-emit alpha-equivalent obligations (memory
        # safety across paths, invariant preservation with fresh cursors):
        # at least one program in the suite must exercise the cache.
        total_hits = 0
        for procedure in all_programs():
            report = prove_procedure(procedure, config=ProverConfig().for_benchmarking())
            assert report.verified, report
            total_hits += report.cache_hits + report.deduplicated
        assert total_hits > 0

    def test_shared_engine_across_procedures(self):
        programs = all_programs()[:2]
        with BatchProver(ProverConfig().for_benchmarking(), jobs=1) as engine:
            reports = [
                prove_procedure(procedure, batch_prover=engine) for procedure in programs
            ]
        assert all(report.verified for report in reports)
