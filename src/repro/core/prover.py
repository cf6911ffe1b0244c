"""The SLP entailment-checking algorithm (Figure 3 of the paper).

The algorithm interleaves four kinds of inference:

1. **superposition** saturates the pure clauses collected so far and either
   derives the empty clause (the entailment is valid) or yields an equality
   model ``<R, g>``;
2. **normalisation** uses the model to rewrite the left-hand spatial formula
   to its normal form;
3. **well-formedness** rules turn inconsistencies of the normalised formula
   into new pure clauses, feeding them back to superposition (the inner loop);
4. once the left-hand formula is well-formed, **unfolding** tries to rewrite
   the right-hand formula into it; success yields a new pure clause via
   spatial resolution (the outer loop iterates), failure yields a
   counterexample.

The loop terminates because every iteration adds at least one genuinely new
pure clause over the finite vocabulary of the entailment.
"""

from __future__ import annotations

import gc
import time
from typing import Optional

from repro.core.config import ProverConfig
from repro.core.proof import Proof, ProofTrace
from repro.core.result import ProofResult, ProverStatistics, Verdict
from repro.logic.clauses import Clause
from repro.logic.cnf import cnf
from repro.logic.formula import Entailment
from repro.logic.ordering import TermOrder, default_order
from repro.semantics.counterexample import Counterexample, build_counterexample
from repro.spatial.normalization import (
    normalize_clause,
    normalize_clause_fast,
    release_normalization,
)
from repro.spatial.unfolding import UnfoldingOutcome, unfold
from repro.spatial.wellformedness import well_formedness_consequences
from repro.superposition.model import (
    EqualityModel,
    IncrementalModelGenerator,
    ModelGenerationError,
    generate_model,
)
from repro.superposition.saturation import DeadlineExceeded, SaturationEngine

#: Number of given clauses processed per saturation round.  The prover asks
#: for a candidate model after every chunk and only keeps saturating while
#: the candidate fails its verification, which is usually long before the
#: clause set is fully saturated.  Retuned from 100 to 800 alongside the
#: integer kernel: with incremental model maintenance the per-round model
#: cost is small but not free, and on the Table 1 rows the larger chunk is
#: faster for both engines (see PERFORMANCE.md).
SATURATION_CHUNK = 800


class ProverInternalError(RuntimeError):
    """Raised when an invariant of the algorithm is violated (indicates a bug)."""


class ProverTimeout(RuntimeError):
    """Raised when a ``prove()`` call exceeds ``ProverConfig.max_seconds``.

    The deadline is threaded into the saturation engine's given-clause loop
    (checked before every given clause), so the overrun is bounded by one
    inference step, not a whole saturation round.

    ``statistics`` carries the partial :class:`ProverStatistics` at the
    moment of interruption — iterations run, clauses generated, wall-clock
    consumed — so timed-out instances are visible in batch accounting
    instead of vanishing into an unqualified exception.
    """

    def __init__(
        self,
        entailment: Entailment,
        budget_seconds: float,
        statistics: Optional[ProverStatistics] = None,
    ):
        super().__init__(
            "proving {} exceeded the {:.3f}s budget".format(entailment, budget_seconds)
        )
        self.entailment = entailment
        self.budget_seconds = budget_seconds
        self.statistics = statistics


class Prover:
    """The SLP theorem prover for separation-logic entailments with list segments.

    A prover instance is stateless between calls; it can be reused for many
    entailments (as the benchmark harness does).
    """

    def __init__(self, config: Optional[ProverConfig] = None):
        self.config = config or ProverConfig()

    # ------------------------------------------------------------------
    def prove(self, entailment: Entailment) -> ProofResult:
        """Decide the validity of ``entailment``.

        Returns a :class:`~repro.core.result.ProofResult` carrying either a
        proof (for valid entailments, when proof recording is enabled) or a
        verified stack/heap counterexample (for invalid ones).

        The cyclic garbage collector is paused for the call.  Everything a
        call builds is acyclic, so reference counting frees it when the call
        returns or raises, and a collection started in here would only
        traverse the long-lived heap to find nothing.  The collector is
        re-enabled only if it was enabled on entry: never against a caller
        that disabled it, and overlapping calls in threads can at worst
        re-enable it early.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._decide(entailment)
        finally:
            if enabled:
                gc.enable()

    def _decide(self, entailment: Entailment) -> ProofResult:
        """The body of :meth:`prove`: Figure 3's loop."""
        start = time.perf_counter()
        statistics = ProverStatistics()
        deadline = (
            start + self.config.max_seconds if self.config.max_seconds is not None else None
        )

        embedding = cnf(entailment)
        order = default_order(entailment.constants())
        engine = SaturationEngine(
            order,
            max_clauses=self.config.max_saturation_clauses,
            use_kernel=self.config.use_int_kernel,
            record_derivations=self.config.record_proof,
        )
        model_generator = (
            IncrementalModelGenerator(order) if self.config.use_int_kernel else None
        )
        trace = ProofTrace() if self.config.record_proof else None
        # Arm the cooperative in-loop deadline: the engine checks the clock
        # before every given clause, so a budget fires within a chunk rather
        # than after an unbounded round of work.
        engine.set_deadline(deadline)

        if trace is not None:
            for clause in embedding.all_clauses():
                trace.record_input(clause)

        engine.add_clauses(embedding.pure_clauses)

        verdict: Optional[Verdict] = None
        proof: Optional[Proof] = None
        counterexample: Optional[Counterexample] = None

        # Both sides are normalised against every round's model through the
        # same clause objects, so the normaliser carries its state from one
        # round to the next.  Without a trace the steps are only *counted*;
        # with one, ``normalize_clause`` replays the same round's moves into
        # the per-step records a proof tree needs.
        def normalized(side: Clause, model: EqualityModel):
            if trace is None:
                return normalize_clause_fast(side, model)
            result, steps = normalize_clause(side, model)
            self._trace_normalization(trace, steps)
            return result, len(steps)

        for _ in range(self.config.max_iterations):
            statistics.iterations += 1
            if deadline is not None and time.perf_counter() > deadline:
                self._timeout(entailment, statistics, engine, start)

            # ---------------- inner loop: saturate + normalise + well-formedness
            model: Optional[EqualityModel] = None
            positive: Optional[Clause] = None
            refuted = False
            while True:
                model = self._saturate_and_generate_model(
                    engine, order, statistics, model_generator, deadline, entailment, start
                )
                if model is None:
                    refuted = True
                    break
                positive, step_count = normalized(embedding.positive_spatial, model)
                statistics.normalization_steps += step_count
                consequences = well_formedness_consequences(positive)
                fresh = [
                    consequence
                    for consequence in consequences
                    if not engine.is_known(consequence.conclusion)
                ]
                statistics.wellformedness_consequences += len(fresh)
                if trace is not None:
                    for consequence in consequences:
                        trace.record(
                            consequence.conclusion,
                            consequence.rule,
                            (consequence.premise,),
                        )
                if not fresh:
                    break
                engine.add_clauses(consequence.conclusion for consequence in fresh)

            if refuted:
                verdict = Verdict.VALID
                if trace is not None:
                    self._trace_saturation(trace, engine)
                    proof = trace.build_refutation()
                break

            assert model is not None and positive is not None

            # ---------------- line 11: does the model satisfy the right-hand pure part?
            if not self._model_satisfies_rhs_pure(model, entailment):
                counterexample = build_counterexample(
                    entailment,
                    model,
                    positive,
                    outcome=None,
                    verify=self.config.verify_counterexamples,
                )
                verdict = Verdict.INVALID
                break

            # ---------------- lines 12-14: normalise the right-hand side and unfold
            negative, neg_step_count = normalized(embedding.negative_spatial, model)
            statistics.normalization_steps += neg_step_count

            outcome = unfold(positive, negative)
            statistics.unfolding_steps += outcome.step_count

            if not outcome.success:
                counterexample = build_counterexample(
                    entailment,
                    model,
                    positive,
                    outcome=outcome,
                    verify=self.config.verify_counterexamples,
                )
                verdict = Verdict.INVALID
                break

            derived = outcome.derived_pure
            assert derived is not None
            if engine.is_known(derived):
                # Line 14 of Figure 3: no new pure clause was discovered, so the
                # clause set has reached a fixpoint and a counterexample exists.
                # (For a correct saturation this branch is unreachable when the
                # unfolding succeeds — see Lemma 4.4 — but following the paper's
                # algorithm keeps the prover robust: the counterexample below is
                # verified against the exact semantics.)
                counterexample = build_counterexample(
                    entailment,
                    model,
                    positive,
                    outcome=None,
                    verify=self.config.verify_counterexamples,
                )
                verdict = Verdict.INVALID
                break
            if trace is not None:
                self._trace_unfolding(trace, outcome)
            engine.add_clauses([derived])
            # Keep the statistic in sync with the engine: the clause just
            # queued is generated work even if the next event is a timeout or
            # an immediate refutation inside ``add_clauses`` itself.
            statistics.generated_clauses = engine.generated_count
        else:
            raise ProverInternalError(
                "the prover did not terminate within {} iterations".format(
                    self.config.max_iterations
                )
            )

        # The normalisers' state lasts one prove(): a proof keeps the clauses,
        # not the state behind them.
        release_normalization(embedding.positive_spatial)
        release_normalization(embedding.negative_spatial)
        statistics.elapsed_seconds = time.perf_counter() - start
        assert verdict is not None
        return ProofResult(
            verdict=verdict,
            entailment=entailment,
            proof=proof,
            counterexample=counterexample,
            statistics=statistics,
        )

    # ------------------------------------------------------------------
    def _timeout(
        self,
        entailment: Entailment,
        statistics: ProverStatistics,
        engine: SaturationEngine,
        start: float,
    ) -> None:
        """Raise :class:`ProverTimeout` carrying the partial statistics."""
        statistics.generated_clauses = engine.generated_count
        statistics.elapsed_seconds = time.perf_counter() - start
        raise ProverTimeout(entailment, self.config.max_seconds, statistics)

    def _saturate_and_generate_model(
        self,
        engine: SaturationEngine,
        order: TermOrder,
        statistics: ProverStatistics,
        model_generator: Optional[IncrementalModelGenerator] = None,
        deadline: Optional[float] = None,
        entailment: Optional[Entailment] = None,
        start: float = 0.0,
    ) -> Optional[EqualityModel]:
        """Saturate (lazily) until a verified equality model exists, or refute.

        Returns ``None`` when the empty clause is derived.  The engine
        saturates in chunks and stops as soon as the candidate model satisfies
        every known pure clause and has well-behaved generating clauses.  The
        production engine maintains the model incrementally; the reference
        engine rebuilds it from scratch with :func:`generate_model`.
        """
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                self._timeout(entailment, statistics, engine, start)
            try:
                saturation = engine.saturate(max_given=SATURATION_CHUNK)
            except DeadlineExceeded:
                self._timeout(entailment, statistics, engine, start)
            statistics.saturation_rounds += 1
            statistics.generated_clauses = engine.generated_count
            if saturation.refuted:
                return None
            try:
                if model_generator is not None:
                    return model_generator.model_for_engine(engine)
                return generate_model(engine.known_pure_clauses(), order)
            except ModelGenerationError:
                if saturation.complete:
                    # The set is fully saturated and the candidate still fails:
                    # this would contradict the completeness theorem, so it
                    # indicates a genuine bug rather than insufficient work.
                    raise
                # Not saturated yet: keep working and try again.
                continue

    @staticmethod
    def _model_satisfies_rhs_pure(model: EqualityModel, entailment: Entailment) -> bool:
        """The line-11 test ``R |~ Pi'``."""
        return all(
            model.satisfies_literal(literal.atom, literal.positive)
            for literal in entailment.rhs_pure
        )

    @staticmethod
    def _trace_normalization(trace: ProofTrace, steps) -> None:
        for step in steps:
            premises = [step.before]
            if step.pure_premise is not None:
                premises.append(step.pure_premise)
            trace.record(step.after, step.rule, premises)

    @staticmethod
    def _trace_unfolding(trace: ProofTrace, outcome: UnfoldingOutcome) -> None:
        for step in outcome.steps:
            premises = [step.before]
            if step.positive_premise is not None:
                premises.append(step.positive_premise)
            trace.record(step.after, step.rule, premises, step.description)

    @staticmethod
    def _trace_saturation(trace: ProofTrace, engine: SaturationEngine) -> None:
        for conclusion, inference in engine.derivations.items():
            trace.record(conclusion, inference.rule, inference.premises)


def prove(entailment: Entailment, config: Optional[ProverConfig] = None) -> ProofResult:
    """Convenience wrapper: check one entailment with a fresh :class:`Prover`."""
    return Prover(config).prove(entailment)
