"""Configuration of the prover.

The prover runs one of two engines.  The default is the production engine:
the dense integer clause kernel with its adaptive clause index, and candidate
models maintained incrementally on the dense side.  :meth:`ProverConfig.reference`
selects the reference oracle: the symbolic, unindexed given-clause loop with
``generate_model`` run from scratch every round.  The two derive identical
clauses in an identical order; the reference exists so that tests, the
differential fuzzer and the benchmark's expected verdicts have an
independent implementation to compare against.  The remaining fields are
budgets and optional bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ProverConfig:
    """Tunable parameters of :class:`repro.core.prover.Prover`.

    Attributes
    ----------
    max_saturation_clauses:
        Budget on the number of pure clauses generated by superposition; the
        fragment guarantees termination, this guards against pathological
        inputs in benchmarks.
    max_iterations:
        Budget on iterations of the outer loop of the Figure 3 algorithm.
    verify_counterexamples:
        Check returned counterexamples against the exact semantics before
        reporting them (cheap; guarantees an "invalid" verdict is never
        wrong).
    record_proof:
        Record every inference so that a full SI proof tree can be
        reconstructed for valid entailments.  Disable for benchmarking.
    use_int_kernel:
        The engine selector.  ``True`` (the default) runs the production
        engine: saturation on the dense integer clause kernel
        (``repro.superposition.kernel``) with its adaptive clause index, and
        candidate models maintained by the dense incremental model
        generator.  ``False`` is the reference oracle that
        :meth:`reference` selects.
    max_seconds:
        Per-``prove()`` wall-clock budget.  When exceeded the prover raises
        :class:`~repro.core.prover.ProverTimeout` instead of answering; the
        deadline is threaded into the saturation inner loop (checked before
        every given clause), so overruns are bounded by one inference, not
        one round.  ``None`` (the default) disables the budget.
    max_memory_mb:
        Address-space budget for batch *worker processes*, applied via
        ``resource.setrlimit(RLIMIT_AS)`` in the worker initialiser.  A task
        that exceeds it raises ``MemoryError``, which the supervised pool
        converts into a structured ``oom`` failure instead of letting the
        kernel's OOM killer take the worker down.  ``None`` (the default)
        sets no limit.  Ignored by in-process proving: the limit would apply
        to the coordinator — caches, queued results and all — not to one
        task.
    """

    max_saturation_clauses: int = 500000
    max_iterations: int = 100000
    verify_counterexamples: bool = True
    record_proof: bool = True
    use_int_kernel: bool = True
    max_seconds: "float | None" = None
    max_memory_mb: "int | None" = None

    def with_timeout(self, max_seconds: "float | None") -> "ProverConfig":
        """A copy of the configuration with the per-call budget replaced."""
        return replace(self, max_seconds=max_seconds)

    def with_memory_limit(self, max_memory_mb: "int | None") -> "ProverConfig":
        """A copy with the worker address-space budget replaced."""
        return replace(self, max_memory_mb=max_memory_mb)

    def for_benchmarking(self) -> "ProverConfig":
        """A copy of the configuration with all optional bookkeeping disabled."""
        return replace(self, verify_counterexamples=False, record_proof=False)

    def reference(self) -> "ProverConfig":
        """A copy running the reference oracle instead of the production engine.

        The symbolic, unindexed given-clause loop plus ``generate_model`` from
        scratch every round.  Used as the correctness oracle by the
        equivalence tests, the differential fuzzer and
        ``perfbench/make_expected.py``, and as the "before" configuration of
        ``scripts/bench_perf.py``.
        """
        return replace(self, use_int_kernel=False)
