"""Saturation-core benchmarks: the indexed engine against the reference paths.

Unlike the table benchmarks (which compare SLP against the baseline provers),
these benches compare SLP against *itself*: the default configuration — clause
index plus incremental model generation — versus ``ProverConfig.reference()``,
which runs the linear-scan subsumption/partner-selection and from-scratch
model generation the seed engine used.  They are the pytest-benchmark face of
``scripts/bench_perf.py``; run that script to (re)generate the committed
``BENCH_saturation.json`` trajectory file.

Two granularities are measured:

* the **macro** case proves a Table 1-style batch end to end (the acceptance
  workload for the indexing work);
* the **micro** case drives the ``SaturationEngine`` directly on the pure CNF
  clauses of one large entailment, isolating the given-clause loop from
  normalisation and unfolding.
"""

from __future__ import annotations

import pytest

from repro.benchgen.random_unsat import UnsatParameters, random_unsat_batch
from repro.core.config import ProverConfig
from repro.core.prover import Prover
from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile
from repro.logic.cnf import cnf
from repro.logic.ordering import default_order
from repro.superposition.saturation import SaturationEngine


def _configs():
    base = ProverConfig().for_benchmarking()
    return {"indexed": base, "reference": base.reference()}


@pytest.mark.parametrize("variables", [16, 20])
def test_saturation_macro(benchmark, variables, bench_instances):
    """Prove a Table 1-style batch with the indexed engine; record the reference time."""
    batch = random_unsat_batch(
        UnsatParameters.paper(variables), bench_instances, seed=1000 + variables
    )
    configs = _configs()
    prover = Prover(configs["indexed"])

    def run_indexed():
        return sum(1 for entailment in batch if prover.prove(entailment).is_valid)

    valid = benchmark.pedantic(run_indexed, rounds=1, iterations=1)

    import time

    reference_prover = Prover(configs["reference"])
    start = time.perf_counter()
    reference_valid = sum(
        1 for entailment in batch if reference_prover.prove(entailment).is_valid
    )
    reference_seconds = time.perf_counter() - start
    assert reference_valid == valid  # the two paths must agree on every verdict

    benchmark.extra_info["variables"] = variables
    benchmark.extra_info["instances"] = len(batch)
    benchmark.extra_info["valid"] = valid
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 4)
    print(
        "\n[saturation] n={:<3} instances={:<4} valid={:<3} reference={:.3f}s".format(
            variables, len(batch), valid, reference_seconds
        )
    )


@pytest.mark.parametrize("theory,family", [("sll", "fold"), ("dll", "dll")])
def test_theory_macro(benchmark, theory, family, bench_instances):
    """Prove a fold-leaning batch of one spatial theory end to end.

    The per-theory twin of ``test_saturation_macro``: the singly-linked row is
    the Table 2 fold family, the doubly-linked row is the ``dll`` generator
    family, both through the default (indexed) prover.  The committed
    trajectory lives in ``BENCH_saturation.json`` under ``"theories"``.
    """
    profile = GeneratorProfile.only(family, min_variables=2, max_variables=6)
    batch = EntailmentGenerator(seed=424242, profile=profile).entailments(
        max(bench_instances, 20)
    )
    prover = Prover(ProverConfig().for_benchmarking())

    def run():
        return sum(1 for entailment in batch if prover.prove(entailment).is_valid)

    valid = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["theory"] = theory
    benchmark.extra_info["instances"] = len(batch)
    benchmark.extra_info["valid"] = valid


@pytest.mark.parametrize("use_kernel", [True, False], ids=["kernel", "reference"])
def test_saturation_micro_engine_loop(benchmark, use_kernel):
    """The bare given-clause loop on the pure clauses of a large random batch."""
    batch = random_unsat_batch(UnsatParameters.paper(18), 10, seed=1018)
    problems = []
    for entailment in batch:
        embedding = cnf(entailment)
        order = default_order(entailment.constants())
        problems.append((order, tuple(embedding.pure_clauses)))

    def saturate_all():
        generated = 0
        for order, clauses in problems:
            engine = SaturationEngine(order, use_kernel=use_kernel)
            engine.add_clauses(clauses)
            engine.saturate()
            generated += engine.generated_count
        return generated

    generated = benchmark.pedantic(saturate_all, rounds=1, iterations=1)
    benchmark.extra_info["generated_clauses"] = generated
    benchmark.extra_info["use_kernel"] = use_kernel
