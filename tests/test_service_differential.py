"""Every answer of the proof service agrees with an in-process prove.

The service answers a request from one of several tiers: a fresh prove on a
pool worker, an in-batch duplicate echoed from its leader, the memory cache,
or the persistent store after a restart.  Each tier renames a stored verdict
and counterexample back into the request's own vocabulary.  One seeded mix
of benchgen problems (Table 1 rows, Table 2 folds, 2-fold clones) goes
through every tier, with one transient worker kill on the way, and each
answer is checked against a :class:`~repro.core.prover.Prover` run on the
request's own entailment: the verdict must match, and every INVALID answer's
counterexample must falsify the request.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.benchgen import FoldParameters, UnsatParameters, clone_entailment
from repro.benchgen.random_fold import random_fold_batch
from repro.benchgen.random_unsat import random_unsat_batch
from repro.core.config import ProverConfig
from repro.core.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec
from repro.core.prover import Prover
from repro.core.result import ProofResult
from repro.logic.formula import Entailment
from repro.logic.terms import make_const
from repro.semantics.satisfaction import falsifies_entailment
from repro.server import ProofService

CONFIG = ProverConfig(record_proof=False).with_timeout(60.0)


def _bases() -> List[Entailment]:
    bases: List[Entailment] = []
    for variables in (10, 12):
        bases += random_unsat_batch(UnsatParameters.paper(variables), 4, seed=variables)
    for variables in (8, 10):
        bases += random_fold_batch(FoldParameters.paper(variables), 4, seed=variables)
    return bases + [clone_entailment(entailment, 2) for entailment in bases[::3]]


def _repeat(entailment: Entailment, tag: str, rng: random.Random) -> Entailment:
    """The same problem under fresh names, its pure conjuncts shuffled (the
    spatial formulas sort themselves)."""
    renamed = entailment.rename(
        {
            constant: make_const("{}_{}".format(tag, constant.name))
            for constant in entailment.constants()
            if not constant.is_nil
        }
    )
    lhs, rhs = list(renamed.lhs_pure), list(renamed.rhs_pure)
    rng.shuffle(lhs)
    rng.shuffle(rhs)
    return Entailment(tuple(lhs), renamed.lhs_spatial, tuple(rhs), renamed.rhs_spatial)


def _check(service: ProofService, requests: Sequence[Entailment]) -> List[ProofResult]:
    """Send one request; compare each answer with an in-process prove."""
    oracle = Prover(ProverConfig(record_proof=False))
    answers = service.submit(requests).result(timeout=120)
    assert len(answers) == len(requests)
    for position, (entailment, answer) in enumerate(zip(requests, answers)):
        assert isinstance(answer, ProofResult), (position, answer)
        expected = oracle.prove(entailment).verdict
        assert answer.verdict == expected, (position, str(entailment))
        if answer.is_invalid:
            counterexample = answer.counterexample
            assert counterexample is not None, (position, str(entailment))
            assert falsifies_entailment(
                counterexample.stack, counterexample.heap, entailment
            ), (position, str(entailment), str(counterexample))
    return answers


def test_every_tier_answers_like_an_in_process_prove(tmp_path, monkeypatch):
    rng = random.Random(7)
    bases = _bases()
    # Index 1 is a leader of the first request: its first attempt kills the
    # worker, and the retry answers it.
    plan = FaultPlan().with_fault(1, FaultSpec(kind="exit", times=1))
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env())
    store_path = str(tmp_path / "proofs.store")

    with ProofService(CONFIG, jobs=2, store_path=store_path) as service:
        # New entailments, with a renamed duplicate of every third one in
        # the same batch.
        first = bases + [_repeat(entailment, "dup", rng) for entailment in bases[::3]]
        answers = _check(service, first)
        assert not any(answer.from_cache for answer in answers[: len(bases)])
        stats = service.stats()
        assert stats["cache"]["deduplicated"] == len(first) - len(bases)
        assert stats["pool"]["retried"] >= 1
        # Memory repeats.
        memory = [_repeat(entailment, "mem", rng) for entailment in bases]
        assert all(answer.from_cache for answer in _check(service, memory))
        assert service.stats()["cache"]["disk_hits"] == 0

    # A second service over the same store: disk repeats.
    with ProofService(CONFIG, jobs=2, store_path=store_path) as restarted:
        disk = [_repeat(entailment, "disk", rng) for entailment in bases]
        assert all(answer.from_cache for answer in _check(restarted, disk))
        stats = restarted.stats()
        assert stats["cache"]["disk_hits"] == len(disk)
        assert stats["pool"]["proved"] == 0
