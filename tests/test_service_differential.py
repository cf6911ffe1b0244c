"""Every answer path agrees with an in-process prove.

A request is answered from one of several tiers: a fresh prove on a pool
worker, an in-batch duplicate echoed from its leader's cache entry, the
memory cache, or the persistent store after a restart.  Each tier renames a
stored verdict and counterexample back into the request's own vocabulary.
One seeded mix of benchgen problems (Table 1 rows, Table 2 folds, 2-fold
clones) goes through every tier of three front ends — the proof service, the
batch engine and ``slp FILE`` — with one transient worker kill on the way,
and each answer is checked against a :class:`~repro.core.prover.Prover` run
on the request's own entailment: the verdict must match, and every INVALID
answer's counterexample must falsify the request.  Every tier answers some
INVALID requests, so that check is never vacuous, and the counts pin which
tier answered: a refused echo or a rejected hit is proved afresh and answers
correctly, but shows in ``deduplicated``, ``from_cache`` or ``rejected``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from typing import List, Sequence

from repro.benchgen import FoldParameters, UnsatParameters, clone_entailment
from repro.benchgen.random_fold import random_fold_batch
from repro.benchgen.random_unsat import random_unsat_batch
from repro.core.batch import BatchOutcome, BatchProver
from repro.core.cache import ProofCache
from repro.core.config import ProverConfig
from repro.core.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec
from repro.core.prover import Prover
from repro.core.result import ProofResult, Verdict
from repro.logic.formula import Entailment
from repro.logic.printer import format_entailment
from repro.logic.terms import make_const
from repro.semantics.satisfaction import falsifies_entailment
from repro.server import ProofService

CONFIG = ProverConfig(record_proof=False).with_timeout(60.0)

#: Index 1 is a leader of the first batch: its first attempt kills the
#: worker, and the retry answers it.
KILL_ONCE = FaultPlan().with_fault(1, FaultSpec(kind="exit", times=1))

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def _first_batch(bases: Sequence[Entailment], rng: random.Random) -> List[Entailment]:
    """New entailments, with a renamed duplicate of every third one."""
    return list(bases) + [_repeat(entailment, "dup", rng) for entailment in bases[::3]]


def _expected(requests: Sequence[Entailment]) -> List[Verdict]:
    oracle = Prover(ProverConfig(record_proof=False))
    return [oracle.prove(entailment).verdict for entailment in requests]


def _check(
    requests: Sequence[Entailment], answers: Sequence[BatchOutcome]
) -> List[ProofResult]:
    """Compare each answer with an in-process prove of its own request."""
    assert len(answers) == len(requests)
    for position, (entailment, answer, expected) in enumerate(
        zip(requests, answers, _expected(requests))
    ):
        assert isinstance(answer, ProofResult), (position, answer)
        assert answer.verdict == expected, (position, str(entailment))
        if answer.is_invalid:
            counterexample = answer.counterexample
            assert counterexample is not None, (position, str(entailment))
            assert _falsifies(counterexample, entailment), (
                position, str(entailment), str(counterexample)
            )
    return list(answers)


def _falsifies(counterexample, entailment: Entailment) -> bool:
    try:
        return falsifies_entailment(counterexample.stack, counterexample.heap, entailment)
    except KeyError:  # the stack leaves a variable of the request unbound
        return False


def _some_invalid(answers: Sequence[ProofResult]) -> bool:
    return any(answer.is_invalid for answer in answers)


def test_every_tier_answers_like_an_in_process_prove(tmp_path, monkeypatch):
    rng = random.Random(7)
    bases = _bases()
    monkeypatch.setenv(FAULT_PLAN_ENV, KILL_ONCE.to_env())
    store_path = str(tmp_path / "proofs.store")

    with ProofService(CONFIG, jobs=2, store_path=store_path) as service:
        first = _first_batch(bases, rng)
        answers = _check(first, service.submit(first).result(timeout=120))
        assert not any(answer.from_cache for answer in answers[: len(bases)])
        assert _some_invalid(answers[: len(bases)]) and _some_invalid(answers[len(bases):])
        stats = service.stats()
        assert stats["cache"]["deduplicated"] == len(first) - len(bases)
        assert stats["pool"]["retried"] >= 1
        memory = [_repeat(entailment, "mem", rng) for entailment in bases]
        answers = _check(memory, service.submit(memory).result(timeout=120))
        assert all(answer.from_cache for answer in answers) and _some_invalid(answers)
        assert service.stats()["cache"]["disk_hits"] == 0

    # A second service over the same store: disk repeats.
    with ProofService(CONFIG, jobs=2, store_path=store_path) as restarted:
        disk = [_repeat(entailment, "disk", rng) for entailment in bases]
        answers = _check(disk, restarted.submit(disk).result(timeout=120))
        assert all(answer.from_cache for answer in answers) and _some_invalid(answers)
        stats = restarted.stats()
        assert (stats["cache"]["disk_hits"], stats["cache"]["rejected"]) == (len(disk), 0)
        assert stats["pool"]["proved"] == 0


def test_the_batch_engine_answers_like_an_in_process_prove(tmp_path):
    rng = random.Random(11)
    bases = _bases()
    with ProofCache(path=str(tmp_path / "proofs.slp")) as cache:
        with BatchProver(CONFIG, jobs=2, cache=cache, fault_plan=KILL_ONCE) as engine:
            first = _first_batch(bases, rng)
            answers = _check(first, engine.prove_all(first))
            assert not any(answer.from_cache for answer in answers[: len(bases)])
            assert all(answer.from_cache for answer in answers[len(bases):])
            assert _some_invalid(answers[: len(bases)]) and _some_invalid(answers[len(bases):])
            assert engine.statistics.deduplicated == len(first) - len(bases)
            assert engine.statistics.proved == len(bases)
            assert engine.pool_counters()["retried"] >= 1
            memory = [_repeat(entailment, "mem", rng) for entailment in bases]
            answers = _check(memory, engine.prove_all(memory))
            assert all(answer.from_cache for answer in answers) and _some_invalid(answers)
        assert (cache.hits, cache.disk_hits, cache.rejected) == (len(memory), 0, 0)


def test_the_cli_and_a_store_from_another_hash_seed_answer_like_an_in_process_prove(
    tmp_path,
):
    """``slp FILE --jobs 2 --store`` runs under a hash seed other than this
    process's, so every disk hit the service answers afterwards reads a record
    that another hash seed wrote."""
    rng = random.Random(3)
    bases = _bases()
    first = _first_batch(bases, rng)
    workload = tmp_path / "workload.slp"
    workload.write_text("".join(format_entailment(e) + "\n" for e in first), encoding="utf-8")
    store_path = str(tmp_path / "proofs.slp")
    env = dict(os.environ)
    env["PYTHONPATH"] = SOURCE + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env.pop(FAULT_PLAN_ENV, None)
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", str(workload), "--jobs", "2", "--store", store_path],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    labels = [line.split()[0] for line in run.stdout.splitlines()]
    assert labels == [verdict.value for verdict in _expected(first)]
    assert "invalid" in labels[: len(bases)] and "invalid" in labels[len(bases):]
    assert "{} deduplicated".format(len(first) - len(bases)) in run.stderr

    with ProofService(CONFIG, jobs=2, store_path=store_path) as service:
        disk = [_repeat(entailment, "disk", rng) for entailment in bases]
        answers = _check(disk, service.submit(disk).result(timeout=120))
        assert all(answer.from_cache for answer in answers) and _some_invalid(answers)
        stats = service.stats()
        assert (stats["cache"]["disk_hits"], stats["cache"]["rejected"]) == (len(disk), 0)
        assert stats["pool"]["proved"] == 0
