"""Chaos tests for the supervised batch execution stack.

The contract under test (ISSUE 6): under injected worker faults — process
deaths, hangs, allocation bombs, in-task exceptions, undeliverable results —
a batch always terminates, every task gets exactly one outcome, the verdicts
of *undisturbed* instances are bit-identical to a fault-free run, and the
disturbed ones come back as structured :class:`FailureInfo` records marked
``injected`` (never as a silent ``None``, never as a wrong verdict).

Fault plans are deterministic (:mod:`repro.core.faults`): the same
``(seed, rate, kinds)`` targets the same indices in every process, which is
what lets these tests state *exact* quarantine sets rather than "something
failed somewhere".

Chaos batches run with ``cache=False``: alpha-equivalence deduplication
answers follower instances from their leader, which is correct but makes the
injected/quarantined index sets differ from the plan's (the whole point of
these assertions).  The cached path keeps its own coverage in
``test_batch_cache.py``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.supervisor as supervisor
from repro.core.batch import BatchProver, FailureInfo
from repro.core.config import ProverConfig
from repro.core.faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    apply_fault_before_task,
    make_unpicklable,
)
from repro.core.prover import Prover, ProverTimeout
from repro.core.result import ProofResult
from repro.logic.formula import Entailment, lseg, neq, pts
from tests.conftest import make_random_entailment


@functools.lru_cache(maxsize=None)
def _corpus(count: int, seed: int = 11):
    rng = random.Random(seed)
    return tuple(
        make_random_entailment(random.Random(rng.randrange(2**30)), n_vars=4)
        for _ in range(count)
    )


def _verdicts(outcomes):
    """Comparable shape: verdict string for results, None for failures."""
    return [
        outcome.verdict if isinstance(outcome, ProofResult) else None
        for outcome in outcomes
    ]


@functools.lru_cache(maxsize=None)
def _baseline_cached(count: int, seed: int = 11):
    return tuple(_baseline_verdicts(_corpus(count, seed)))


def _baseline_verdicts(entailments):
    with BatchProver(ProverConfig().for_benchmarking(), jobs=1, cache=False) as batch:
        return _verdicts(batch.prove_all(list(entailments)))


@contextlib.contextmanager
def _chaos_prover(plan, jobs, retries=2, config=None):
    # Retries are immediate; chaos tests measure logic, not waiting.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(supervisor, "BACKOFF_BASE", 0.0)
        with BatchProver(
            config if config is not None else ProverConfig().for_benchmarking(),
            jobs=jobs,
            cache=False,
            retries=retries,
            fault_plan=plan,
        ) as batch:
            yield batch


# ---------------------------------------------------------------------------
# The chaos matrix: every fault kind, in-process and through the pool.
# ---------------------------------------------------------------------------


class TestChaosMatrix:
    """Each fault kind x {jobs=1, jobs=2}: termination, parity, exact quarantine."""

    CORPUS = _corpus(8)
    TARGETS = (1, 4)

    # kind -> (FaultSpec kwargs, expected FailureInfo kinds, needs timeout config)
    PERSISTENT = {
        "exit": ({}, {"retries_exhausted"}),
        "error": ({}, {"retries_exhausted"}),
        "unpicklable": ({}, {"retries_exhausted"}),
        "hang": ({"seconds": 30.0}, {"timeout"}),
        "alloc": ({"alloc_bytes": 1 << 62}, {"oom"}),
    }

    def _plan(self, kind: str, **spec_kwargs) -> FaultPlan:
        spec = FaultSpec(kind=kind, **spec_kwargs)
        plan = FaultPlan()
        for index in self.TARGETS:
            plan = plan.with_fault(index, spec)
        return plan

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", sorted(PERSISTENT))
    def test_persistent_fault_quarantines_exactly_the_targets(self, kind, jobs):
        spec_kwargs, expected_kinds = self.PERSISTENT[kind]
        config = ProverConfig().for_benchmarking()
        if kind == "hang":
            # Only a budget arms the watchdog (pool) / sleep bound (in-process).
            config = config.with_timeout(0.2)
        baseline = _baseline_cached(8)
        with _chaos_prover(self._plan(kind, **spec_kwargs), jobs, config=config) as batch:
            outcomes = batch.prove_all(self.CORPUS)

        assert len(outcomes) == len(self.CORPUS)  # no task silently dropped
        for index, outcome in enumerate(outcomes):
            if index in self.TARGETS:
                assert isinstance(outcome, FailureInfo), (kind, jobs, index)
                assert outcome.kind in expected_kinds, (kind, jobs, outcome)
                assert outcome.injected
                assert outcome.summary()  # human-readable, never empty
            else:
                # Undisturbed instances: bit-identical verdict to a clean run.
                assert isinstance(outcome, ProofResult), (kind, jobs, index, outcome)
                assert outcome.verdict == baseline[index]
        stats = batch.statistics
        assert stats.total == len(self.CORPUS)
        assert stats.injected_faults == len(self.TARGETS)
        assert stats.failed == len(self.TARGETS)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_slow_fault_is_not_killed(self, jobs):
        """A task that is slow but within the watchdog budget must complete."""
        plan = self._plan("slow", seconds=0.05)
        baseline = _baseline_cached(8)
        config = ProverConfig().for_benchmarking().with_timeout(10.0)
        with _chaos_prover(plan, jobs, config=config) as batch:
            outcomes = batch.prove_all(self.CORPUS)
        assert _verdicts(outcomes) == list(baseline)
        assert batch.statistics.quarantined == 0
        assert batch.statistics.injected_faults == len(self.TARGETS)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["exit", "error", "unpicklable"])
    def test_transient_fault_recovers_with_identical_verdict(self, kind, jobs):
        plan = self._plan(kind, times=1)  # first attempt only; the retry is clean
        baseline = _baseline_cached(8)
        with _chaos_prover(plan, jobs) as batch:
            outcomes = batch.prove_all(self.CORPUS)
        assert _verdicts(outcomes) == list(baseline)  # every verdict, targets included
        assert batch.statistics.quarantined == 0
        assert batch.statistics.retried >= len(self.TARGETS)

    def test_retries_zero_quarantines_on_first_crash(self):
        plan = self._plan("error")
        with _chaos_prover(plan, jobs=1, retries=0) as batch:
            outcomes = batch.prove_all(self.CORPUS)
        for index in self.TARGETS:
            assert isinstance(outcomes[index], FailureInfo)
            assert outcomes[index].kind == "crash"
            assert outcomes[index].attempts == 1
        assert batch.statistics.retried == 0


# ---------------------------------------------------------------------------
# Budgets: the hard watchdog and the address-space limit.
# ---------------------------------------------------------------------------


class TestHardBudgets:
    def test_watchdog_kills_a_hung_worker_promptly(self):
        """A hang never stalls the batch longer than ``max_seconds * GRACE_FACTOR``."""
        config = ProverConfig().for_benchmarking().with_timeout(0.25)
        plan = FaultPlan().with_fault(0, FaultSpec(kind="hang", seconds=30.0))
        corpus = _corpus(4)
        start = time.monotonic()
        with _chaos_prover(plan, jobs=2, config=config) as batch:
            outcomes = batch.prove_all(corpus)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, "watchdog must reclaim the worker, not wait out the hang"
        failure = outcomes[0]
        assert isinstance(failure, FailureInfo)
        assert failure.kind == "timeout"
        assert failure.injected
        # The worker was killed, so the pool had to respawn one.
        assert batch.statistics.respawned_workers >= 1
        for outcome in outcomes[1:]:
            assert isinstance(outcome, ProofResult)

    def test_memory_limit_turns_allocation_bomb_into_structured_oom(self):
        """``max_memory_mb`` + RLIMIT_AS: a 4 GiB spike under a 512 MB cap."""
        pytest.importorskip("resource")
        config = (
            ProverConfig().for_benchmarking().with_memory_limit(512)
        )
        plan = FaultPlan().with_fault(1, FaultSpec(kind="alloc", alloc_bytes=4 << 30))
        corpus = _corpus(4)
        with _chaos_prover(plan, jobs=2, config=config) as batch:
            outcomes = batch.prove_all(corpus)
        failure = outcomes[1]
        assert isinstance(failure, FailureInfo)
        assert failure.kind == "oom"
        assert failure.injected
        assert batch.statistics.oom == 1
        for index in (0, 2, 3):
            assert isinstance(outcomes[index], ProofResult)

    def test_timeouts_are_not_retried(self):
        """A timeout is deterministic under its budget: retrying wastes it."""
        config = ProverConfig().for_benchmarking().with_timeout(1e-9)
        hard = Entailment.build(
            lhs=[lseg("x", "y"), lseg("y", "z"), lseg("z", "x"), neq("x", "z")],
            rhs=[lseg("x", "z")],
        )
        with BatchProver(config, jobs=1, cache=False, retries=3) as batch:
            (outcome,) = batch.prove_all([hard])
        assert isinstance(outcome, FailureInfo)
        assert outcome.kind == "timeout"
        assert outcome.attempts == 1
        assert batch.statistics.retried == 0

    def test_prover_timeout_carries_partial_statistics(self):
        prover = Prover(ProverConfig().with_timeout(1e-9))
        entailment = Entailment.build(
            lhs=[lseg("x", "y"), lseg("y", "nil")], rhs=[lseg("x", "nil")]
        )
        with pytest.raises(ProverTimeout) as info:
            prover.prove(entailment)
        statistics = info.value.statistics
        assert statistics is not None
        assert statistics.elapsed_seconds > 0.0

    def test_batch_accounts_timed_out_work(self):
        """The partial statistics of timed-out attempts land in timeout_work."""
        config = ProverConfig().for_benchmarking().with_timeout(1e-9)
        hard = Entailment.build(
            lhs=[lseg("x", "y"), lseg("y", "z"), lseg("z", "x"), neq("x", "z")],
            rhs=[lseg("x", "z")],
        )
        with BatchProver(config, jobs=1, cache=False) as batch:
            (outcome,) = batch.prove_all([hard])
        assert isinstance(outcome, FailureInfo)
        assert outcome.statistics is not None
        assert batch.statistics.timeout_work.elapsed_seconds > 0.0


# ---------------------------------------------------------------------------
# The fault plan itself: deterministic, pure, env-portable.
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_seeded_plan_is_deterministic_and_pure(self):
        plan = FaultPlan.seeded(seed=7, rate=0.1, kinds=("exit",))
        first = plan.injected_indices(200)
        assert first == plan.injected_indices(200)
        # Per-index decisions are independent of batch size.
        assert plan.injected_indices(50) == [i for i in first if i < 50]
        assert 0 < len(first) < 60  # ~10% of 200, loosely

    def test_env_round_trip_preserves_decisions(self):
        plan = FaultPlan.seeded(seed=3, rate=0.2, kinds=("exit", "error"), times=1)
        restored = FaultPlan.from_env({FAULT_PLAN_ENV: plan.to_env()})
        assert restored is not None
        for index in range(100):
            assert restored.fault_at(index) == plan.fault_at(index)

    def test_malformed_env_plan_raises(self):
        """Silently proving an undisturbed batch when chaos was requested
        would defeat the harness — a broken plan must be loud."""
        with pytest.raises(Exception):
            FaultPlan.from_env({FAULT_PLAN_ENV: "{not json"})

    def test_empty_env_means_no_plan(self):
        assert FaultPlan.from_env({}) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor")
        with pytest.raises(ValueError):
            FaultPlan(kinds=("meteor",))

    def test_times_bounds_attempts(self):
        spec = FaultSpec(kind="exit", times=2)
        assert spec.fires_on(1) and spec.fires_on(2) and not spec.fires_on(3)
        persistent = FaultSpec(kind="exit")
        assert persistent.fires_on(99)

    def test_apply_error_fault_raises_injected_crash(self):
        with pytest.raises(InjectedCrash):
            apply_fault_before_task(FaultSpec(kind="error"))

    def test_unpicklable_wrapper_defeats_pickle(self):
        import pickle

        with pytest.raises(Exception):
            pickle.dumps(make_unpicklable(object()))

    def test_plan_via_environment_reaches_the_batch(self, monkeypatch):
        """The env route: an external harness injects without touching call sites."""
        plan = FaultPlan().with_fault(0, FaultSpec(kind="error"))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env())
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.0)
        corpus = _corpus(3)
        with BatchProver(
            ProverConfig().for_benchmarking(),
            jobs=1,
            cache=False,
            retries=0,
        ) as batch:
            outcomes = batch.prove_all(corpus)
        assert isinstance(outcomes[0], FailureInfo)
        assert outcomes[0].injected
        assert all(isinstance(outcome, ProofResult) for outcome in outcomes[1:])

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.0, max_value=0.5),
        kind=st.sampled_from(["exit", "error", "unpicklable"]),
    )
    def test_property_quarantine_set_is_exactly_the_plan(self, seed, rate, kind):
        """For any seeded plan: quarantined == injected, everything else intact."""
        corpus = _corpus(6, seed=23)
        baseline = _baseline_cached(6, seed=23)
        plan = FaultPlan.seeded(seed=seed, rate=rate, kinds=(kind,))
        injected = set(plan.injected_indices(len(corpus)))
        with _chaos_prover(plan, jobs=1, retries=1) as batch:
            outcomes = batch.prove_all(corpus)
        quarantined = {
            index
            for index, outcome in enumerate(outcomes)
            if isinstance(outcome, FailureInfo)
        }
        assert quarantined == injected
        for index, outcome in enumerate(outcomes):
            if index not in injected:
                assert outcome.verdict == baseline[index]


# ---------------------------------------------------------------------------
# Pool lifecycle satellites.
# ---------------------------------------------------------------------------


class TestPoolLifecycle:
    def test_close_is_idempotent(self):
        batch = BatchProver(ProverConfig().for_benchmarking(), jobs=2, cache=False)
        batch.prove_all(_corpus(3))
        batch.close()
        batch.close()  # second close must be a no-op, not an error

    def test_pool_restarts_after_close(self):
        corpus = _corpus(3)
        batch = BatchProver(ProverConfig().for_benchmarking(), jobs=2, cache=False)
        try:
            first = _verdicts(batch.prove_all(corpus))
            batch.close()
            second = _verdicts(batch.prove_all(corpus))  # fresh pool, same contract
            assert first == second
        finally:
            batch.close()

    def test_abandoned_iteration_does_not_wedge_the_pool(self):
        """A consumer that stops mid-stream (harness wall budget) must leave
        the engine reusable: the supervisor reclaims in-flight workers."""
        corpus = _corpus(6)
        with BatchProver(ProverConfig().for_benchmarking(), jobs=2, cache=False) as batch:
            for index, _ in batch.iter_results(corpus):
                break  # abandon with tasks still in flight
            verdicts = _verdicts(batch.prove_all(corpus))
        assert verdicts == list(_baseline_cached(6))

    def test_abandoned_batch_withdraws_its_work(self):
        """Breaking out of a batch withdraws its outstanding tasks: the hung
        worker is respawned at once, so ``close()`` does not wait out its
        drain budget (a harness that breaks on its budget counts that wait)."""
        plan = FaultPlan().with_fault(0, FaultSpec(kind="hang", seconds=30.0))
        batch = BatchProver(ProverConfig(), jobs=2, cache=False, fault_plan=plan)
        try:
            for _ in batch.iter_results(_corpus(4)):
                break
        finally:
            started = time.monotonic()
            batch.close()
            took = time.monotonic() - started
        assert took < 1.0
        assert batch.statistics.respawned_workers >= 1

    @pytest.mark.parametrize("stderr_closed", [False, True])
    def test_reactor_failure_answers_every_index_once(self, monkeypatch, stderr_closed):
        """A bug in the pool's loop must neither lose nor repeat an index:
        the outstanding tasks come back as crash failures, and the broken
        pool answers later batches at once.  That holds also when the
        traceback cannot be printed (stderr a closed pipe)."""
        from repro.core.supervisor import SupervisedPool

        if stderr_closed:
            closed = io.StringIO()
            closed.close()
            monkeypatch.setattr(sys, "stderr", closed)

        chains = [
            Entailment.build(
                lhs=[pts("c{}_{}".format(chain, cell), "c{}_{}".format(chain, cell + 1))
                     for cell in range(3)] + [pts("c{}_3".format(chain), "nil")],
                rhs=[lseg("c{}_0".format(chain), "nil")],
            )
            for chain in range(4)
        ]
        first_outcome = threading.Event()
        consume = SupervisedPool._consume

        def failing_consume(self, *args, **kwargs):
            if first_outcome.is_set():
                raise RuntimeError("injected bug in the pool loop")
            return consume(self, *args, **kwargs)

        monkeypatch.setattr(SupervisedPool, "_consume", failing_consume)
        plan = FaultPlan().with_fault(0, FaultSpec(kind="slow", seconds=0.5))
        with BatchProver(ProverConfig(), jobs=2, cache=False, fault_plan=plan) as batch:
            indices, failures = [], []
            for index, outcome in batch.iter_results(chains):
                first_outcome.set()
                indices.append(index)
                if isinstance(outcome, FailureInfo):
                    failures.append(index)
                    assert outcome.kind == "crash", outcome
                else:
                    assert outcome.is_valid
            assert sorted(indices) == [0, 1, 2, 3]
            assert 0 in failures  # still sleeping when the loop failed
            started = time.monotonic()
            later = batch.prove_all(chains)
            assert time.monotonic() - started < 5.0
        assert all(isinstance(o, FailureInfo) and o.kind == "crash" for o in later)

    def test_default_jobs_respects_cpu_affinity(self, monkeypatch):
        import os

        import repro.core.batch as batch_module

        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
            assert batch_module.default_jobs() == 3

            def broken(pid):
                raise OSError("no affinity on this platform")

            monkeypatch.setattr(os, "sched_getaffinity", broken)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert batch_module.default_jobs() == 6

    def test_default_jobs_is_clamped(self, monkeypatch):
        import os

        import repro.core.batch as batch_module

        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert batch_module.default_jobs() == 8
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert batch_module.default_jobs() >= 1


# ---------------------------------------------------------------------------
# Downstream consumers: crashed is never valid, campaigns survive chaos.
# ---------------------------------------------------------------------------


class TestConsumers:
    def test_procedure_with_crashed_vc_is_not_verified(self, monkeypatch):
        from repro.frontend import all_programs, prove_procedure
        from repro.frontend.verify import outcome_label

        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.0)
        procedure = all_programs()[0]
        plan = FaultPlan().with_fault(0, FaultSpec(kind="error"))
        with BatchProver(
            ProverConfig().for_benchmarking(),
            jobs=1,
            cache=False,
            retries=0,
            fault_plan=plan,
        ) as engine:
            report = prove_procedure(procedure, batch_prover=engine)
        assert not report.verified, "a crashed VC must never verify a procedure"
        labels = [outcome_label(outcome) for _, outcome in report.failures()]
        assert "unknown: crashed" in labels
        assert "unknown" in str(report)

    def test_cli_crash_exit_status(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        source = tmp_path / "batch.ent"
        source.write_text(
            "x |-> y * y |-> nil |- lseg(x, nil)\n"
            "lseg(a, b) |- lseg(a, b)\n"
        )
        plan = FaultPlan().with_fault(0, FaultSpec(kind="error"))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env())
        code = main([str(source), "--retries", "0", "--no-cache"])
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("crashed")
        assert lines[1].startswith("valid")
        assert "crashed/quarantined" in captured.err
        assert code == 3

        # Through the pool: the retry and both respawns reach the summary.
        plan = FaultPlan().with_fault(0, FaultSpec(kind="exit"))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env())
        pooled = [str(source), "--jobs", "2", "--retries", "1", "--no-cache"]
        for extra in ([], ["--run-dir", str(tmp_path / "run")]):
            code = main(pooled + extra)
            captured = capsys.readouterr()
            assert captured.out.splitlines()[0].startswith("crashed")
            assert (
                "failures: 1 crashed/quarantined; 1 retries, 2 workers respawned"
                in captured.err
            ), extra
            assert code == 3

    def test_fuzz_campaign_survives_injected_chaos(self):
        from repro.fuzz.differential import run_campaign

        plan = FaultPlan.seeded(seed=5, rate=0.2, kinds=("exit", "error"), times=1)
        report = run_campaign(seed=5, iterations=25, jobs=2, shrink_findings=False,
                              fault_plan=plan, timeout=5.0)
        # Transient faults: retries recover every verdict, nothing quarantined,
        # and none of the injected disturbances shows up as a prover bug.
        assert report.clean, [d.detail for d in report.disagreements]
        assert report.injected_faults > 0
        assert report.retried >= report.injected_faults
        assert report.quarantined == 0
        payload = report.to_json(include_timing=True)
        assert payload["supervision"]["injected_faults"] == report.injected_faults


# ---------------------------------------------------------------------------
# The acceptance campaign from the issue: 10% injection over a large batch.
# ---------------------------------------------------------------------------


class TestAcceptanceCampaign:
    def test_chaos_campaign_terminates_with_verdicts_intact(self):
        corpus = _corpus(120, seed=31)
        baseline = _baseline_cached(120, seed=31)
        plan = FaultPlan.seeded(seed=17, rate=0.1, kinds=("exit", "error"))
        injected = set(plan.injected_indices(len(corpus)))
        assert injected, "the seeded plan must actually target something"
        with _chaos_prover(plan, jobs=2) as batch:
            outcomes = batch.prove_all(corpus)

        assert len(outcomes) == len(corpus)  # no task silently dropped
        quarantined = set()
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, FailureInfo):
                assert outcome.injected, "only injected faults may fail this batch"
                quarantined.add(index)
            else:
                assert outcome.verdict == baseline[index]
        # Persistent faults: the quarantine set is exactly the injected set.
        assert quarantined == injected
        stats = batch.statistics
        assert stats.quarantined == len(injected)
        assert stats.retried >= len(injected)  # each target was given its retries
        assert stats.respawned_workers >= 1  # exits actually killed workers


def test_fault_kind_list_is_closed():
    """The matrix above covers every kind the module exports."""
    assert set(FAULT_KINDS) == {"exit", "hang", "slow", "alloc", "error", "unpicklable"}


def test_failure_info_is_falsy_and_self_describing():
    info = FailureInfo(kind="timeout", attempts=2, elapsed=1.5, detail="budget")
    assert not info
    assert not info.is_valid and not info.is_invalid and not info.from_cache
    assert "timeout" in info.summary()


def test_smoke_valid_entailment_unaffected_by_machinery():
    """No plan, no pool: the plain path still proves plain things."""
    entailment = Entailment.build(lhs=[pts("x", "nil")], rhs=[lseg("x", "nil")])
    with BatchProver(ProverConfig().for_benchmarking(), jobs=1) as batch:
        (outcome,) = batch.prove_all([entailment])
    assert isinstance(outcome, ProofResult) and outcome.is_valid


# ---------------------------------------------------------------------------
# Liveness acks: workers that are alive but wedged — never ready, or never
# picking a dispatched task up — must be reclaimed, not waited on forever.
# ---------------------------------------------------------------------------


def _echo_task(payload, index, attempt):
    return "ok", payload


def _echo_init():
    return _echo_task


def _hang_once_init(flag_path):
    # The first spawn to grab the flag wedges forever (a stand-in for a child
    # poisoned at fork time); every later spawn initialises normally.
    import os as _os

    try:
        fd = _os.open(flag_path, _os.O_CREAT | _os.O_EXCL | _os.O_WRONLY)
    except FileExistsError:
        return _echo_task
    _os.close(fd)
    time.sleep(3600)
    return _echo_task


def _sleep_task(payload, index, attempt):
    time.sleep(payload)
    return "ok", payload


def _sleep_init():
    return _sleep_task


class TestLivenessAcks:
    def test_never_ready_worker_is_respawned(self, tmp_path, monkeypatch):
        """A worker wedged in initialisation must not starve the pool: the
        init watchdog respawns it and the batch completes."""
        from repro.core.supervisor import SupervisedPool

        monkeypatch.setattr(supervisor, "INIT_TIMEOUT", 0.5)
        pool = SupervisedPool(
            jobs=1,
            initializer=_hang_once_init,
            init_args=(str(tmp_path / "hung-once"),),
            retries=0,
        )
        try:
            started = time.monotonic()
            outcomes = dict(pool.run(["a", "b"]))
            took = time.monotonic() - started
        finally:
            pool.close()
        assert outcomes == {0: "a", 1: "b"}
        assert pool.respawned_workers >= 1
        assert took < 30.0

    def test_concurrent_submitters_each_get_every_outcome_once(self):
        """Threads sharing one pool (more workers than cores, a short switch
        interval): each gets back exactly its own payloads, one outcome per
        index, while another thread abandons its batches half-way."""
        import sys

        from repro.core.supervisor import SupervisedPool

        pool = SupervisedPool(jobs=3, initializer=_echo_init)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool.start()

            def submitter(name):
                payloads = ["{}-{}".format(name, i) for i in range(60)]
                results[name] = list(pool.run(payloads))

            def abandoner():
                for _ in range(5):
                    for _ in pool.run(["drop-{}".format(i) for i in range(30)]):
                        break

            threads = [threading.Thread(target=submitter, args=(name,)) for name in "abcd"]
            threads.append(threading.Thread(target=abandoner))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            # The pool is still usable after the withdrawals.
            assert dict(pool.run(["after"])) == {0: "after"}
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        for name in "abcd":
            indices = [index for index, _ in results[name]]
            assert sorted(indices) == list(range(60))
            assert all(outcome == "{}-{}".format(name, index) for index, outcome in results[name])

    def test_unacked_dispatch_is_retried_not_watchdogged(self, monkeypatch):
        """A live-but-wedged worker (SIGSTOP) never acks its task: the ack
        watchdog must retry on a respawn within ``ACK_TIMEOUT``, not burn the
        full ``task_timeout`` and fail the task."""
        import os as _os
        import signal as _signal

        from repro.core.supervisor import SupervisedPool

        monkeypatch.setattr(supervisor, "ACK_TIMEOUT", 0.5)
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.0)
        pool = SupervisedPool(
            jobs=1,
            initializer=_echo_init,
            task_timeout=60.0,
            retries=1,
        )
        try:
            assert dict(pool.run(["warm"])) == {0: "warm"}  # worker is ready
            _os.kill(pool._workers[0].process.pid, _signal.SIGSTOP)
            started = time.monotonic()
            outcomes = dict(pool.run(["x"]))
            took = time.monotonic() - started
        finally:
            pool.close()
        assert outcomes == {0: "x"}
        assert pool.retried == 1
        assert took < 30.0  # far under task_timeout: the ack tier fired

    def test_failed_respawn_keeps_its_reason(self, monkeypatch):
        """A pool that cannot replace a killed worker tells every later
        caller why, instead of failing its loop on the dead worker's closed
        pipe and reporting that."""
        from repro.core.supervisor import SupervisedPool

        pool = SupervisedPool(jobs=1, initializer=_sleep_init)
        try:
            first = pool.run([0.0, 30.0])
            assert next(first) == (0, 0.0)
            deadline = time.monotonic() + 10.0
            while pool._workers[0].assignment is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._workers[0].assignment is not None  # the 30 s task runs

            def refuse():
                raise OSError("no processes left")

            monkeypatch.setattr(pool, "_spawn_worker", refuse)
            first.close()  # withdraws the running task: its worker is killed
            ((_, outcome),) = pool.run([0.0])
        finally:
            pool.close()
        assert isinstance(outcome, FailureInfo) and outcome.kind == "crash"
        assert "cannot respawn worker: no processes left" in outcome.detail

    def test_dropped_pool_reclaims_its_workers(self):
        """A started pool dropped without ``close()`` is still collected
        (the reactor holds it only weakly while it waits), and collecting
        it stops its workers and its reactor."""
        from repro.core.supervisor import SupervisedPool

        pool = SupervisedPool(jobs=2, initializer=_echo_init)
        assert dict(pool.run(["warm"])) == {0: "warm"}
        processes = [worker.process for worker in pool._workers]
        reactor = pool._reactor
        del pool
        gc.collect()
        reactor.join(10)
        assert not reactor.is_alive()
        assert not any(process.is_alive() for process in processes)


#: A coordinator that hangs task 0 for 30 s, announces its worker pids once
#: another task has come back, and then waits for its SIGKILL.
_DOOMED_COORDINATOR = """
from repro.core.batch import BatchProver
from repro.core.config import ProverConfig
from repro.core.faults import FaultPlan, FaultSpec
from repro.logic.parser import parse_entailment

plan = FaultPlan().with_fault(0, FaultSpec(kind="hang", seconds=30.0))
batch = BatchProver(ProverConfig(), jobs=2, cache=False, fault_plan=plan)
results = batch.iter_results([parse_entailment("x |-> y * y |-> nil |- lseg(x, nil)")] * 4)
next(results)  # a task that does not hang
print(" ".join(str(worker.process.pid) for worker in batch._pool._workers), flush=True)
list(results)  # waits on the hung task until the SIGKILL
"""


def _running(pid: int) -> bool:
    """Is ``pid`` a live process?  A zombie awaiting its reaper is not."""
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
@pytest.mark.parametrize(
    "prelude",
    ["", "import os\nos.__dict__.pop('pidfd_open', None)\n"],
    ids=["pidfd", "no-pidfd"],
)
def test_workers_exit_when_their_coordinator_is_killed(prelude):
    """SIGKILL a coordinator mid-batch (one worker inside a hung task, the
    other idle): within 2 s no worker of it is left running, also where the
    watch thread has no pidfd and polls the parent pid."""
    source = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    coordinator = subprocess.Popen(
        [sys.executable, "-c", prelude + _DOOMED_COORDINATOR], env=env, stdout=subprocess.PIPE
    )
    pids = []
    try:
        announced, _, _ = select.select([coordinator.stdout], [], [], 60)
        assert announced, "the coordinator never announced its workers"
        pids = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(pid) for pid in pids)
        coordinator.send_signal(signal.SIGKILL)
        coordinator.wait(10)
        deadline = time.monotonic() + 2.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)], "workers outlived the coordinator"
    finally:
        coordinator.kill()
        coordinator.wait(10)
        coordinator.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
