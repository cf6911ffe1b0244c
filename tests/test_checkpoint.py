"""Checkpoint/resume and the persistent cache tier (ISSUE 7 acceptance).

Three contracts:

* a store-backed ``ProofCache`` survives its coordinator — a fresh process
  over the same store file answers alpha-equivalent queries from disk, with
  verdicts identical to an in-memory hit;
* a SIGKILLed ``slp FILE --run-dir`` batch resumes with ``--resume`` and
  prints standard output *bit-identical* to an uninterrupted run, and a
  checkpointed fuzz campaign reproduces its report exactly from any journal
  prefix;
* injected disk faults degrade persistence (counters, quarantine) but never
  crash the prover or change a verdict.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.core.batch import BatchProver
from repro.core.cache import ProofCache
from repro.core.config import ProverConfig
from repro.core.faults import DiskFaultPlan, DiskFaultSpec
from repro.core.prover import Prover
from repro.core.store import RunJournal
from repro.core.atomicio import atomic_write_json, atomic_write_text
from repro.fuzz.differential import run_campaign
from repro.logic.formula import Entailment
from repro.logic.terms import make_const
from tests.conftest import make_random_entailment

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _alpha(entailment: Entailment, tag: str) -> Entailment:
    return entailment.rename(
        {
            c: make_const("{}_{}".format(tag, c.name))
            for c in entailment.constants()
            if not c.is_nil
        }
    )


def _corpus(count: int, seed: int = 23):
    rng = random.Random(seed)
    return [make_random_entailment(rng) for _ in range(count)]


def _coordinator(config: ProverConfig, cache: ProofCache):
    """A prove function over ``cache``: each entailment is a batch of its own."""
    engine = BatchProver(config, jobs=1, cache=cache)
    return lambda entailment: engine.prove_all([entailment])[0]


# ---------------------------------------------------------------------------
# The persistent cache tier.
# ---------------------------------------------------------------------------


class TestPersistentProofCache:
    def test_warm_restart_answers_from_disk(self, tmp_path):
        path = str(tmp_path / "proofs.slp")
        corpus = _corpus(12)
        config = ProverConfig().for_benchmarking()
        with ProofCache(path=path) as first:
            coordinator = _coordinator(config, first)
            cold = [coordinator(e) for e in corpus]
            assert first.disk_hits == 0
        # A brand-new "coordinator process": empty LRU, same store file.
        with ProofCache(path=path) as second:
            restarted = _coordinator(config, second)
            warm = [restarted(_alpha(e, "warm")) for e in corpus]
            assert second.disk_hits == len(corpus)
            assert second.hits == len(corpus)
            assert second.persist_errors == 0
        assert [r.is_valid for r in warm] == [r.is_valid for r in cold]
        # Disk hits rename back into the caller's vocabulary like memory hits.
        for entailment, result in zip(corpus, warm):
            renamed = _alpha(entailment, "warm")
            assert result.entailment == renamed

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        path = str(tmp_path / "proofs.slp")
        config = ProverConfig().for_benchmarking()
        entailment = _corpus(1)[0]
        with ProofCache(path=path) as first:
            _coordinator(config, first)(entailment)
        with ProofCache(path=path) as second:
            prover = _coordinator(config, second)
            prover(entailment)
            assert (second.disk_hits, second.hits) == (1, 1)
            prover(_alpha(entailment, "again"))
            # The second hit is served by the promoted in-memory entry.
            assert (second.disk_hits, second.hits) == (1, 2)

    def test_persist_errors_are_counted_not_raised(self, tmp_path):
        path = str(tmp_path / "proofs.slp")
        plan = DiskFaultPlan(faults={0: DiskFaultSpec(kind="enospc")})
        config = ProverConfig().for_benchmarking()
        corpus = _corpus(3)
        with ProofCache(path=path, fault_plan=plan) as cache:
            prover = _coordinator(config, cache)
            for entailment in corpus:
                prover(entailment)  # first store hits injected ENOSPC
            assert cache.persist_errors == 1
            # The in-memory tier is unaffected: alpha hits still work.
            prover(_alpha(corpus[0], "hit"))
            assert cache.hits == 1

    def test_faulty_disk_never_changes_verdicts(self, tmp_path):
        """Under a seeded mix of torn/bitflip/ENOSPC appends the prover keeps
        answering, and every verdict matches an undisturbed prover."""
        path = str(tmp_path / "proofs.slp")
        plan = DiskFaultPlan.seeded(seed=3, rate=0.5)
        config = ProverConfig().for_benchmarking()
        corpus = _corpus(20, seed=5)
        reference = Prover(config)
        expected = [reference.prove(e).is_valid for e in corpus]
        with ProofCache(path=path, fault_plan=plan) as cache:
            prover = _coordinator(config, cache)
            got = [prover(e).is_valid for e in corpus]
        assert got == expected
        assert cache.persist_errors > 0  # the plan really did fire
        # And the store file left behind is openable (recovery, not rubble).
        with ProofCache(path=path) as after:
            assert _coordinator(config, after)(corpus[0]).is_valid == expected[0]

    def test_batch_statistics_count_misses_and_disk_hits(self, tmp_path):
        path = str(tmp_path / "proofs.slp")
        config = ProverConfig().for_benchmarking()
        corpus = _corpus(8, seed=11)
        with ProofCache(path=path) as cache:
            with BatchProver(config, jobs=1, cache=cache) as batch:
                batch.prove_all(corpus)
                assert batch.statistics.cache_misses == len(corpus)
                assert cache.disk_hits == 0
        with ProofCache(path=path) as cache:
            with BatchProver(config, jobs=1, cache=cache) as batch:
                batch.prove_all([_alpha(e, "r") for e in corpus])
                assert batch.statistics.cache_hits == len(corpus)
                assert cache.disk_hits == len(corpus)
                assert batch.statistics.cache_misses == 0


# ---------------------------------------------------------------------------
# Atomic writes.
# ---------------------------------------------------------------------------


class TestAtomicWrites:
    def test_atomic_write_text_replaces_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first\n")
        atomic_write_text(path, "second\n")
        assert open(path).read() == "second\n"
        assert os.listdir(str(tmp_path)) == ["out.txt"]

    def test_atomic_write_json_round_trips(self, tmp_path):
        path = str(tmp_path / "out.json")
        payload = {"b": [1, 2], "a": {"nested": True}}
        atomic_write_json(path, payload, sort_keys=True)
        text = open(path).read()
        assert json.loads(text) == payload
        assert text.endswith("\n")
        assert os.listdir(str(tmp_path)) == ["out.json"]


# ---------------------------------------------------------------------------
# CLI flag validation.
# ---------------------------------------------------------------------------


class TestCliValidation:
    def _workload(self, tmp_path):
        path = tmp_path / "entailments.txt"
        path.write_text("next(x, nil) |- lseg(x, nil)\n")
        return str(path)

    def test_flag_combinations_rejected(self, tmp_path):
        from repro.cli import main

        workload = self._workload(tmp_path)
        run_dir = str(tmp_path / "run")
        store = str(tmp_path / "proofs.slp")
        for argv in (
            [workload, "--resume"],  # --resume without --run-dir
            [workload, "--run-dir", run_dir, "--store", store],
            [workload, "--run-dir", run_dir, "--proof"],
            [workload, "--store", store, "--no-cache"],
            [workload, "--prover", "smallfoot", "--store", store],
            [workload, "--prover", "jstar", "--run-dir", run_dir],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_store_flag_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        workload = self._workload(tmp_path)
        store = str(tmp_path / "proofs.slp")
        assert main([workload, "--store", store]) == 0
        assert os.path.exists(store)
        capsys.readouterr()
        assert main([workload, "--store", store]) == 0
        captured = capsys.readouterr()
        assert "valid" in captured.out
        assert "1 from disk" in captured.err

    def test_fuzz_flag_combinations_rejected(self, tmp_path):
        from repro.fuzz.cli import fuzz_main

        with pytest.raises(SystemExit):
            fuzz_main(["--resume"])
        with pytest.raises(SystemExit):
            fuzz_main(["--run-dir", str(tmp_path / "run"), "--fault-rate", "0.5"])


# ---------------------------------------------------------------------------
# Kill and resume: the batch CLI.
# ---------------------------------------------------------------------------


def _journal_tasks(path: str) -> int:
    if not os.path.exists(path):
        return 0
    try:
        with RunJournal(path) as journal:
            return sum(1 for _ in journal.tasks())
    except OSError:
        return 0


class TestKillAndResume:
    def _write_workload(self, tmp_path, count: int = 150) -> str:
        rng = random.Random(31)
        lines = [str(make_random_entailment(rng, n_vars=6)) for _ in range(count)]
        path = tmp_path / "workload.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def _run(self, argv, **popen_kwargs):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli"] + argv,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            **popen_kwargs,
        )

    def test_sigkilled_batch_resumes_bit_identical(self, tmp_path):
        workload = self._write_workload(tmp_path)

        # The uninterrupted reference run (its own run dir).
        reference = self._run([workload, "--run-dir", str(tmp_path / "ref")])
        reference_out, _ = reference.communicate(timeout=600)
        assert reference.returncode == 0

        # The victim: SIGKILL once roughly half the tasks are journaled.
        victim_dir = str(tmp_path / "victim")
        journal_path = os.path.join(victim_dir, "journal.slp")
        victim = self._run([workload, "--run-dir", victim_dir])
        target = 75
        deadline = time.time() + 600
        killed = False
        while time.time() < deadline:
            if victim.poll() is not None:
                break
            if _journal_tasks(journal_path) >= target:
                victim.send_signal(signal.SIGKILL)
                victim.wait()
                killed = True
                break
            time.sleep(0.01)
        else:
            victim.kill()
            pytest.fail("victim campaign never reached the kill point")
        committed = _journal_tasks(journal_path)

        # Resume.  SIGKILL means no handlers ran: whatever the journal holds
        # is the checkpoint, and the resumed stdout must match the reference
        # byte for byte.
        resumed = self._run([workload, "--run-dir", victim_dir, "--resume"])
        resumed_out, _ = resumed.communicate(timeout=600)
        assert resumed.returncode == 0
        assert resumed_out == reference_out
        if killed:
            # The resume really skipped work: the journal already held a
            # mid-campaign checkpoint when it restarted.
            assert 0 < committed < 150

    def test_resume_requires_matching_workload(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "workload.txt"
        path.write_text("next(x, nil) |- lseg(x, nil)\n")
        run_dir = str(tmp_path / "run")
        assert main([str(path), "--run-dir", run_dir]) == 0
        path.write_text("lseg(x, y) |- next(x, y)\n")  # a different workload
        with pytest.raises(SystemExit):
            main([str(path), "--run-dir", run_dir, "--resume"])


# ---------------------------------------------------------------------------
# Kill and resume: the fuzz campaign (in-process, any journal prefix).
# ---------------------------------------------------------------------------


def _projection(report) -> str:
    payload = report.to_json()
    payload.pop("elapsed_seconds", None)
    return json.dumps(payload, sort_keys=True)


class TestFuzzResume:
    def test_report_identical_from_any_journal_state(self, tmp_path):
        kwargs = dict(seed=5, iterations=25, jobs=1, shrink_findings=False)

        fresh = run_campaign(**kwargs)
        checkpointed_dir = str(tmp_path / "full")
        checkpointed = run_campaign(run_dir=checkpointed_dir, **kwargs)
        assert _projection(checkpointed) == _projection(fresh)

        # Resuming a *finished* journal re-reports without re-proving.
        resumed_full = run_campaign(run_dir=checkpointed_dir, resume=True, **kwargs)
        assert _projection(resumed_full) == _projection(fresh)

        # Resuming from a journal cut mid-campaign (the SIGKILL shape: a
        # prefix of completions survived) reproduces the report exactly.
        with RunJournal(os.path.join(checkpointed_dir, "journal.slp")) as source:
            entries = source.entries
        half_dir = str(tmp_path / "half")
        os.makedirs(half_dir)
        keep = 1 + (len(entries) - 1) // 2  # meta + half the completions
        with RunJournal(os.path.join(half_dir, "journal.slp")) as half:
            for record in entries[:keep]:
                half.append(record)
        resumed_half = run_campaign(run_dir=half_dir, resume=True, **kwargs)
        assert _projection(resumed_half) == _projection(fresh)

    def test_fuzz_meta_mismatch_refuses(self, tmp_path):
        from repro.core.store import JournalMismatch

        run_dir = str(tmp_path / "run")
        run_campaign(seed=5, iterations=5, shrink_findings=False, run_dir=run_dir)
        with pytest.raises(JournalMismatch):
            run_campaign(seed=6, iterations=5, shrink_findings=False, run_dir=run_dir, resume=True)

    def test_fuzz_run_dir_rejects_fault_plan(self, tmp_path):
        from repro.core.faults import FaultPlan

        with pytest.raises(ValueError):
            run_campaign(
                seed=5,
                iterations=5,
                run_dir=str(tmp_path / "run"),
                fault_plan=FaultPlan.seeded(seed=1, rate=0.5),
            )
