"""Tests for the utility helpers, the proof objects and the command-line interface."""

import os
import sys

import pytest

from repro.cli import main
from repro.core.proof import ProofGapError, ProofStep, ProofTrace
from repro.logic.atoms import EqAtom
from repro.logic.clauses import Clause, EMPTY_CLAUSE
from repro.utils.multiset import Multiset
from repro.utils.naming import FreshNames, rename_suffix
from repro.utils.timing import Stopwatch


class TestMultiset:
    def test_basic_operations(self):
        bag = Multiset([1, 2, 2])
        assert bag.count(2) == 2 and bag.count(3) == 0
        assert len(bag) == 3 and bool(bag)
        assert bag.distinct() == (1, 2)
        assert Multiset([2, 1, 2]) == bag and hash(Multiset([2, 1, 2])) == hash(bag)

    def test_add_remove_replace(self):
        bag = Multiset([1])
        assert bag.add(1).count(1) == 2
        assert bag.remove(1) == Multiset()
        with pytest.raises(KeyError):
            bag.remove(7)
        assert bag.replace(1, [2, 3]) == Multiset([2, 3])
        with pytest.raises(ValueError):
            bag.add(1, times=-1)

    def test_subset(self):
        assert Multiset([1, 2]).issubset(Multiset([1, 2, 2]))
        assert not Multiset([1, 1]).issubset(Multiset([1, 2]))


class TestNaming:
    def test_fresh_names_avoid_collisions(self):
        fresh = FreshNames(["x", "x_1"])
        assert fresh.fresh("y") == "y"
        assert fresh.fresh("x") == "x_2"
        assert fresh.fresh("x") == "x_3"
        assert "y" in fresh

    def test_rename_suffix(self):
        assert rename_suffix("x", 2) == "x__c2"
        assert rename_suffix("nil", 5) == "nil"


class TestStopwatch:
    def test_accounting(self):
        watch = Stopwatch(budget_seconds=100.0)
        watch.start()
        watch.stop(success=True)
        watch.start()
        watch.stop(success=False)
        assert watch.attempted == 2 and watch.solved == 1
        assert 0 <= watch.solved_fraction <= 1
        assert not watch.exhausted
        assert watch.summary()

    def test_timeout_summary(self):
        watch = Stopwatch(budget_seconds=0.0)
        watch.start()
        watch.stop(success=True)
        watch.start()
        watch.stop(success=False)
        assert watch.exhausted
        assert watch.summary().startswith("(")


class TestProofObjects:
    def test_trace_reconstruction(self):
        a_eq_b = Clause.pure(delta=[EqAtom("a", "b")])
        not_a_eq_b = Clause.pure(gamma=[EqAtom("a", "b")])
        trace = ProofTrace()
        trace.record_input(a_eq_b)
        trace.record_input(not_a_eq_b)
        trace.record(EMPTY_CLAUSE, "superposition-left", [a_eq_b, not_a_eq_b])
        proof = trace.build_refutation()
        assert proof.is_refutation and len(proof) == 3
        last = proof.steps[-1]
        assert last.rule == "superposition-left" and len(last.premises) == 2
        assert proof.step_for(a_eq_b) is not None
        assert "superposition-left" in proof.rules_used()

    def test_first_derivation_wins(self):
        clause = Clause.pure(delta=[EqAtom("a", "b")])
        trace = ProofTrace()
        trace.record(clause, "first", [])
        trace.record(clause, "second", [])
        assert trace.derivation_of(clause).rule == "first"

    def test_gaps_and_cycles_raise(self):
        clause = Clause.pure(delta=[EqAtom("a", "b")])
        trace = ProofTrace()
        trace.record(EMPTY_CLAUSE, "rule", [clause])
        with pytest.raises(ProofGapError):
            trace.build_refutation()
        trace.record(clause, "rule", [EMPTY_CLAUSE])
        with pytest.raises(ProofGapError):
            trace.build_refutation()

    def test_step_rendering(self):
        step = ProofStep(3, EMPTY_CLAUSE, "SR", (1, 2))
        assert "3" in str(step) and "SR" in str(step)


class TestCli:
    def test_cli_on_file(self, tmp_path, capsys):
        path = tmp_path / "entailments.txt"
        path.write_text(
            "# a comment\n"
            "x |-> y * y |-> nil |- lseg(x, nil)\n"
            "lseg(x, y) |- next(x, y)\n"
        )
        exit_code = main([str(path), "--time"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "valid" in captured and "invalid" in captured
        assert "total time" in captured

    def test_cli_proof_and_counterexample_flags(self, tmp_path, capsys):
        path = tmp_path / "entailments.txt"
        path.write_text("next(x, nil) |- lseg(x, nil)\nlseg(x, y) |- next(x, y)\n")
        assert main([str(path), "--proof", "--counterexample"]) == 0
        captured = capsys.readouterr().out
        assert "[" in captured  # a proof line
        assert "counterexample" in captured

    def test_cli_baseline_provers(self, tmp_path, capsys):
        path = tmp_path / "entailments.txt"
        path.write_text("next(x, nil) |- lseg(x, nil)\n")
        assert main([str(path), "--prover", "smallfoot"]) == 0
        assert main([str(path), "--prover", "jstar"]) == 0
        output = capsys.readouterr().out
        assert output.count("valid") >= 2

    def test_cli_reports_parse_errors(self, tmp_path, capsys):
        path = tmp_path / "entailments.txt"
        path.write_text("this is not an entailment\n")
        assert main([str(path)]) == 2
        assert "error" in capsys.readouterr().out

    def test_cli_parallel_jobs_preserve_input_order(self, tmp_path, capsys):
        lines = [
            "x |-> y * y |-> nil |- lseg(x, nil)",
            "lseg(x, y) |- next(x, y)",
            "next(x, nil) |- lseg(x, nil)",
            "a |-> b * b |-> nil |- lseg(a, nil)",  # alpha-equivalent to line 1
        ]
        path = tmp_path / "entailments.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main([str(path), "--jobs", "2"]) == 0
        output = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
        assert [verdict for verdict, _ in output] == ["valid", "invalid", "valid", "valid"]
        assert [rest for _, rest in output] == lines

    def test_cli_no_cache_smoke(self, tmp_path, capsys):
        path = tmp_path / "entailments.txt"
        path.write_text("next(x, nil) |- lseg(x, nil)\nnext(y, nil) |- lseg(y, nil)\n")
        assert main([str(path), "--no-cache"]) == 0
        assert capsys.readouterr().out.count("valid") == 2

    def test_cli_timeout_reports_undecided_instances(self, tmp_path, capsys):
        path = tmp_path / "entailments.txt"
        path.write_text("lseg(x, y) * lseg(y, nil) |- lseg(x, nil)\n")
        assert main([str(path), "--timeout", "1e-9"]) == 0
        assert "timeout" in capsys.readouterr().out

    def test_cli_batch_flags_require_slp(self, tmp_path):
        path = tmp_path / "entailments.txt"
        path.write_text("next(x, nil) |- lseg(x, nil)\n")
        with pytest.raises(SystemExit):
            main([str(path), "--prover", "smallfoot", "--jobs", "2"])
        with pytest.raises(SystemExit):
            main([str(path), "--jobs", "0"])

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc to observe open fds"
    )
    def test_cli_store_released_even_when_output_pipe_breaks(self, tmp_path, monkeypatch):
        """Regression: ``--store`` must be closed on *every* exit path.

        A consumer that goes away mid-run (``slp ... | head``) raises from a
        verdict ``print``; the persistent cache's store handle and advisory
        lock sidecar must still be closed — pre-fix they leaked until process
        exit because ``cache.close()`` sat on the happy path only.  The
        raised exception's traceback keeps the CLI frame (and the cache
        object) alive, so a leaked fd stays observable in ``/proc/self/fd``.
        """
        path = tmp_path / "entailments.txt"
        path.write_text("x |-> nil |- lseg(x, nil)\n")
        store = tmp_path / "proofs.store"

        class BrokenPipeStdout:
            def write(self, text):
                raise BrokenPipeError("consumer went away")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", BrokenPipeStdout())
        with pytest.raises(BrokenPipeError) as excinfo:
            main([str(path), "--store", str(store)])
        monkeypatch.undo()
        watched = {str(store), str(store) + ".lock"}
        leaked = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(os.path.join("/proc/self/fd", fd))
            except OSError:
                continue
            if target in watched:
                leaked.append(target)
        assert leaked == [], "store handles leaked past the CLI exit: {}".format(leaked)
        del excinfo
