#!/usr/bin/env python
"""Kill a checkpointed fuzz campaign mid-run and prove ``--resume`` heals it.

This is the CI durability smoke (see TESTING.md, "Durability"): it launches a
checkpointed ``slp fuzz --run-dir --jobs 2`` campaign as a subprocess in its
own session, polls the run journal until roughly half of the primary verdicts
are committed, SIGKILLs the coordinator (no cleanup handlers run — exactly the
crash the store is built for), checks that none of its worker processes
outlives it by more than 2 s, resumes the campaign with ``--resume``, and
compares the resumed summary against a fresh uninterrupted run of the same
campaign.  The deterministic projection of the two reports (everything except
wall-clock seconds) must match byte for byte.

Usage::

    PYTHONPATH=src python scripts/kill_and_resume_smoke.py              # 200 instances
    PYTHONPATH=src python scripts/kill_and_resume_smoke.py --iterations 60

Exit codes: 0 on a bit-identical resume, 1 on any divergence or an orphaned
worker, 2 when the campaign could not be interrupted mid-run (too fast to
kill — rerun with more ``--iterations``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.store import RunJournal  # noqa: E402


def _campaign_argv(seed: int, iterations: int, run_dir=None, resume=False):
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "fuzz",
        "--seed",
        str(seed),
        "--iterations",
        str(iterations),
        "--jobs",
        "2",
        "--no-shrink",
    ]
    if run_dir is not None:
        argv.extend(["--run-dir", run_dir])
    if resume:
        argv.append("--resume")
    return argv


def _journal_records(path: str) -> int:
    """Count committed journal records without disturbing the writer."""
    if not os.path.exists(path):
        return 0
    try:
        with RunJournal(path) as journal:
            return len(journal.entries)
    except OSError:
        return 0


#: How long the members of a killed leader's session may outlive it.
ORPHAN_GRACE_S = 2.0


def session_survivors(session: int) -> list:
    """Pids of the running processes of ``session`` (zombies do not count).

    Without ``/proc`` (off Linux) the pids cannot be listed; there the
    session's process group stands in, reported as ``[session]`` while it
    has a member left (a zombie not yet reaped counts).
    """
    if not os.path.isdir("/proc"):
        try:
            os.killpg(session, 0)
        except ProcessLookupError:
            return []
        return [session]
    survivors = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        state, process_session = fields[0], int(fields[3])
        if process_session == session and state != "Z":
            survivors.append(int(entry))
    return survivors


def kill_session_leader(process: subprocess.Popen) -> list:
    """SIGKILL ``process``, started in its own session, and return the pids
    of that session still running :data:`ORPHAN_GRACE_S` seconds later.

    Those survivors are orphans of the killed process; they are SIGKILLed
    before returning, so a failing check leaves no process behind.
    """
    process.send_signal(signal.SIGKILL)
    process.wait()
    deadline = time.time() + ORPHAN_GRACE_S
    survivors = session_survivors(process.pid)
    while survivors and time.time() < deadline:
        time.sleep(0.05)
        survivors = session_survivors(process.pid)
    if survivors:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # they exited after the last look
    return survivors


def _projection(report: dict) -> dict:
    """The deterministic slice of a campaign report: drop wall-clock noise."""
    trimmed = dict(report)
    trimmed.pop("elapsed_seconds", None)
    return trimmed


def _run_summary(argv, summary_path: str, env) -> dict:
    completed = subprocess.run(
        argv + ["--summary", summary_path],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    if completed.returncode not in (0, 1):  # 1 = findings, still a finished campaign
        sys.stderr.write(completed.stdout.decode("utf-8", "replace"))
        raise SystemExit(
            "kill_and_resume_smoke: campaign exited with {}".format(completed.returncode)
        )
    with open(summary_path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11, help="campaign seed (default 11)")
    parser.add_argument(
        "--iterations", type=int, default=200, help="campaign instances (default 200)"
    )
    parser.add_argument(
        "--kill-fraction", type=float, default=0.5,
        help="journal fraction at which the coordinator is SIGKILLed (default 0.5)",
    )
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    scratch = tempfile.mkdtemp(prefix="slp-kill-resume-")
    try:
        run_dir = os.path.join(scratch, "run")
        journal_path = os.path.join(run_dir, "journal.slp")
        # The journal commits one "primary" record per instance and one
        # "oracles" record per slot, plus the leading meta record; half the
        # primaries is a mid-campaign kill point.
        target = max(2, int(args.iterations * args.kill_fraction))

        print(
            "[kill_and_resume] launching {}-instance campaign, killing at ~{} records".format(
                args.iterations, target
            )
        )
        victim = subprocess.Popen(
            _campaign_argv(args.seed, args.iterations, run_dir=run_dir),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        killed = False
        deadline = time.time() + 600.0
        while time.time() < deadline:
            if victim.poll() is not None:
                break
            if _journal_records(journal_path) >= target:
                # Before the journal is read: orphaned workers would still
                # hold its lock if the coordinator died inside an append.
                survivors = kill_session_leader(victim)
                killed = True
                break
            time.sleep(0.05)
        else:
            victim.kill()
            victim.wait()
            raise SystemExit("kill_and_resume_smoke: campaign never reached the kill point")
        if not killed:
            print(
                "[kill_and_resume] campaign finished before the kill point; "
                "rerun with more --iterations",
                file=sys.stderr,
            )
            return 2
        if survivors:
            print("[kill_and_resume] FAIL: processes {} outlived the killed coordinator "
                  "by {:g} s".format(survivors, ORPHAN_GRACE_S))
            return 1
        committed = _journal_records(journal_path)
        print("[kill_and_resume] SIGKILLed coordinator with {} records committed".format(committed))

        resumed = _run_summary(
            _campaign_argv(args.seed, args.iterations, run_dir=run_dir, resume=True),
            os.path.join(scratch, "resumed.json"),
            env,
        )
        fresh = _run_summary(
            _campaign_argv(args.seed, args.iterations),
            os.path.join(scratch, "fresh.json"),
            env,
        )

        resumed_projection = json.dumps(_projection(resumed), sort_keys=True, indent=2)
        fresh_projection = json.dumps(_projection(fresh), sort_keys=True, indent=2)
        if resumed_projection != fresh_projection:
            print("[kill_and_resume] FAIL: resumed report diverges from the fresh run")
            print("--- fresh ---")
            print(fresh_projection)
            print("--- resumed ---")
            print(resumed_projection)
            return 1
        print(
            "[kill_and_resume] OK: resumed report is bit-identical to the "
            "uninterrupted run ({} entailments checked)".format(
                resumed.get("instances_checked")
            )
        )
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
