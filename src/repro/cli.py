"""Command-line interface of the prover.

The ``slp`` console script checks entailments written one per line in the
textual surface syntax (see :mod:`repro.logic.parser`)::

    $ slp entailments.txt
    valid    c != e /\\ lseg(a, b) * ... |- lseg(b, c) * lseg(c, e)
    invalid  lseg(x, y) |- next(x, y)

    $ echo "x |-> y * y |-> nil |- lseg(x, nil)" | slp -
    valid    x |-> y * y |-> nil |- lseg(x, nil)

    $ echo "cell(x, y, nil) * cell(y, nil, x) |- dlseg(x, nil, nil, y)" | slp -
    valid    cell(x, y, nil) * cell(y, nil, x) |- dlseg(x, nil, nil, y)

Every registered spatial theory's syntax is accepted (singly-linked
``next``/``lseg``, doubly-linked ``cell``/``dlseg``; see ARCHITECTURE.md);
the baselines only speak the singly-linked fragment and report ``invalid``
as "cannot prove" on anything else.

Batches go through the batch engine (:mod:`repro.core.batch`): ``--jobs N``
checks the file on ``N`` supervised worker processes, and alpha-equivalent
entailments (same problem up to variable renaming and conjunct order) are
proved once and answered from the proof cache afterwards — disable that with
``--no-cache``.  Budgets: ``--timeout SECONDS`` bounds each instance
(exceeded instances report ``timeout``; a hard watchdog reclaims a worker
that ignores its budget for twice as long) and ``--max-memory MB`` caps each
worker's address space (exceeded instances report ``oom``).  A worker crash
is retried up to ``--retries`` times; a task that keeps failing reports
``crashed``.  Output lines always appear in input order, whatever the
completion order of the workers.

Persistence: ``--store PATH`` backs the proof cache with a crash-safe
on-disk store (:mod:`repro.core.store`) shared across runs and across
concurrent ``slp`` processes — a second invocation of the same workload is
answered from disk.  ``--run-dir DIR`` additionally *checkpoints* the run:
every completed instance is journaled, and after a crash or SIGKILL
``slp FILE --run-dir DIR --resume`` skips the finished work and prints a
report bit-identical to an uninterrupted run.  A cache summary line goes to
standard error at the end of every cached run.

Exit status: 0 for a clean run (timeouts included — undecided is an honest
answer), 2 for parse errors, 3 when any instance crashed, was quarantined or
ran out of memory.

Options also allow printing proofs and counterexamples and selecting one of
the baseline provers for comparison (the baselines are sequential and ignore
``--jobs``/``--no-cache``).

The ``fuzz`` subcommand runs a differential fuzzing campaign instead of
checking a file (see :mod:`repro.fuzz.cli`)::

    $ slp fuzz --seed 0 --iterations 200 --jobs 4

The ``serve`` subcommand starts a persistent entailment service — warm
worker pool plus on-disk proof store, spoken to over HTTP/JSON
(see :mod:`repro.server`)::

    $ slp serve --port 8080 --jobs 4 --store proofs.store
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import replace
from typing import Dict, Iterable, List, Optional

from repro.core.batch import BatchProver, FailureInfo
from repro.core.cache import ProofCache
from repro.core.config import ProverConfig
from repro.core.store import JournalMismatch, RunJournal
from repro.logic.parser import ParseError, parse_entailment


def _read_lines(path: str) -> List[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


def _baseline_checker(name: str):
    """Return a callable ``entailment -> bool`` for the requested baseline."""
    if name == "smallfoot":
        from repro.baselines.smallfoot import SmallfootProver

        baseline = SmallfootProver()
        return lambda entailment: baseline.prove(entailment).is_valid
    if name == "jstar":
        from repro.baselines.jstar import JStarProver

        baseline = JStarProver()
        return lambda entailment: baseline.prove(entailment).is_valid
    raise SystemExit("unknown prover {!r}; choose slp, smallfoot or jstar".format(name))


def _outcome_label(outcome) -> str:
    """The one-word report label for a batch outcome (matches stdout format)."""
    if isinstance(outcome, FailureInfo):
        return outcome.kind if outcome.kind in ("timeout", "oom") else "crashed"
    return "valid" if outcome.is_valid else "invalid"


def _print_cache_summary(stats, cache: ProofCache) -> None:
    """The ``cache:`` line on standard error; ``cache`` belongs to the run's
    one batch, so its disk hits are the batch's."""
    print(
        "cache: {} hits ({} from disk), {} misses, {} deduplicated".format(
            stats.cache_hits, cache.disk_hits, stats.cache_misses, stats.deduplicated
        ),
        file=sys.stderr,
    )


def _print_failure_summary(timed_out: int, oom: int, crashed: int, stats) -> None:
    """The ``failures:`` line on standard error, when any instance failed;
    ``stats`` supplies the batch's retry and respawn counts."""
    summary = []
    if timed_out:
        summary.append("{} timed out".format(timed_out))
    if oom:
        summary.append("{} out of memory".format(oom))
    if crashed:
        summary.append("{} crashed/quarantined".format(crashed))
    if not summary:
        return
    if stats.retried or stats.respawned_workers:
        summary.append(
            "{} retries, {} workers respawned".format(stats.retried, stats.respawned_workers)
        )
    print("failures: {}".format("; ".join(summary)), file=sys.stderr)


def _run_checkpointed(arguments, parsed, config, workload_digest: str) -> int:
    """The ``--run-dir`` execution path: journaled, resumable, order-stable.

    Completed instances are journaled *as they complete* (out of order — a
    SIGKILL loses only in-flight work, not finished-but-unprinted results)
    and the report is printed at the end from the journal, so a resumed run's
    standard output is bit-identical to an uninterrupted one.
    """
    os.makedirs(arguments.run_dir, exist_ok=True)
    journal_path = os.path.join(arguments.run_dir, "journal.slp")
    meta = {
        "kind": "slp-batch",
        "workload": workload_digest,
        "timeout": arguments.timeout,
        "max_memory": arguments.max_memory,
        "no_cache": bool(arguments.no_cache),
    }
    try:
        journal, completed = RunJournal.open_run(
            journal_path, meta, resume=arguments.resume
        )
    except JournalMismatch as error:
        raise SystemExit("slp: {}".format(error))

    tasks = []  # (task index, source line, entailment) for parseable lines
    for line, entailment in parsed:
        if entailment is not None:
            tasks.append((len(tasks), line, entailment))
    digests = {
        index: hashlib.sha256(line.encode("utf-8")).hexdigest()[:12]
        for index, line, _ in tasks
    }
    labels: Dict[int, str] = {}
    for record in completed:
        index, label = record.get("i"), record.get("label")
        if record.get("t") != "task" or not isinstance(index, int):
            continue
        if index not in digests or not isinstance(label, str):
            continue
        if record.get("d") != digests[index]:
            journal.close()
            raise SystemExit(
                "slp: {}: journaled instance {} does not match this workload;"
                " use a fresh run directory".format(journal_path, index)
            )
        labels[index] = label

    pending = [(index, entailment) for index, _, entailment in tasks if index not in labels]
    cache = (
        False
        if arguments.no_cache
        else ProofCache(path=os.path.join(arguments.run_dir, "proofs.slp"))
    )
    try:
        with BatchProver(
            config, jobs=arguments.jobs, cache=cache, retries=arguments.retries
        ) as batch:
            indices = [index for index, _ in pending]
            for position, outcome in batch.iter_results(
                [entailment for _, entailment in pending]
            ):
                index = indices[position]
                labels[index] = _outcome_label(outcome)
                try:
                    journal.append(
                        {"t": "task", "i": index, "label": labels[index], "d": digests[index]}
                    )
                except OSError:
                    pass  # the journal is resilience, not a reason to fail the run
            stats = batch.statistics
    finally:
        journal.close()
        if cache is not False:
            cache.close()

    task_labels = iter(tasks)
    for line, entailment in parsed:
        if entailment is None:
            print("error    {}".format(line))
            continue
        index, _, _ = next(task_labels)
        print("{:<8} {}".format(labels[index], line))

    counted = list(labels.values())
    timed_out = counted.count("timeout")
    oom = counted.count("oom")
    crashed = counted.count("crashed")
    _print_failure_summary(timed_out, oom, crashed, stats)
    if cache is not False:
        _print_cache_summary(stats, cache)
    return 3 if (oom or crashed) else 0


def main(argv: Optional[Iterable[str]] = None) -> int:
    """Entry point of the ``slp`` console script."""
    arguments_list = list(argv) if argv is not None else sys.argv[1:]
    if arguments_list and arguments_list[0] == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(arguments_list[1:])
    if arguments_list and arguments_list[0] == "serve":
        from repro.server.cli import serve_main

        return serve_main(arguments_list[1:])

    parser = argparse.ArgumentParser(
        prog="slp",
        description="Check separation-logic entailments with list segments.",
    )
    parser.add_argument(
        "input",
        help="a file with one entailment per line, or '-' for standard input",
    )
    parser.add_argument(
        "--prover",
        default="slp",
        choices=("slp", "smallfoot", "jstar"),
        help="which engine to use (default: slp)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="check entailments on N worker processes (slp prover only; default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the alpha-equivalence proof cache and in-batch deduplication (slp only)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-entailment time budget; exceeded instances report 'timeout' (slp only)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="re-dispatch a crashed instance up to N times before quarantining it"
        " (slp only; default 2)",
    )
    parser.add_argument(
        "--max-memory",
        type=int,
        default=None,
        metavar="MB",
        help="address-space budget per worker process; exceeded instances report"
        " 'oom' (slp only)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="back the proof cache with a persistent on-disk store at PATH,"
        " shared across runs and concurrent slp processes (slp only)",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="checkpoint the run in DIR (journal + proof store); a killed run"
        " restarts with --resume and skips finished instances (slp only)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the checkpointed run in --run-dir, skipping journaled work",
    )
    parser.add_argument(
        "--proof",
        action="store_true",
        help="print the SI proof for valid entailments (slp prover only)",
    )
    parser.add_argument(
        "--counterexample",
        action="store_true",
        help="print the counterexample interpretation for invalid entailments (slp only)",
    )
    parser.add_argument(
        "--time",
        action="store_true",
        help="print the total wall-clock time at the end",
    )
    arguments = parser.parse_args(arguments_list)

    if arguments.jobs < 1:
        parser.error("--jobs must be at least 1")
    if arguments.retries < 0:
        parser.error("--retries must be >= 0")
    if arguments.prover != "slp" and (
        arguments.jobs != 1
        or arguments.no_cache
        or arguments.timeout is not None
        or arguments.max_memory is not None
        or arguments.retries != 2
        or arguments.store is not None
        or arguments.run_dir is not None
    ):
        parser.error(
            "--jobs/--no-cache/--timeout/--retries/--max-memory/--store/--run-dir"
            " are only supported by the slp prover"
        )
    if arguments.resume and arguments.run_dir is None:
        parser.error("--resume requires --run-dir")
    if arguments.run_dir is not None and arguments.store is not None:
        parser.error("--run-dir manages its own store; drop --store")
    if arguments.store is not None and arguments.no_cache:
        parser.error("--store needs the cache; drop --no-cache")
    if arguments.run_dir is not None and (arguments.proof or arguments.counterexample):
        parser.error(
            "--proof/--counterexample are not journaled; they cannot be combined"
            " with --run-dir"
        )

    lines = [line.strip() for line in _read_lines(arguments.input)]
    lines = [line for line in lines if line and not line.startswith("#")]

    parsed = []  # (line, entailment-or-None); None marks a parse error
    exit_code = 0
    for line in lines:
        try:
            parsed.append((line, parse_entailment(line)))
        except ParseError as error:
            parsed.append(("{}  ({})".format(line, error), None))
            exit_code = 2

    start = time.perf_counter()
    if arguments.prover == "slp":
        # Only record proofs when they will be printed: with --jobs the full
        # proof trace of every valid entailment would otherwise be pickled
        # back from the workers just to be discarded.
        config = (
            replace(ProverConfig(), record_proof=arguments.proof)
            .with_timeout(arguments.timeout)
            .with_memory_limit(arguments.max_memory)
        )
        if arguments.run_dir is not None:
            workload_digest = hashlib.sha256(
                "\n".join(line for line, _ in parsed).encode("utf-8")
            ).hexdigest()
            run_code = _run_checkpointed(arguments, parsed, config, workload_digest)
            if exit_code == 0:
                exit_code = run_code
            if arguments.time:
                print("total time: {:.3f}s".format(time.perf_counter() - start))
            return exit_code

        entailments = [entailment for _, entailment in parsed if entailment is not None]
        cache = False if arguments.no_cache else ProofCache(path=arguments.store)
        # Every exit from here on — including an exception mid-print (a
        # closed stdout pipe, say) — must release the store's advisory lock,
        # so the close lives in a ``finally`` rather than on the happy path.
        try:
            with BatchProver(
                config, jobs=arguments.jobs, cache=cache, retries=arguments.retries
            ) as batch:
                results = batch.iter_ordered(entailments)
                for line, entailment in parsed:
                    if entailment is None:
                        print("error    {}".format(line))
                        continue
                    _, result = next(results)
                    print("{:<8} {}".format(_outcome_label(result), line))
                    if isinstance(result, FailureInfo):
                        continue
                    if arguments.proof and result.proof is not None:
                        print(result.proof.format())
                    if arguments.counterexample and result.counterexample is not None:
                        print("    counterexample: {}".format(result.counterexample))
                for _ in results:  # run the generator to completion: it folds
                    pass  # the batch statistics in its finally
                # The same object: closing the pool banks its retry and
                # respawn counters into it.
                stats = batch.statistics
        finally:
            if cache is not False:
                cache.close()
        _print_failure_summary(stats.timed_out, stats.oom, stats.quarantined, stats)
        if cache is not False:
            _print_cache_summary(stats, cache)
        # Timeouts are an honest "undecided within budget" and keep exit 0;
        # crashes and memory blow-ups mean the run did not do what was asked.
        if exit_code == 0 and (stats.quarantined or stats.oom):
            exit_code = 3
    else:
        check = _baseline_checker(arguments.prover)
        for line, entailment in parsed:
            if entailment is None:
                print("error    {}".format(line))
                continue
            verdict = "valid" if check(entailment) else "invalid"
            print("{:<8} {}".format(verdict, line))

    if arguments.time:
        print("total time: {:.3f}s".format(time.perf_counter() - start))
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
