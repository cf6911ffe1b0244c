"""The ``repro fuzz`` / ``slp fuzz`` command-line front end.

Runs a differential fuzzing campaign and prints the summary::

    $ slp fuzz --seed 0 --iterations 200 --jobs 4
    fuzz campaign: seed=0 iterations=200 jobs=4
    checked 317 entailments (117 mutants): ...
    no disagreements found

Exit codes: ``0`` clean campaign, ``1`` disagreements found (so CI can gate
on it).  ``--corpus DIR`` banks shrunk reproducers as ``.ent`` files,
``--summary PATH`` writes the machine-readable report (the same JSON the
scheduled CI job uploads as an artifact).
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Optional

from repro.core.atomicio import atomic_write_json
from repro.core.faults import FAULT_KINDS, FaultPlan
from repro.core.store import JournalMismatch
from repro.fuzz.differential import run_campaign
from repro.fuzz.generator import DEFAULT_WEIGHTS, GeneratorProfile

__all__ = ["fuzz_main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slp fuzz",
        description="Differential fuzzing of the entailment prover.",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument(
        "--iterations", type=int, default=200, help="generated instances (default 200)"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the batch proving pass (default 1)",
    )
    parser.add_argument(
        "--baselines", action="store_true",
        help="also cross-check against the smallfoot/jstar baseline provers",
    )
    parser.add_argument(
        "--max-enum-vars", type=int, default=3, metavar="K",
        help="enumeration-oracle variable bound (default 3; the oracle is exponential)",
    )
    parser.add_argument(
        "--p-transform", type=float, default=0.6, metavar="P",
        help="probability of deriving a metamorphic mutant per instance (default 0.6)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-instance prover budget (default: none)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-dispatch a crashed batch instance up to N times before "
        "quarantining it (default 2)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="chaos mode: inject a deterministic worker fault into fraction P "
        "of the primary batch instances (default 0: no injection); the "
        "campaign must still terminate with every uninjected verdict intact",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="seed for the fault plan (default: the campaign --seed)",
    )
    parser.add_argument(
        "--fault-kind", action="append", default=[], metavar="KIND",
        help="restrict injected faults to KIND (repeatable; kinds: {}; "
        "default: all)".format(", ".join(FAULT_KINDS)),
    )
    parser.add_argument(
        "--min-vars", type=int, default=3, help="minimum variables per instance (default 3)"
    )
    parser.add_argument(
        "--max-vars", type=int, default=6, help="maximum variables per instance (default 6)"
    )
    parser.add_argument(
        "--weight", action="append", default=[], metavar="STRATEGY=W",
        help="override a strategy weight, e.g. --weight near_symmetric=0.3 "
        "(known strategies: {})".format(", ".join(sorted(DEFAULT_WEIGHTS))),
    )
    parser.add_argument(
        "--family", default=None, metavar="STRATEGY",
        help="campaign a single generator family in isolation (sets its weight "
        "to 1 and every other to 0); mutually exclusive with --weight",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="report findings without delta-debugging them"
    )
    parser.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="write shrunk reproducers into DIR as .ent files",
    )
    parser.add_argument(
        "--summary", default=None, metavar="PATH",
        help="write the JSON campaign report to PATH",
    )
    parser.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="checkpoint the campaign in DIR (journal + persistent proof "
        "store); a killed campaign restarts with --resume and skips the "
        "journaled work, with a report bit-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume the checkpointed campaign in --run-dir",
    )
    return parser


def fuzz_main(argv: Optional[Iterable[str]] = None) -> int:
    """Entry point of the ``fuzz`` subcommand."""
    parser = _build_parser()
    arguments = parser.parse_args(list(argv) if argv is not None else None)
    if arguments.iterations < 1:
        parser.error("--iterations must be at least 1")
    if arguments.jobs < 1:
        parser.error("--jobs must be at least 1")
    if not 0.0 <= arguments.p_transform <= 1.0:
        parser.error("--p-transform must be in [0, 1]")
    if arguments.retries < 0:
        parser.error("--retries must be >= 0")
    if not 0.0 <= arguments.fault_rate <= 1.0:
        parser.error("--fault-rate must be in [0, 1]")
    for kind in arguments.fault_kind:
        if kind not in FAULT_KINDS:
            parser.error(
                "unknown fault kind {!r}; known: {}".format(kind, ", ".join(FAULT_KINDS))
            )
    if arguments.resume and arguments.run_dir is None:
        parser.error("--resume requires --run-dir")
    if arguments.run_dir is not None and arguments.fault_rate > 0.0:
        parser.error(
            "--run-dir does not compose with chaos mode (--fault-rate):"
            " a replayed journal must not preserve injected faults"
        )
    fault_plan = None
    if arguments.fault_rate > 0.0:
        fault_plan = FaultPlan.seeded(
            seed=arguments.fault_seed if arguments.fault_seed is not None else arguments.seed,
            rate=arguments.fault_rate,
            kinds=tuple(arguments.fault_kind) or ("exit",),
            times=1,  # transient by default: retries must be able to recover
        )

    if arguments.family is not None:
        if arguments.weight:
            parser.error("--family and --weight are mutually exclusive")
        if arguments.family not in DEFAULT_WEIGHTS:
            parser.error(
                "unknown family {!r}; known: {}".format(
                    arguments.family, ", ".join(sorted(DEFAULT_WEIGHTS))
                )
            )

    weights = {}
    for override in arguments.weight:
        name, _, value = override.partition("=")
        if not value:
            parser.error("--weight expects STRATEGY=W, got {!r}".format(override))
        if name not in DEFAULT_WEIGHTS:
            parser.error("unknown strategy {!r}".format(name))
        try:
            weights[name] = float(value)
        except ValueError:
            parser.error("weight for {!r} is not a number: {!r}".format(name, value))
    try:
        if arguments.family is not None:
            profile = GeneratorProfile.only(
                arguments.family,
                min_variables=arguments.min_vars,
                max_variables=arguments.max_vars,
            )
        else:
            profile = GeneratorProfile(
                min_variables=arguments.min_vars, max_variables=arguments.max_vars
            )
            if weights:
                profile = profile.with_weights(**weights)
    except ValueError as error:
        parser.error(str(error))

    try:
        report = run_campaign(
            seed=arguments.seed,
            iterations=arguments.iterations,
            jobs=arguments.jobs,
            profile=profile,
            include_baselines=arguments.baselines,
            max_enum_variables=arguments.max_enum_vars,
            p_transform=arguments.p_transform,
            timeout=arguments.timeout,
            shrink_findings=not arguments.no_shrink,
            corpus_dir=arguments.corpus,
            fault_plan=fault_plan,
            retries=arguments.retries,
            run_dir=arguments.run_dir,
            resume=arguments.resume,
        )
    except JournalMismatch as error:
        raise SystemExit("slp fuzz: {}".format(error))

    for line in report.summary_lines():
        print(line)
    if arguments.summary:
        atomic_write_json(arguments.summary, report.to_json(), sort_keys=True)
        print("summary written to {}".format(arguments.summary))
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(fuzz_main())
