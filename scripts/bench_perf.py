#!/usr/bin/env python
"""Measure the saturation core and emit a machine-readable ``BENCH_saturation.json``.

This is the perf-trajectory harness: every PR that touches the
``SaturationEngine -> SuperpositionCalculus -> TermOrder -> generate_model``
path should re-run it and compare the emitted numbers against the committed
``BENCH_saturation.json``.  The workload is the Table 1 distribution (random
consistency entailments ``Pi /\\ Sigma |- false``), which exercises exactly
the inner loop: superposition saturation, candidate-model generation,
normalisation and well-formedness reasoning.

Two engine configurations are timed on identical batches:

* ``indexed``   — the default configuration (the dense kernel with its
  clause index, plus incremental model generation);
* ``reference`` — ``ProverConfig.reference()``: linear-scan subsumption and
  partner selection, from-scratch model generation every round.  This is the
  seed algorithm (it still benefits from shared data-structure speedups such
  as interning and hash caching, so it is a *lower bound* on the speedup over
  the seed commit).

A ``batch`` section additionally measures the batch engine
(``repro.core.batch``): parallel scaling of the Table 1 n=20 row across
``--jobs`` worker processes, and the throughput of answering an
alpha-renamed copy of a corpus from the warm proof cache.  See
PERFORMANCE.md ("How the batch section is produced") for how to read it.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py            # full run
    PYTHONPATH=src python scripts/bench_perf.py --quick    # CI smoke run

See PERFORMANCE.md for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.benchgen.random_unsat import UnsatParameters, random_unsat_batch  # noqa: E402
from repro.core.atomicio import atomic_write_json  # noqa: E402
from repro.core.batch import BatchProver  # noqa: E402
from repro.core.cache import ProofCache  # noqa: E402
from repro.core.config import ProverConfig  # noqa: E402
from repro.core.prover import Prover  # noqa: E402
from repro.logic.terms import make_const  # noqa: E402

#: Wall-clock seconds of the *seed commit* (da8c932, pre-index engine) on the
#: same workloads, measured with the snippet documented in PERFORMANCE.md.
#: Kept here so the trajectory against the original engine stays visible even
#: though the seed code path no longer exists verbatim.
SEED_SECONDS = {12: 0.313, 16: 1.982, 20: 6.919}
SEED_INSTANCES = 40


def run_profile(top: int = 25) -> int:
    """Emit the top-``top`` ``tottime`` table for the PERFORMANCE.md workload.

    This is the manual cProfile recipe from PERFORMANCE.md ("Profiling
    methodology") as one command, so before/after profiles of a perf change
    are ``python scripts/bench_perf.py --profile`` at each commit.
    """
    import cProfile
    import io
    import pstats

    batch = random_unsat_batch(UnsatParameters.paper(20), 15, seed=1020)
    prover = Prover(ProverConfig().for_benchmarking())
    for entailment in batch[:2]:  # warm caches outside the profiled region
        prover.prove(entailment)
    profile = cProfile.Profile()
    profile.enable()
    for entailment in batch:
        prover.prove(entailment)
    profile.disable()
    stream = io.StringIO()
    pstats.Stats(profile, stream=stream).sort_stats("tottime").print_stats(top)
    print(stream.getvalue())
    return 0


def run_rows_section(configs, rows, instances: int, repeats: int = 3):
    """Time the given ``(label, config)`` pairs over every workload row.

    Per row, every configuration is timed ``repeats`` times with the
    configurations interleaved (a fresh warmed prover per measurement), and
    the best round is reported: on a busy host, back-to-back sequential
    passes charge whichever configuration runs during a noisy window, while
    interleaved minima converge on the uncontended cost of each.  Returns
    one result list per configuration, in input order.
    """
    results = {label: [] for label, _ in configs}
    for variables in rows:
        batch = random_unsat_batch(
            UnsatParameters.paper(variables), instances, seed=1000 + variables
        )
        best = {}
        counters = {}
        for _ in range(repeats):
            for label, config in configs:
                prover = Prover(config)
                prover.prove(batch[0])  # warm the caches outside the timed region
                start = time.perf_counter()
                valid = 0
                generated = 0
                for entailment in batch:
                    result = prover.prove(entailment)
                    if result.is_valid:
                        valid += 1
                    generated += result.statistics.generated_clauses
                elapsed = time.perf_counter() - start
                if label in counters and counters[label] != (valid, generated):
                    raise SystemExit(
                        "bench_perf: {} row n={} is not deterministic across "
                        "repeats".format(label, variables)
                    )
                counters[label] = (valid, generated)
                best[label] = min(best.get(label, elapsed), elapsed)
        for label, _ in configs:
            valid, generated = counters[label]
            results[label].append(
                {
                    "variables": variables,
                    "instances": len(batch),
                    "seconds": round(best[label], 4),
                    "valid": valid,
                    "generated_clauses": generated,
                }
            )
            print(
                "[bench_perf] {:<9} n={:<3} {:>8.3f}s  valid={:<3} generated={}".format(
                    label, variables, best[label], valid, generated
                )
            )
    return [results[label] for label, _ in configs]


def _timed_batch(config, jobs, cache, batch):
    """Prove ``batch`` through a warm BatchProver; return (seconds, verdicts, stats)."""
    with BatchProver(config, jobs=jobs, cache=cache) as engine:
        engine.prove_all(batch[:1])  # warm the pool/prover outside the timed region
        start = time.perf_counter()
        results = engine.prove_all(batch)
        elapsed = time.perf_counter() - start
        return elapsed, [r.is_valid for r in results], engine.statistics


def run_batch_section(quick: bool, jobs: int):
    """Measure the batch engine: parallel scaling and cache-hit throughput.

    Two rows (see PERFORMANCE.md):

    * ``parallel`` — the Table 1 n=20 row (quick: n=12) through BatchProver
      with 1 worker vs ``jobs`` workers, caching disabled so the speedup is
      pure parallel scaling; the verdict lists must agree exactly.
    * ``cache``   — a 100-instance corpus proved cold, then an alpha-renamed
      copy of the whole corpus proved against the warm cache; the second run
      must answer every instance from the cache with identical verdicts.
    * ``cache_restart`` — the cross-process warm restart: the corpus is
      proved cold through a :class:`ProofCache` over a temporary store
      file, that cache is closed (the "coordinator" exits), and a brand
      new cache over the same file proves the alpha-renamed copy — every
      answer must come from the on-disk store (``disk_hits``), with verdicts
      identical to the cold run.
    """
    config = ProverConfig().for_benchmarking()

    variables = 12 if quick else 20
    instances = 8 if quick else 40
    workload = random_unsat_batch(
        UnsatParameters.paper(variables), instances, seed=1000 + variables
    )
    seq_seconds, seq_verdicts, _ = _timed_batch(config, 1, False, workload)
    par_seconds, par_verdicts, par_stats = _timed_batch(config, jobs, False, workload)
    if seq_verdicts != par_verdicts:
        raise SystemExit("bench_perf: parallel verdicts diverge from sequential")
    parallel = {
        "variables": variables,
        "instances": instances,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "pool_used": par_stats.parallel,
        "jobs1_seconds": round(seq_seconds, 4),
        "jobsN_seconds": round(par_seconds, 4),
        "speedup": round(seq_seconds / par_seconds, 2),
        "valid": sum(seq_verdicts),
    }
    print(
        "[bench_perf] batch/parallel n={} jobs=1 {:.3f}s  jobs={} {:.3f}s  ({}x)".format(
            variables, seq_seconds, jobs, par_seconds, parallel["speedup"]
        )
    )

    cache_instances = 20 if quick else 100
    corpus = random_unsat_batch(UnsatParameters.paper(12), cache_instances, seed=77)
    renamed = [
        entailment.rename(
            {
                c: make_const("w{}_{}".format(i, c.name))
                for c in entailment.constants()
                if not c.is_nil
            }
        )
        for i, entailment in enumerate(corpus)
    ]
    shared = ProofCache()
    with BatchProver(config, jobs=1, cache=shared) as engine:
        # Warm the process (imports, interning, ordering caches) with an
        # entailment that is alpha-equivalent to nothing in the corpus, so
        # the timed "cold" run really proves every corpus instance.
        engine.prove_all(
            [random_unsat_batch(UnsatParameters.paper(10), 1, seed=5555)[0]]
        )
        start = time.perf_counter()
        cold_results = engine.prove_all(corpus)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm_results = engine.prove_all(renamed)
        warm_seconds = time.perf_counter() - start
        warm_hits = sum(1 for r in warm_results if r.from_cache)
    if [r.is_valid for r in cold_results] != [r.is_valid for r in warm_results]:
        raise SystemExit("bench_perf: cached verdicts diverge from cold verdicts")
    cache_row = {
        "variables": 12,
        "instances": cache_instances,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 2),
        "warm_hit_rate": round(warm_hits / cache_instances, 4),
    }
    print(
        "[bench_perf] batch/cache  n=12 cold {:.3f}s  warm (alpha-renamed) {:.3f}s  "
        "({}x, hit rate {:.0%})".format(
            cold_seconds, warm_seconds, cache_row["speedup"], cache_row["warm_hit_rate"]
        )
    )

    # Cross-process warm restart: the same corpus proved by two "coordinator"
    # lifetimes sharing one on-disk proof store.  The second lifetime starts
    # with an empty in-memory LRU, so every alpha-renamed answer must be
    # promoted from disk.
    store_dir = tempfile.mkdtemp(prefix="slp-bench-store-")
    store_path = os.path.join(store_dir, "proofs.slp")
    try:
        with ProofCache(path=store_path) as first:
            with BatchProver(config, jobs=1, cache=first) as engine:
                start = time.perf_counter()
                first_results = engine.prove_all(corpus)
                first_seconds = time.perf_counter() - start
        # A simulated coordinator restart: a new cache over the same file.
        with ProofCache(path=store_path) as second:
            with BatchProver(config, jobs=1, cache=second) as engine:
                start = time.perf_counter()
                second_results = engine.prove_all(renamed)
                restart_seconds = time.perf_counter() - start
            disk_hits = second.disk_hits
            keys_on_disk = len(second.disk)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    if [r.is_valid for r in first_results] != [r.is_valid for r in second_results]:
        raise SystemExit("bench_perf: warm-restart verdicts diverge from the cold run")
    if disk_hits == 0:
        raise SystemExit("bench_perf: warm restart answered nothing from the proof store")
    restart_row = {
        "variables": 12,
        "instances": cache_instances,
        "cold_seconds": round(first_seconds, 4),
        "restart_seconds": round(restart_seconds, 4),
        "speedup": round(first_seconds / restart_seconds, 2),
        "disk_hits": disk_hits,
        "disk_hit_rate": round(disk_hits / cache_instances, 4),
        "keys_on_disk": keys_on_disk,
    }
    print(
        "[bench_perf] batch/cache_restart  n=12 cold {:.3f}s  restarted coordinator "
        "{:.3f}s  ({}x, {} disk hits)".format(
            first_seconds, restart_seconds, restart_row["speedup"], disk_hits
        )
    )
    return {"parallel": parallel, "cache": cache_row, "cache_restart": restart_row}


def run_theory_section(quick: bool):
    """Per-spatial-theory proving throughput on matched fold workloads.

    One row per registered predicate family, each timed through the same
    ``Prover`` on its generator family's fold-leaning distribution (singly
    linked: the Table 2 ``fold`` family; doubly linked: the ``dll`` family).
    The rows track how much a second theory costs relative to the builtin one
    as both evolve; the absolute numbers are host specific, the ratio is not.
    """
    from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile

    config = ProverConfig().for_benchmarking()
    instances = 60 if quick else 300
    rows = []
    for theory, family in (("sll", "fold"), ("dll", "dll")):
        profile = GeneratorProfile.only(family, min_variables=2, max_variables=6)
        batch = EntailmentGenerator(seed=424242, profile=profile).entailments(instances)
        prover = Prover(config)
        prover.prove(batch[0])  # warm the caches outside the timed region
        start = time.perf_counter()
        valid = sum(1 for entailment in batch if prover.prove(entailment).is_valid)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "theory": theory,
                "family": family,
                "instances": instances,
                "seconds": round(elapsed, 4),
                "per_instance_ms": round(1000.0 * elapsed / instances, 3),
                "valid": valid,
            }
        )
        print(
            "[bench_perf] theory/{:<4} family={:<5} {:>8.3f}s  ({:.2f} ms/instance, "
            "valid={})".format(theory, family, elapsed, rows[-1]["per_instance_ms"], valid)
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small smoke run (CI): fewer rows and instances, no file emitted unless --out",
    )
    parser.add_argument(
        "--instances", type=int, default=None, help="entailments per row (default 40; quick: 8)"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default BENCH_saturation.json at the repo root; quick runs skip emission)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the batch section (default: min(4, cpu count); quick: 2)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="instead of benchmarking, print the top-25 tottime cProfile table "
        "for the PERFORMANCE.md workload (n=20, 15 instances, seed 1020) and exit",
    )
    parser.add_argument(
        "--seed-baseline",
        action="store_true",
        help="also report speedups against the hardcoded seed-commit timings; "
        "only meaningful on the machine that produced SEED_SECONDS — on any "
        "other host compare reference_seconds instead",
    )
    args = parser.parse_args(argv)

    if args.profile:
        return run_profile()

    rows = (12, 16) if args.quick else (12, 16, 20)
    instances = args.instances if args.instances is not None else (8 if args.quick else 40)
    if instances < 1:
        parser.error("--instances must be at least 1")

    jobs = args.jobs
    if jobs is None:
        jobs = 2 if args.quick else max(1, min(4, os.cpu_count() or 1))
    if jobs < 1:
        parser.error("--jobs must be at least 1")

    base = ProverConfig().for_benchmarking()
    # Best-of-6 on the full run: single-core containers show 20%+ run-to-run
    # noise, and three samples per side routinely miss the floor for one
    # side of a comparison (see PERFORMANCE.md, "measurement methodology").
    repeats = 2 if args.quick else 6
    indexed, reference = run_rows_section(
        (("indexed", base), ("reference", base.reference())), rows, instances, repeats
    )

    merged = []
    for idx, ref in zip(indexed, reference):
        if (idx["valid"], idx["generated_clauses"]) != (ref["valid"], ref["generated_clauses"]):
            raise SystemExit(
                "bench_perf: indexed and reference configurations disagree on "
                "n={} (valid {} vs {}, generated {} vs {})".format(
                    idx["variables"],
                    idx["valid"],
                    ref["valid"],
                    idx["generated_clauses"],
                    ref["generated_clauses"],
                )
            )
        row = {
            "variables": idx["variables"],
            "instances": idx["instances"],
            "indexed_seconds": idx["seconds"],
            "reference_seconds": ref["seconds"],
            "speedup_vs_reference": round(ref["seconds"] / idx["seconds"], 2),
            "valid": idx["valid"],
            "generated_clauses": idx["generated_clauses"],
        }
        seed_seconds = SEED_SECONDS.get(idx["variables"])
        if args.seed_baseline and seed_seconds is not None and idx["instances"] == SEED_INSTANCES:
            row["seed_seconds"] = seed_seconds
            row["speedup_vs_seed"] = round(seed_seconds / idx["seconds"], 2)
        merged.append(row)

    batch_section = run_batch_section(args.quick, jobs)
    theory_section = run_theory_section(args.quick)

    total_indexed = sum(row["indexed_seconds"] for row in merged)
    total_reference = sum(row["reference_seconds"] for row in merged)
    payload = {
        "benchmark": "saturation",
        "workload": "random_unsat (Table 1 distribution), seeds 1000+n",
        "python": platform.python_version(),
        "quick": args.quick,
        "rows": merged,
        "batch": batch_section,
        "theories": theory_section,
        "total": {
            "indexed_seconds": round(total_indexed, 4),
            "reference_seconds": round(total_reference, 4),
            "speedup_vs_reference": round(total_reference / total_indexed, 2),
        },
        "notes": (
            "indexed_seconds run the default configuration — the dense "
            "integer clause kernel plus the adaptive clause index and "
            "incremental model maintenance, so generated_clauses must equal "
            "the reference's (the script aborts otherwise).  "
            "reference_seconds re-run the unindexed symbolic algorithm "
            "in-tree on the same machine and are the portable trajectory "
            "metric (a lower bound on the speedup over the seed commit).  "
            "seed_seconds, when present (--seed-baseline), were measured at "
            "the seed commit (da8c932) with 40 instances per row and are "
            "only comparable on the machine that produced them.  "
            "batch.parallel scaling is bounded by cpu_count (a "
            "1-core host shows the IPC overhead, not a speedup); "
            "batch.cache is host-independent: it reports the throughput of "
            "answering an alpha-renamed copy of the corpus from the warm "
            "proof cache.  batch.cache_restart repeats that through a "
            "store-backed ProofCache across two coordinator lifetimes sharing "
            "one store file: the restarted coordinator's disk_hits count how "
            "many answers were promoted from the on-disk proof store."
        ),
    }
    if merged and all("speedup_vs_seed" in row for row in merged):
        payload["total"]["speedup_vs_seed"] = round(
            sum(row["seed_seconds"] for row in merged) / total_indexed, 2
        )

    print(
        "[bench_perf] total: indexed {:.3f}s  reference {:.3f}s  ({}x)".format(
            total_indexed, total_reference, payload["total"]["speedup_vs_reference"]
        )
    )

    out = args.out
    if out is None and not args.quick:
        out = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_saturation.json",
        )
    if out:
        # The "fuzz" section is maintained by the fuzzing campaigns and the
        # "serve" section by scripts/bench_load.py (see TESTING.md), not by
        # this script; carry both over on regeneration.
        if os.path.exists(out):
            try:
                with open(out) as handle:
                    previous = json.load(handle)
                for foreign in ("fuzz", "serve", "serve_overload"):
                    if foreign in previous:
                        payload[foreign] = previous[foreign]
            except (ValueError, OSError):
                pass
        # Atomic: a benchmark run killed mid-write must not leave a truncated
        # BENCH_saturation.json for the trajectory tooling to choke on.
        atomic_write_json(out, payload)
        print("[bench_perf] wrote {}".format(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
