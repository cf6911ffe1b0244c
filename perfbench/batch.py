"""``batch``: a stream of per-procedure batches through one warm BatchProver.

Closed loop, one caller: ``BatchProver(ProverConfig(record_proof=False),
jobs=2, cache=True)``, the path of ``slp FILE --jobs 2`` and
``prove_procedure``.  Each batch holds one example-suite procedure's
verification conditions cloned xk (k = 1..4), Table 2 fold entailments
(n = 20..40), and alpha-renamed repeats of inputs from the same batch and
from earlier ones.  The coordinator canonicalises every entry before dispatch, repeats
are answered by the cache or by in-batch deduplication, and every miss pays
pool dispatch and IPC.  An entry's latency runs from the batch's submission
until its verdict is yielded.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import List, Tuple

import inputs
import spans
from measure import Pass, Speed, probing, tree_peak_rss_mb

JOBS = 2
#: One cycle through every (procedure, clone factor) pair per 10 seconds: the
#: seed code's rate on the reference host (a 2-core VM) at its reference
#: speed (``measure.Speed``).  A 20-second run sends every pair twice, in two
#: seeded orders, so its p99 rests on two sendings of each of the costliest
#: batches rather than one.
CYCLE_SECONDS = 10.0
FOLDS_PER_BATCH = 6
#: Alpha-renamed repeats per batch: of this batch's folds (in-batch dedup), of
#: earlier folds and of earlier VCs cloned at most x2 (cache hits).  Repeats
#: of x3/x4 clones are left out: one costs up to 0.4 s of canonicalisation,
#: so a few more or less would swing a run.
SAME_BATCH_REPEATS = 2
EARLIER_FOLD_REPEATS = 2
EARLIER_VC_REPEATS = 2
REPEATED_VC_MAX_FACTOR = 2

WARMUP = "wk_a |-> wk_b * wk_b |-> nil |- lseg(wk_a, nil)"

#: Speed probes a set-up trial takes before and after building its state.
SETUP_PROBES = 5

#: BatchStatistics counters the guard requires to repeat exactly.
COUNTERS = ("cache_hits", "cache_misses", "deduplicated", "proved")
#: What each ``Pass.counts`` row holds (one row per batch).
COUNT_COLUMNS = COUNTERS + ("generated_clauses", "iterations", "uncacheable")


def make_plan(seed: int, seconds: float, expected: dict):
    """The seeded stream: a list of batches of ``(entailment, verdict, label)``."""
    rng = random.Random(seed)
    table = inputs.vc_by_procedure(expected)
    combos = sorted(table)
    count = max(2, round(seconds * len(combos) / CYCLE_SECONDS))
    order: List[Tuple[str, int]] = []
    while len(order) < count:
        order.extend(rng.sample(combos, len(combos)))
    order = order[:count]
    fold_total = len(expected["pools"]["fold"])
    fold_ids = inputs.cost_sample(rng, expected, "fold", min(fold_total, count * FOLDS_PER_BATCH))
    vcs = inputs.load_pool("vc", expected)
    folds = inputs.load_pool("fold", expected, sorted(set(fold_ids)))
    batches = []
    earlier_folds: List[inputs.Item] = []
    earlier_vcs: List[inputs.Item] = []
    for number, combo in enumerate(order):
        fresh_vcs = [vcs[key] for key in table[combo]]
        start = (number * FOLDS_PER_BATCH) % len(fold_ids)
        fresh_folds = [folds[fold_ids[(start + j) % len(fold_ids)]] for j in range(FOLDS_PER_BATCH)]
        sources = (
            [fresh_folds] * SAME_BATCH_REPEATS
            + [earlier_folds or fresh_folds] * EARLIER_FOLD_REPEATS
            + [earlier_vcs or fresh_folds] * EARLIER_VC_REPEATS
        )
        entries = [(item.entailment, item.verdict, item.id) for item in fresh_vcs + fresh_folds]
        for repeat, source in enumerate(sources):
            item = rng.choice(source)
            tag = "r{}_{}".format(number, repeat)
            entries.append((inputs.alpha_renamed(item.entailment, tag), item.verdict,
                            "{} renamed {}".format(item.id, tag)))
        rng.shuffle(entries)
        batches.append(entries)
        earlier_folds.extend(fresh_folds)
        earlier_vcs.extend(
            item for item in fresh_vcs if combo[1] <= REPEATED_VC_MAX_FACTOR
        )
    return batches


class State:
    """The stream and the provers that run it.

    Callers warm their provers before :meth:`plan` loads the inputs, so the
    pool's workers fork from a coordinator that does not yet hold them.
    """

    def __init__(self, seed: int, seconds: float):
        self.seed, self.seconds = seed, seconds
        self.batches: List[list] = []
        self.provers = []

    def plan(self) -> None:
        self.batches = make_plan(self.seed, self.seconds, inputs.load_expected())

    def warm_prover(self):
        """A BatchProver with its pool spawned and warm, and an empty cache."""
        from repro.core.batch import BatchProver
        from repro.core.config import ProverConfig
        from repro.logic.parser import parse_entailment

        prover = BatchProver(ProverConfig(record_proof=False), jobs=JOBS, cache=True)
        self.provers.append(prover)
        prover.prove_all([parse_entailment(WARMUP)])
        prover.cache.clear()
        return prover

    def close(self) -> None:
        for prover in self.provers:
            prover.close()


def _snapshot(prover) -> list:
    statistics = prover.statistics
    return [getattr(statistics, name) for name in COUNTERS] + [
        statistics.prover.generated_clauses,
        statistics.prover.iterations,
        prover.cache.uncacheable,
    ]


def run_batch(prover, entries, observed: Pass) -> None:
    from repro.core.batch import FailureInfo

    before = _snapshot(prover)
    started = time.perf_counter()
    answered = 0
    try:
        for index, outcome in prover.iter_results([entry[0] for entry in entries]):
            yielded = time.perf_counter()
            answered += 1
            observed.attempted += 1
            _, verdict, label = entries[index]
            if isinstance(outcome, FailureInfo):
                observed.fail("{}: {}".format(label, outcome.summary()))
                continue
            got = "valid" if outcome.is_valid else "invalid"
            if got != verdict:
                observed.fail("{}: {} but expected {}".format(label, got, verdict))
                continue
            observed.record(started, yielded, outcome.from_cache)
    except Exception as error:  # noqa: BLE001 - the batch's unanswered entries fail
        for _ in range(len(entries) - answered):
            observed.attempted += 1
            observed.fail("batch raised {}: {}".format(type(error).__name__, error))
    observed.segment(started, time.perf_counter())
    observed.counts.append([after - prior for after, prior in zip(_snapshot(prover), before)])


def timed_pass(state: State, prover) -> Pass:
    observed, speed = Pass(), Speed()
    with probing(speed):
        for entries in state.batches:
            run_batch(prover, entries, observed)
    return observed.finish(speed)


def peak_rss_mb() -> float:
    """The coordinator (this process) plus its worker processes."""
    return tree_peak_rss_mb(os.getpid())


def traced_passes(state: State, recorder: spans.Recorder):
    """Two warm BatchProvers over the same stream, batch by batch in ABBA
    order: one whose pool forked before the wrappers went in (untraced),
    one whose pool forked after (traced workers)."""
    plain_prover = state.warm_prover()
    installation = spans.install(recorder)
    traced_prover = state.warm_prover()
    installation.uninstall()
    state.plan()
    since = time.perf_counter()
    plain, traced, speed = Pass(), Pass(), Speed()
    with probing(speed):
        for number, entries in enumerate(state.batches):
            order = (False, True) if number % 2 == 0 else (True, False)
            for tracing in order:
                if tracing:
                    installation = spans.install(recorder)
                    try:
                        run_batch(traced_prover, entries, traced)
                    finally:
                        installation.uninstall()
                else:
                    run_batch(plain_prover, entries, plain)
    return plain.finish(speed), traced.finish(speed), since


def setup_only(args) -> int:
    """A set-up trial: stream built, pool spawned and warm; report the speed
    probes taken along the way; optionally recount."""
    speed = Speed()
    speed.sample(SETUP_PROBES, every_cpu=True)
    state = State(args.seed, args.seconds)
    try:
        prover = state.warm_prover()
        state.plan()
        speed.sample(SETUP_PROBES, every_cpu=True)
        print("ready", flush=True)
        report = {"probes": list(speed.probes)}
        if args.recount:
            observed = Pass()
            for entries in state.batches[: args.recount]:
                run_batch(prover, entries, observed)
            report["counts"] = observed.counts
        print(json.dumps(report), flush=True)
    finally:
        state.close()
    return 0
