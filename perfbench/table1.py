"""``table1``: Table 1 random unsat entailments, proved one at a time.

Closed loop, one caller, in-process: ``Prover(ProverConfig(record_proof=False))
.prove`` — the configuration ``slp serve`` runs — on every input in turn.
Nothing above ``core/prover.py`` runs, so canonicalisation, cache, pool, store
and HTTP are bypassed; only the inner loop (saturation, model generation,
normalisation, well-formedness) decides these.
"""

from __future__ import annotations

import json
import random
import time
from typing import List

import inputs
import spans
from measure import Pass, Speed

#: Nominal inputs per second of the seed code on the reference host (a
#: 2-core VM): a run proves ``seconds * RATE`` inputs, so its timed region
#: lasts about ``--seconds`` there, and the same seed always gives the same
#: inputs (which the count guard relies on).
RATE = 70.0

#: Rows whose first member is proved during set-up, whatever the seed.
WARMUP_ROWS = ("table1/12", "table1/16", "table1/20")

#: What each ``Pass.counts`` row holds (one row per ``prove()``).
COUNT_COLUMNS = ("generated_clauses", "iterations")

#: Inputs per chunk when the traced run alternates traced and untraced proving.
CHUNK = 20

#: Speed probes a set-up trial takes before and after building its state.
SETUP_PROBES = 5


class State:
    def __init__(self, seed: int, seconds: float):
        from repro.core.config import ProverConfig
        from repro.core.prover import Prover

        expected = inputs.load_expected()
        total = max(len(inputs.TABLE1_ROWS), round(seconds * RATE))
        ids = inputs.cost_sample(random.Random(seed), expected, "table1", total)
        rows = inputs.pool_groups(expected, "table1")
        warmup = [rows[row][0] for row in WARMUP_ROWS]
        pool = inputs.load_pool("table1", expected, list(ids) + warmup)
        self.items = [pool[key] for key in ids]
        self.prover = Prover(ProverConfig(record_proof=False))
        for key in warmup:
            self.prover.prove(pool[key].entailment)


def prove_one(state: State, item, observed: Pass, counts: list, speed: Speed) -> None:
    """One timed ``prove()``, after a speed probe on the same thread."""
    speed.sample()
    observed.attempted += 1
    started = time.perf_counter()
    try:
        result = state.prover.prove(item.entailment)
    except Exception as error:  # noqa: BLE001 - a failed operation is counted
        observed.fail("{}: {}: {}".format(item.id, type(error).__name__, error))
        return
    ended = time.perf_counter()
    observed.segment(started, ended)
    verdict = "valid" if result.is_valid else "invalid"
    counts.append([result.statistics.generated_clauses, result.statistics.iterations])
    if verdict != item.verdict:
        observed.fail("{}: {} but {} says {}".format(item.id, verdict, item.source, item.verdict))
        return
    observed.record(started, ended)


def timed_pass(state: State) -> Pass:
    observed, speed = Pass(), Speed()
    for item in state.items:
        prove_one(state, item, observed, observed.counts, speed)
    speed.sample()
    return observed.finish(speed)


def traced_passes(state: State, recorder: spans.Recorder):
    """An untraced and a traced pass over the same inputs, interleaved by
    chunk (ABBA), so host drift and warm-up land on both sides equally."""
    plain, traced, speed = Pass(), Pass(), Speed()
    for position in range(0, len(state.items), CHUNK):
        chunk = state.items[position:position + CHUNK]
        order = (False, True) if (position // CHUNK) % 2 == 0 else (True, False)
        for tracing in order:
            target = traced if tracing else plain
            installation = spans.install(recorder) if tracing else None
            try:
                for item in chunk:
                    prove_one(state, item, target, target.counts, speed)
            finally:
                if installation is not None:
                    installation.uninstall()
    speed.sample()
    return plain.finish(speed), traced.finish(speed)


def setup_only(args) -> int:
    """A set-up trial: build the state, say ``ready``, report the speed
    probes taken along the way, optionally recount."""
    speed = Speed()
    speed.sample(SETUP_PROBES, every_cpu=True)
    state = State(args.seed, args.seconds)
    speed.sample(SETUP_PROBES, every_cpu=True)
    print("ready", flush=True)
    report = {"probes": list(speed.probes)}
    if args.recount:
        counts: List[list] = []
        scratch = Pass()
        for item in state.items[: args.recount]:
            prove_one(state, item, scratch, counts, speed)
        report["counts"] = counts
    print(json.dumps(report), flush=True)
    return 0
