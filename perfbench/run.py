#!/usr/bin/env python3
"""The benchmark: three workloads, end-to-end metrics, a traced per-layer split.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1|batch|serve --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics (``BENCHMARK.json``'s
``end_to_end``); ``--trace 1`` makes the separate traced run that reports the
per-layer metrics (``per_layer``) and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every verdict is checked against ``expected.json``.  On ``table1`` and
``batch`` the program's deterministic counts (generated clauses, iterations,
cache hits and misses, deduplicated entries, canonicalisations) must repeat
exactly: in a fresh process (one of the set-up trials recounts the first
inputs) and, in the traced run, between its untraced and traced passes.
A moved count makes the run incorrect.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("table1", "batch", "serve")
SETUP_TRIALS = 3
#: Operations (table1) or batches (batch) a fresh process recounts.
RECOUNT = {"table1": 40, "batch": 4}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "entailments/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "peak_rss_mb": "MB",
}
#: Reported per layer besides ``spans.LAYERS``: the request-class split, the
#: open-loop generator's lag and what tracing costs.
EXTRA_LAYER_UNITS = {
    "hit_latency_ms_p50": "ms",
    "miss_latency_ms_p50": "ms",
    "generator.lateness_ms_p99": "ms",
    "tracing.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--recount", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Report:
    """Everything one invocation prints."""

    def __init__(self, args):
        self.args = args
        self.metrics = {}
        self.units = {}
        self.lines = []
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = float(value)
        self.units[name] = unit

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def emit(self) -> None:
        args = self.args
        print("perfbench {} seed={} seconds={:g} trace={}".format(
            args.workload, args.seed, args.seconds, args.trace))
        for line in self.lines:
            print("  " + line)
        for name, value in self.metrics.items():
            print("  {:<28} {:>14.4f} {}".format(name, value, self.units[name]))
        for text in self.problems:
            print("  PROBLEM: " + text)
        result = {
            "correct": not self.problems,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }
        print(json.dumps(result), flush=True)


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def setup_trials(args, recount: int):
    """Fresh-interpreter set-ups, timed from launch to ``ready`` and scaled
    to the reference speed by the probes each trial took (``measure.Speed``).

    The last trial also recounts the first ``recount`` operations and
    returns their counts, for the between-runs determinism guard.
    """
    from measure import scale_of

    samples, counts = [], None
    for trial in range(SETUP_TRIALS):
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--setup-only",
        ]
        if trial == SETUP_TRIALS - 1 and recount:
            command += ["--recount", str(recount)]
        started = time.perf_counter()
        process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            ready = process.stdout.readline()
            seconds = time.perf_counter() - started
            rest = process.stdout.read()
        finally:
            process.stdout.close()
            code = process.wait()
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError("set-up trial failed (exit {})".format(code))
        report = json.loads(rest.splitlines()[-1])
        samples.append(seconds * scale_of(report["probes"]))
        counts = report.get("counts", counts)
    return samples, counts


def end_to_end(report: Report, observed, setup_samples, rss_mb: float) -> None:
    from measure import percentile, samples_beyond, supported

    report.metric("setup_s", statistics.median(setup_samples), "s")
    report.metric("throughput_per_s", observed.throughput, "entailments/s")
    report.metric("latency_ms_p50", percentile(observed.latencies, 0.50) * 1000.0, "ms")
    report.metric("latency_ms_p99", percentile(observed.latencies, 0.99) * 1000.0, "ms")
    report.metric("peak_rss_mb", rss_mb, "MB")
    report.lines.append("setup trials (s): " + ", ".join("{:.3f}".format(s) for s in setup_samples))
    report.lines.append("as timed, before scaling to the reference speed: {:.4f} entailments/s,"
                        " p50 {:.4f} ms, p99 {:.4f} ms".format(
                            observed.raw_throughput,
                            percentile(observed.raw_latencies, 0.50) * 1000.0,
                            percentile(observed.raw_latencies, 0.99) * 1000.0))
    count = len(observed.latencies)
    report.lines.append("latency samples: {} ({} beyond p99{})".format(
        count, samples_beyond(count, 0.99), "" if supported(count, 0.99) else ": too few for p99"))
    report.lines.extend(class_lines(observed))


def class_lines(observed):
    from measure import percentile

    lines = []
    for label, values in (("hit_latency_ms_p50", observed.hits), ("miss_latency_ms_p50", observed.misses)):
        if values:
            lines.append("{} {:.4f} ms ({} samples)".format(
                label, percentile(values, 0.5) * 1000.0, len(values)))
        else:
            lines.append("{} n/a (no such operations)".format(label))
    ratio = observed.failed / observed.attempted if observed.attempted else 0.0
    lines.append("failed_ratio {:.4f} ({} of {} operations)".format(
        ratio, observed.failed, observed.attempted))
    if observed.lateness:
        lines.append("generator lateness p99 {:.3f} ms".format(
            percentile(observed.lateness, 0.99) * 1000.0))
    return lines


def account(report: Report, *passes) -> None:
    for observed in passes:
        report.attempted += observed.attempted
        report.failed += observed.failed
        for failure in observed.failures:
            report.problem("failed operation: " + failure)
        if observed.failed > len(observed.failures):
            report.problem("... {} failed operations in all".format(observed.failed))


def guard(report: Report, what: str, first, second) -> None:
    """The determinism guard: ``first`` and ``second`` counts must match."""
    if first != second:
        mismatch = next(
            (i for i, (a, b) in enumerate(zip(first, second)) if a != b),
            min(len(first), len(second)),
        )
        report.problem("{}: counts moved at operation {} ({} vs {})".format(
            what, mismatch,
            first[mismatch] if mismatch < len(first) else None,
            second[mismatch] if mismatch < len(second) else None))
    else:
        report.lines.append("{}: {} count rows repeat exactly".format(what, len(first)))


def count_totals(report: Report, columns, counts) -> dict:
    """Print the run's program-reported counts, summed, so runs can be compared."""
    sums = {name: sum(row[i] for row in counts) for i, name in enumerate(columns)}
    report.lines.append("counts: " + ", ".join(
        "{}={}".format(name, total) for name, total in sums.items()))
    return sums


#: Per-layer metric -> the program count it must equal in a traced run.
SPAN_COUNTS = {
    "generated_clauses": "generated_clauses",
    "prover.iterations": "iterations",
    "batch.deduplicated": "deduplicated",
}


def spans_match_counts(report: Report, layer: dict, totals: dict) -> None:
    """The spans' counts must be the program's own: a traced run that lost or
    doubled spans fails instead of reporting skewed layers."""
    for metric, count in SPAN_COUNTS.items():
        if count in totals and layer[metric] != totals[count]:
            report.problem("{} from spans is {:g}, the program counted {}".format(
                metric, layer[metric], totals[count]))


def per_layer(report: Report, layer: dict, plain, overhead: float) -> None:
    import spans
    from measure import percentile

    for name, (unit, _better, _target) in spans.LAYERS.items():
        report.metric(name, layer[name], unit)
    lost = [name for name in spans.RUNS[report.args.workload] if not layer[name]]
    if lost:
        report.problem("layers this workload runs read 0 (spans lost): " + ", ".join(lost))
    report.metric("hit_latency_ms_p50",
                  percentile(plain.hits, 0.5) * 1000.0 if plain.hits else 0.0, "ms")
    report.metric("miss_latency_ms_p50",
                  percentile(plain.misses, 0.5) * 1000.0 if plain.misses else 0.0, "ms")
    report.metric("generator.lateness_ms_p99",
                  percentile(plain.lateness, 0.99) * 1000.0 if plain.lateness else 0.0, "ms")
    report.metric("tracing.overhead_ratio", overhead, "ratio")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def run_table1(args, report: Report, work: str) -> None:
    import spans
    import table1
    from measure import reset_peak_rss, tree_peak_rss_mb

    if not args.trace:
        samples, recounted = setup_trials(args, RECOUNT["table1"])
        state = table1.State(args.seed, args.seconds)
        gc.collect()
        reset_peak_rss([os.getpid()])
        observed = table1.timed_pass(state)
        end_to_end(report, observed, samples, tree_peak_rss_mb(os.getpid()))
        account(report, observed)
        guard(report, "fresh-process recount", observed.counts[: len(recounted)], recounted)
        count_totals(report, table1.COUNT_COLUMNS, observed.counts)
        return
    state = table1.State(args.seed, args.seconds)
    recorder = spans.Recorder(work)
    plain, traced = table1.traced_passes(state, recorder)
    recorder.flush()
    layer = spans.layer_metrics(spans.load(work))
    per_layer(report, layer, plain, plain.throughput / traced.throughput)
    report.lines.extend(class_lines(plain))
    account(report, plain, traced)
    guard(report, "untraced vs traced pass", plain.counts, traced.counts)
    spans_match_counts(report, layer, count_totals(report, table1.COUNT_COLUMNS, traced.counts))


def run_batch(args, report: Report, work: str) -> None:
    import batch
    import spans
    from measure import reset_peak_rss, tree

    if not args.trace:
        samples, recounted = setup_trials(args, RECOUNT["batch"])
        state = batch.State(args.seed, args.seconds)
        try:
            prover = state.warm_prover()
            state.plan()
            gc.collect()
            reset_peak_rss(tree(os.getpid()))
            observed = batch.timed_pass(state, prover)
            rss = batch.peak_rss_mb()
        finally:
            state.close()
        end_to_end(report, observed, samples, rss)
        account(report, observed)
        guard(report, "fresh-process recount", observed.counts[: len(recounted)], recounted)
        count_totals(report, batch.COUNT_COLUMNS, observed.counts)
        return
    state = batch.State(args.seed, args.seconds)
    recorder = spans.Recorder(work, keyed=True, flush_per_task=True)
    try:
        plain, traced, since = batch.traced_passes(state, recorder)
    finally:
        state.close()
    recorder.flush()
    layer = spans.layer_metrics(spans.load(work, since))
    per_layer(report, layer, plain, plain.throughput / traced.throughput)
    report.lines.extend(class_lines(plain))
    account(report, plain, traced)
    guard(report, "untraced vs traced pass", plain.counts, traced.counts)
    spans_match_counts(report, layer, count_totals(report, batch.COUNT_COLUMNS, traced.counts))


def run_serve(args, report: Report, work: str) -> None:
    import inputs
    import serve
    import spans
    from measure import Speed, percentile, reset_peak_rss, tree

    if not args.trace:
        samples = []
        server = None
        try:
            for trial in range(SETUP_TRIALS):
                if server is not None:
                    server.stop()
                    server = None
                speed = Speed()
                speed.sample(serve.SETUP_PROBES, every_cpu=True)
                started = time.perf_counter()
                prefill, requests = serve.plan(args.seed, args.seconds, inputs.load_expected())
                server, _ = serve.start(work, "trial{}".format(trial), prefill)
                seconds = time.perf_counter() - started
                speed.sample(serve.SETUP_PROBES, every_cpu=True)
                samples.append(seconds * speed.overall())
            gc.collect()
            reset_peak_rss(tree(server.process.pid))
            observed = serve.timed_pass(server, requests)
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        end_to_end(report, observed, samples, rss)
        account(report, observed)
        invalid = serve.lateness_invalid(observed)
        if invalid:
            report.problem("run invalid: " + invalid)
        return
    prefill, requests = serve.plan(args.seed, args.seconds, inputs.load_expected())
    server, _ = serve.start(work, "plain", prefill)
    try:
        plain = serve.timed_pass(server, requests)
    finally:
        server.stop()
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir)
    server, _ = serve.start(work, "traced", prefill, trace_dir)
    recorder = spans.Recorder(trace_dir)
    since = time.perf_counter()
    try:
        traced = serve.timed_pass(server, requests, recorder)
    finally:
        server.stop()
    recorder.flush()
    layer = spans.layer_metrics(spans.load(trace_dir, since), client_pid=os.getpid())
    overhead = percentile(traced.latencies, 0.5) / percentile(plain.latencies, 0.5)
    per_layer(report, layer, plain, overhead)
    report.lines.extend(class_lines(plain))
    account(report, plain, traced)
    for observed in (plain, traced):
        invalid = serve.lateness_invalid(observed)
        if invalid:
            report.problem("run invalid: " + invalid)


RUNNERS = {"table1": run_table1, "batch": run_batch, "serve": run_serve}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program at {}; run from the root of a checkout".format(SRC),
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        import batch
        import table1

        return {"table1": table1, "batch": batch}[args.workload].setup_only(args)
    # A terminated run still stops its servers and pools (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = os.path.join(ROOT, ".bench_work", "{}-{}".format(args.workload, os.getpid()))
    os.makedirs(work)
    report = Report(args)
    try:
        RUNNERS[args.workload](args, report, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
