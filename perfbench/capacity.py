#!/usr/bin/env python3
"""Measure the ``serve`` workload's capacity: the highest rate it sustains.

Usage, from the root of a checkout::

    python3 perfbench/capacity.py [--seed N] [--seconds S] [--rates R ...]

For each rate: a fresh set-up (prefill lifetime, then the measured
lifetime), then ``serve``'s open loop at that rate, with its request mix,
for ``--seconds``.  Printed per rate: the rate completed, p50 and p99
latency as timed, the generator's p99 lag, and the backlog trend (median
latency of the last quarter of requests over that of the first quarter).
A rate is *sustained* when it completes at least 98% of the offered rate and
the trend stays below 2: beyond it the queue grows for as long as the load
lasts.  ``serve.CAPACITY`` records the highest sustained rate measured on
the reference host; the benchmark offers ``serve.RATE``, a stated share of
it.  Every verdict is checked, as in the benchmark.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import serve  # noqa: E402
from measure import percentile  # noqa: E402


def measure_rate(work: str, seed: int, seconds: float, rate: float, expected: dict) -> dict:
    try:
        prefill, requests = serve.plan(seed, seconds, expected, rate)
    except ValueError as error:  # the pools hold too few distinct problems
        raise SystemExit("rate {:g} over {:g}s: {}; use a shorter --seconds".format(
            rate, seconds, error))
    server, _ = serve.start(work, "rate{:g}".format(rate), prefill)
    try:
        observed = serve.timed_pass(server, requests)
    finally:
        server.stop()
    if observed.failed:
        raise SystemExit("rate {:g}: {} failed operations: {}".format(
            rate, observed.failed, observed.failures))
    ordered = [end - start for start, end, _ in sorted(observed.operations)]
    quarter = max(1, len(ordered) // 4)
    trend = statistics.median(ordered[-quarter:]) / statistics.median(ordered[:quarter])
    completed = observed.decided / observed.raw_elapsed
    return {
        "rate": rate,
        "completed": completed,
        "p50_ms": percentile(observed.raw_latencies, 0.50) * 1000.0,
        "p99_ms": percentile(observed.raw_latencies, 0.99) * 1000.0,
        "lag_p99_ms": percentile(observed.lateness, 0.99) * 1000.0,
        "trend": trend,
        "sustained": completed >= 0.98 * rate and trend < 2.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--rates", type=float, nargs="+", default=[50, 100, 150, 200])
    args = parser.parse_args(argv)
    expected = inputs.load_expected()
    work = os.path.join(ROOT, ".bench_work", "capacity-{}".format(os.getpid()))
    os.makedirs(work)
    best = None
    try:
        print("{:>8} {:>10} {:>9} {:>9} {:>11} {:>6}  sustained".format(
            "rate/s", "completed", "p50 ms", "p99 ms", "lag p99 ms", "trend"))
        for rate in args.rates:
            row = measure_rate(work, args.seed, args.seconds, rate, expected)
            print("{rate:8.1f} {completed:10.1f} {p50_ms:9.2f} {p99_ms:9.2f} "
                  "{lag_p99_ms:11.2f} {trend:6.2f}  {sustained}".format(**row), flush=True)
            if row["sustained"]:
                best = rate
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("highest sustained rate: {}".format("none" if best is None else "{:g}/s".format(best)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
