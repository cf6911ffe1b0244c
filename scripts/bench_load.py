#!/usr/bin/env python
"""Load-test ``slp serve``: concurrent clients, cold vs warm store.

Boots the real server as a subprocess (ephemeral port, persistent store),
drives it with concurrent HTTP clients, and reports per-request
latency (p50/p99) and throughput for two phases:

- **cold**: a fresh store; every request is a distinct entailment the
  server has never seen, so each one pays real proving plus a write-through
  persist.
- **warm**: the server is stopped (SIGTERM, graceful drain) and restarted
  over the same store; every request is an *alpha-renamed* copy of a cold
  problem, so each one is answered from the disk store via the
  canonical-fingerprint cache — no proving at all.

The spread between the two is the point of running a persistent service:
the warm run must show a >=10x median-latency improvement (checked here,
recorded in the ``serve`` section of ``BENCH_saturation.json``).

``--smoke`` is the CI mode: one server, 50 concurrent requests (half
distinct, half alpha-renamed repeats), asserting zero failed requests and a
nonzero warm-hit count — no benchmark file is touched.  The server runs in
its own session; after the requests it is SIGKILLed, and the smoke fails if
any process of that session (a pool worker orphaned by the kill) still runs
2 s later.

``--overload`` is the chaos-under-load acceptance: offered load far above
capacity (more concurrent clients than the service will queue, each firing
multi-entailment batches back-to-back) against a server with a deliberately
small admission queue and a seeded 10% worker-kill fault plan
(``SLP_FAULT_PLAN``).  The gates are *robustness*, not throughput: zero
connection errors, every response a verdict / structured failure / ``429``
(+ ``Retry-After``) / ``503``, nonzero sheds, nonzero injected faults, and
p99 of the accepted requests within the deadline-derived bound.  Results
land in the ``serve_overload`` section of ``BENCH_saturation.json``
(``--overload --smoke`` gates without writing).

Usage::

    python scripts/bench_load.py                 # full bench, writes BENCH
    python scripts/bench_load.py --smoke         # CI smoke, exit 1 on failure
    python scripts/bench_load.py --overload      # chaos acceptance, writes BENCH
    python scripts/bench_load.py --overload --smoke   # CI chaos gate, no write
    python scripts/bench_load.py --requests 80 --clients 8 --jobs 2
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))

from kill_and_resume_smoke import ORPHAN_GRACE_S, kill_session_leader  # noqa: E402
from repro.core.atomicio import atomic_write_json  # noqa: E402
from repro.core.faults import FAULT_PLAN_ENV, FaultPlan  # noqa: E402
from repro.logic.parser import parse_entailment  # noqa: E402
from repro.logic.printer import format_entailment  # noqa: E402
from repro.logic.terms import make_const  # noqa: E402

_ANNOUNCE = re.compile(r"listening on http://([0-9.]+):(\d+)")


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


def base_problem(index: int) -> str:
    """One distinct, moderately hard, *valid* entailment per index.

    Points-to chains of varying length whose RHS splits into two list
    segments at a varying point: distinct canonical fingerprints (length and
    split point both vary the shape), on the order of 0.1s of saturation
    each — big enough that a warm hit is a clearly different regime even
    under client-side queueing, small enough that a bench run stays
    interactive.
    """
    length = 64 + (index % 16)
    names = ["v{}_{}".format(index, j) for j in range(length)]
    cells = ["{} |-> {}".format(names[j], names[j + 1]) for j in range(length - 1)]
    cells.append("{} |-> nil".format(names[-1]))
    split = names[1 + (index % (length - 2))]
    return "{} |- lseg({}, {}) * lseg({}, nil)".format(
        " * ".join(cells), names[0], split, split
    )


def alpha_renamed(line: str, tag: str) -> str:
    """The same problem under a fresh constant vocabulary."""
    entailment = parse_entailment(line)
    renamed = entailment.rename(
        {
            constant: make_const("{}_{}".format(tag, constant.name))
            for constant in entailment.constants()
            if not constant.is_nil
        }
    )
    return format_entailment(renamed)


# ---------------------------------------------------------------------------
# Server subprocess management
# ---------------------------------------------------------------------------


class Server:
    """``slp serve`` as a child process with a scraped ephemeral port."""

    def __init__(
        self,
        store: str,
        jobs: int,
        timeout: float,
        extra_args=(),
        extra_env=None,
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if extra_env:
            env.update(extra_env)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--jobs",
                str(jobs),
                "--store",
                store,
                "--timeout",
                str(timeout),
            ]
            + list(extra_args),
            stderr=subprocess.PIPE,
            env=env,
            cwd=REPO_ROOT,
            start_new_session=True,
        )
        self.base = self._scrape_address()

    def _scrape_address(self) -> str:
        deadline = time.monotonic() + 30
        assert self.process.stderr is not None
        while time.monotonic() < deadline:
            line = self.process.stderr.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(
                    "server exited before announcing its port (rc={})".format(
                        self.process.poll()
                    )
                )
            match = _ANNOUNCE.search(line)
            if match:
                # Keep draining stderr so the child never blocks on the pipe.
                threading.Thread(
                    target=self.process.stderr.read, daemon=True
                ).start()
                return "http://{}:{}".format(match.group(1), match.group(2))
        raise RuntimeError("timed out waiting for the server announcement")

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base + "/stats", timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Client pool
# ---------------------------------------------------------------------------


def run_phase(base: str, lines, clients: int):
    """Fire one request per line from a pool of concurrent clients.

    Returns ``(latencies_seconds, wall_seconds, failures)`` where a failure
    is any transport error, non-200, or per-line status other than ``ok``.
    """
    latencies = []
    failures = []
    lock = threading.Lock()
    queue = list(enumerate(lines))

    def worker() -> None:
        while True:
            with lock:
                if not queue:
                    return
                index, line = queue.pop()
            payload = json.dumps({"entailment": line}).encode("utf-8")
            request = urllib.request.Request(
                base + "/prove",
                data=payload,
                headers={"Content-Type": "application/json"},
            )
            started = time.perf_counter()
            try:
                with urllib.request.urlopen(request, timeout=120) as response:
                    body = json.loads(response.read())
                elapsed = time.perf_counter() - started
                entry = body["results"][0]
                if entry.get("status") != "ok":
                    raise RuntimeError("request {}: {}".format(index, entry))
            except Exception as error:  # noqa: BLE001 - tallied, not fatal
                with lock:
                    failures.append(str(error))
                continue
            with lock:
                latencies.append(elapsed)

    wall_started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, time.perf_counter() - wall_started, failures


def overload_problems(count: int):
    """``count`` small valid entailments with *distinct canonical forms*.

    Alpha-renaming is not enough — the canonical-fingerprint cache exists to
    see through it, and a workload of alpha-variants would be absorbed by
    the cache instead of reaching the pool.  Structural distinctness comes
    from enumerating (chain length, RHS split point, extra disequalities):
    each combination is a different shape, so every line costs real proving.
    """
    descriptors = []
    for extras in range(4):
        for length in range(8, 24):
            for split in range(1, length - 1):
                descriptors.append((length, split, extras))
    if count > len(descriptors):
        raise ValueError(
            "only {} structurally distinct overload problems available; "
            "asked for {} (lower --requests)".format(len(descriptors), count)
        )
    lines = []
    for k, (length, split, extras) in enumerate(descriptors[:count]):
        names = ["p{}_{}".format(k, j) for j in range(length)]
        cells = ["{} |-> {}".format(names[j], names[j + 1]) for j in range(length - 1)]
        cells.append("{} |-> nil".format(names[-1]))
        pure = []
        if extras & 1:
            pure.append("{} != {}".format(names[0], names[-1]))
        if extras & 2:
            pure.append("{} != {}".format(names[1], names[-1]))
        lhs = " * ".join(cells + pure)
        lines.append(
            "{} |- lseg({}, {}) * lseg({}, nil)".format(
                lhs, names[0], names[split], names[split]
            )
        )
    return lines


def kill_plan(batch_size: int, rate: float = 0.1) -> FaultPlan:
    """A seeded transient worker-kill plan verified to hit the batch shape.

    The fault decision is a pure function of ``(seed, batch index)``, so a
    seed is chosen (deterministically) such that at least one index of a
    ``batch_size``-entailment request is targeted — a seed whose targets all
    fall outside ``range(batch_size)`` would silently test nothing.
    ``times=1`` makes every kill transient: the retry must recover the
    verdict, so chaos costs latency, never answers.
    """
    for seed in range(1, 1000):
        plan = FaultPlan.seeded(seed=seed, rate=rate, kinds=("exit",), times=1)
        if plan.injected_indices(batch_size):
            return plan
    raise RuntimeError("no seed under 1000 targets a batch of {}".format(batch_size))


def run_overload_phase(base: str, batches, clients: int, request_timeout: float):
    """Fire multi-entailment batches from far more clients than capacity.

    Every response is classified: ``accepted`` (HTTP 200, every per-line
    status structured), ``shed`` (429 with a Retry-After header),
    ``unavailable`` (503), or — the failure classes the gates forbid —
    ``unstructured`` (anything else that came back over a working
    connection) and ``connection_errors`` (the socket itself failed).
    """
    lock = threading.Lock()
    work = list(enumerate(batches))
    accepted_latencies = []
    tally = {
        "accepted": 0,
        "shed": 0,
        "unavailable": 0,
        "unstructured": [],
        "connection_errors": [],
        "missing_retry_after": 0,
        "structured_failures": 0,
    }
    allowed_line_statuses = {"ok", "timeout", "oom", "crashed"}

    def worker() -> None:
        while True:
            with lock:
                if not work:
                    return
                request_id, lines = work.pop()
            payload = json.dumps(
                {"entailments": lines, "timeout": request_timeout}
            ).encode("utf-8")
            request = urllib.request.Request(
                base + "/prove",
                data=payload,
                headers={"Content-Type": "application/json"},
            )
            started = time.perf_counter()
            try:
                with urllib.request.urlopen(request, timeout=120) as response:
                    body = json.loads(response.read())
                elapsed = time.perf_counter() - started
            except urllib.error.HTTPError as refusal:
                try:
                    detail = json.loads(refusal.read())
                except Exception:
                    detail = None
                with lock:
                    if refusal.code == 429 and isinstance(detail, dict):
                        tally["shed"] += 1
                        if refusal.headers.get("Retry-After") is None:
                            tally["missing_retry_after"] += 1
                    elif refusal.code == 503 and isinstance(detail, dict):
                        tally["unavailable"] += 1
                    else:
                        tally["unstructured"].append(
                            "request {}: HTTP {} body {!r}".format(
                                request_id, refusal.code, detail
                            )
                        )
                continue
            except Exception as error:  # URLError, socket errors, bad JSON
                with lock:
                    tally["connection_errors"].append(
                        "request {}: {}: {}".format(request_id, type(error).__name__, error)
                    )
                continue
            statuses = [entry.get("status") for entry in body.get("results", [])]
            with lock:
                if len(statuses) == len(lines) and all(
                    status in allowed_line_statuses for status in statuses
                ):
                    tally["accepted"] += 1
                    tally["structured_failures"] += sum(
                        1 for status in statuses if status != "ok"
                    )
                    accepted_latencies.append(elapsed)
                else:
                    tally["unstructured"].append(
                        "request {}: statuses {}".format(request_id, statuses)
                    )

    wall_started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return accepted_latencies, time.perf_counter() - wall_started, tally


def overload(args) -> int:
    """Chaos-under-load acceptance; ``--smoke`` gates without a BENCH write."""
    batch_size = 10
    max_queue_requests = 4
    lanes = min(args.jobs, 4)  # the server's dispatcher lanes
    capacity = lanes + max_queue_requests
    clients = max(args.clients, 4 * capacity)
    requests = args.requests
    request_timeout = min(args.timeout, 20.0)
    ratio = clients / capacity
    plan = kill_plan(batch_size)
    targeted = plan.injected_indices(batch_size)
    lines = overload_problems(requests * batch_size)
    batches = [
        lines[request_id * batch_size:(request_id + 1) * batch_size]
        for request_id in range(requests)
    ]
    print(
        "[bench_load --overload] {} batches x {} entailments, {} clients vs "
        "capacity {} ({} lanes + {} queue slots) = {:.1f}x offered load; "
        "kill plan seed {} targets indices {} of each batch".format(
            requests, batch_size, clients, capacity, lanes, max_queue_requests,
            ratio, plan.seed, targeted,
        )
    )
    with tempfile.TemporaryDirectory() as scratch:
        with Server(
            os.path.join(scratch, "proofs.store"),
            args.jobs,
            args.timeout,
            extra_args=[
                "--max-queue-requests", str(max_queue_requests),
                "--max-queue-entailments", str(max_queue_requests * batch_size * 4),
            ],
            extra_env={FAULT_PLAN_ENV: plan.to_env()},
        ) as server:
            latencies, wall, tally = run_overload_phase(
                server.base, batches, clients, request_timeout
            )
            stats = server.stats()

    pool = stats["pool"]
    split = {
        "queue_wait_p50_ms": stats["queue_wait"].get("p50_ms", 0.0),
        "queue_wait_p99_ms": stats["queue_wait"].get("p99_ms", 0.0),
        "execution_p50_ms": stats["execution"].get("p50_ms", 0.0),
        "execution_p99_ms": stats["execution"].get("p99_ms", 0.0),
    }
    print(
        "[bench_load --overload] accepted {} / shed {} / unavailable {} of {} "
        "({} structured per-line failures, {} expired in queue) in {:.1f}s".format(
            tally["accepted"], tally["shed"], tally["unavailable"], requests,
            tally["structured_failures"], stats["expired_in_queue"], wall,
        )
    )
    print(
        "[bench_load --overload] chaos: {} injected faults, {} retries, "
        "{} respawned workers".format(
            pool["injected_faults"], pool["retried"], pool["respawned_workers"]
        )
    )
    print(
        "[bench_load --overload] latency split: queue-wait p50 {:.1f} ms / "
        "p99 {:.1f} ms, execution p50 {:.1f} ms / p99 {:.1f} ms".format(
            split["queue_wait_p50_ms"], split["queue_wait_p99_ms"],
            split["execution_p50_ms"], split["execution_p99_ms"],
        )
    )

    failures = []
    if tally["connection_errors"]:
        failures.append(
            "{} connection errors (first: {})".format(
                len(tally["connection_errors"]), tally["connection_errors"][0]
            )
        )
    if tally["unstructured"]:
        failures.append(
            "{} unstructured responses (first: {})".format(
                len(tally["unstructured"]), tally["unstructured"][0]
            )
        )
    if tally["missing_retry_after"]:
        failures.append(
            "{} 429s without Retry-After".format(tally["missing_retry_after"])
        )
    answered = tally["accepted"] + tally["shed"] + tally["unavailable"]
    if answered != requests:
        failures.append(
            "accounting leak: accepted+shed+unavailable = {} != {} submitted".format(
                answered, requests
            )
        )
    if tally["shed"] == 0:
        failures.append("no request was shed — the offered load never exceeded capacity")
    if tally["accepted"] == 0:
        failures.append("no request was accepted — nothing was actually measured")
    if pool["injected_faults"] == 0:
        failures.append("the kill plan never fired (injected_faults == 0)")
    p99_bound = 2.0 * request_timeout
    accepted = summarize(latencies, wall) if latencies else {}
    if latencies and accepted["p99_ms"] > p99_bound * 1000.0:
        failures.append(
            "accepted p99 {} ms exceeds the {:.0f} ms bound".format(
                accepted["p99_ms"], p99_bound * 1000.0
            )
        )
    if not args.smoke and ratio < 4.0:
        failures.append("offered load {:.1f}x is below the 4x acceptance bar".format(ratio))

    if failures:
        for failure in failures:
            print("  GATE FAILED: {}".format(failure), file=sys.stderr)
        return 1

    if not args.smoke:
        section = {
            "jobs": args.jobs,
            "lanes": lanes,
            "clients": clients,
            "capacity": capacity,
            "offered_ratio": round(ratio, 1),
            "batch_size": batch_size,
            "requests": requests,
            "request_timeout_seconds": request_timeout,
            "fault_plan": {"seed": plan.seed, "rate": plan.rate, "kinds": list(plan.kinds),
                           "times": plan.times, "targets_per_batch": targeted},
            "accepted": dict(accepted, structured_failures=tally["structured_failures"]),
            "shed": tally["shed"],
            "unavailable": tally["unavailable"],
            "expired_in_queue": stats["expired_in_queue"],
            "connection_errors": 0,
            "unstructured_responses": 0,
            "injected_faults": pool["injected_faults"],
            "respawned_workers": pool["respawned_workers"],
            "latency_split": split,
            "notes": (
                "offered load far above capacity (clients vs lanes + queue slots) "
                "with a seeded transient worker-kill plan; gates: zero connection "
                "errors, every response a verdict / structured failure / 429+"
                "Retry-After / 503, accepted p99 within 2x the request timeout."
            ),
        }
        out = args.out or os.path.join(REPO_ROOT, "BENCH_saturation.json")
        payload = {}
        if os.path.exists(out):
            try:
                with open(out) as handle:
                    payload = json.load(handle)
            except (ValueError, OSError):
                payload = {}
        payload["serve_overload"] = section
        atomic_write_json(out, payload)
        print("[bench_load --overload] wrote serve_overload section to {}".format(out))
    print("[bench_load --overload] all gates passed")
    return 0


def summarize(latencies, wall_seconds: float) -> dict:
    ordered = sorted(latencies)
    return {
        "requests": len(ordered),
        "p50_ms": round(statistics.median(ordered) * 1000.0, 3),
        "p99_ms": round(ordered[max(0, int(round(0.99 * len(ordered))) - 1)] * 1000.0, 3),
        "mean_ms": round(statistics.fmean(ordered) * 1000.0, 3),
        "throughput_rps": round(len(ordered) / wall_seconds, 2),
        "wall_seconds": round(wall_seconds, 3),
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def smoke(args) -> int:
    """CI gate: 50 concurrent requests, zero failures, nonzero warm hits."""
    total = args.requests
    distinct = total // 2
    # Smoke problems are deliberately small: the gate is about plumbing
    # (concurrency, dedup, cache, shutdown), not prover throughput.
    bases = [
        "s{0} |-> t{0} * t{0} |-> nil |- lseg(s{0}, nil)".format(i) for i in range(distinct)
    ]
    repeats = [alpha_renamed(line, "w{}".format(i)) for i, line in enumerate(bases)]
    lines = bases + repeats + bases[: total - 2 * distinct]
    with tempfile.TemporaryDirectory() as scratch:
        with Server(
            os.path.join(scratch, "proofs.store"), args.jobs, args.timeout
        ) as server:
            latencies, wall, failures = run_phase(server.base, lines, args.clients)
            stats = server.stats()
            orphans = kill_session_leader(server.process)
    warm_hits = stats["cache"]["hits"] + stats["cache"]["deduplicated"]
    print(
        "[bench_load --smoke] {} requests, {} failures, {} warm hits, {:.1f} rps".format(
            len(lines), len(failures), warm_hits, len(latencies) / wall
        )
    )
    if failures:
        for failure in failures[:5]:
            print("  failure: {}".format(failure), file=sys.stderr)
        return 1
    if len(latencies) != len(lines):
        print("  lost requests: {} != {}".format(len(latencies), len(lines)), file=sys.stderr)
        return 1
    if warm_hits == 0:
        print("  expected nonzero warm hits on repeated workload", file=sys.stderr)
        return 1
    if orphans:
        print("  processes {} outlived the SIGKILLed server by {:g} s".format(
            orphans, ORPHAN_GRACE_S), file=sys.stderr)
        return 1
    return 0


def bench(args) -> int:
    """Cold vs warm phases against a persistent store."""
    cold_lines = [base_problem(index) for index in range(args.requests)]
    warm_lines = [
        alpha_renamed(line, "warm{}".format(index))
        for index, line in enumerate(cold_lines)
    ]
    with tempfile.TemporaryDirectory() as scratch:
        store = os.path.join(scratch, "proofs.store")
        print("[bench_load] cold phase: {} distinct problems, {} clients".format(
            len(cold_lines), args.clients))
        with Server(store, args.jobs, args.timeout) as server:
            cold_latencies, cold_wall, cold_failures = run_phase(
                server.base, cold_lines, args.clients
            )
            cold_stats = server.stats()
        print("[bench_load] warm phase: restarted server, alpha-renamed repeats")
        with Server(store, args.jobs, args.timeout) as server:
            warm_latencies, warm_wall, warm_failures = run_phase(
                server.base, warm_lines, args.clients
            )
            warm_stats = server.stats()
    if cold_failures or warm_failures:
        for failure in (cold_failures + warm_failures)[:5]:
            print("  failure: {}".format(failure), file=sys.stderr)
        return 1

    cold = summarize(cold_latencies, cold_wall)
    warm = summarize(warm_latencies, warm_wall)
    warm["disk_hits"] = warm_stats["cache"]["disk_hits"]
    speedup = cold["p50_ms"] / warm["p50_ms"] if warm["p50_ms"] else float("inf")
    section = {
        "jobs": args.jobs,
        "clients": args.clients,
        "cold": cold,
        "warm": warm,
        "median_speedup": round(speedup, 1),
        "cold_store_appends": cold_stats.get("store", {}).get("appends", 0),
        "notes": (
            "cold = fresh store, every request a distinct entailment "
            "(real saturation + write-through persist); warm = server restarted "
            "over the same store, every request an alpha-renamed repeat answered "
            "from disk via the canonical-fingerprint cache. Latency is "
            "client-observed per HTTP request at the given concurrency."
        ),
    }
    print(
        "[bench_load] cold p50 {} ms / warm p50 {} ms -> {:.1f}x median speedup "
        "({} disk hits)".format(
            cold["p50_ms"], warm["p50_ms"], speedup, warm["disk_hits"]
        )
    )

    out = args.out or os.path.join(REPO_ROOT, "BENCH_saturation.json")
    payload = {}
    if os.path.exists(out):
        try:
            with open(out) as handle:
                payload = json.load(handle)
        except (ValueError, OSError):
            payload = {}
    payload["serve"] = section
    atomic_write_json(out, payload)
    print("[bench_load] wrote serve section to {}".format(out))

    if warm["disk_hits"] == 0:
        print("warm phase never touched the disk store", file=sys.stderr)
        return 1
    if speedup < 10.0:
        print(
            "warm median speedup {:.1f}x is below the 10x bar".format(speedup),
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI smoke mode (no BENCH write)")
    parser.add_argument("--overload", action="store_true",
                        help="chaos-under-load acceptance (small admission queue,"
                        " seeded worker-kill plan, robustness gates)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per phase (default: 40 bench, 50 smoke,"
                        " 48 overload, 24 overload smoke)")
    parser.add_argument("--clients", type=int, default=8, help="concurrent clients (default 8)")
    parser.add_argument("--jobs", type=int, default=2, help="server worker processes (default 2)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="server per-entailment budget ceiling (default 30)")
    parser.add_argument("--out", default=None,
                        help="benchmark JSON to update (default BENCH_saturation.json)")
    args = parser.parse_args(argv)
    if args.overload:
        if args.requests is None:
            args.requests = 24 if args.smoke else 48
        return overload(args)
    if args.requests is None:
        args.requests = 50 if args.smoke else 40
    return smoke(args) if args.smoke else bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
