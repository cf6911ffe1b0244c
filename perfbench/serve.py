"""``serve``: an open loop of single-entailment requests against ``slp serve``.

The server is ``slp serve --jobs 2 --store DIR`` in a subprocess.  Set-up runs
a first server lifetime that proves and persists the *disk* problems, stops
it, starts the measured lifetime over the same store and warms its pool.

One client process sends requests at ``RATE`` requests per second, one every
``1 / RATE`` seconds, over at most two keep-alive connections, one thread
each.  ``RATE`` is a fixed share of the seed code's capacity on the
reference host (``capacity.py`` measures it).  Three request classes, one of
each in every three consecutive slots, in seeded order:

* ``new``: a problem never seen before, proved and then persisted;
* ``memory``: an alpha-renamed repeat of a problem this run asked at least
  ``REPEAT_AFTER_S`` earlier, answered from the in-memory cache;
* ``disk``: an alpha-renamed repeat of a problem the first lifetime
  persisted, answered from the store.  (Memory slots in the first
  ``REPEAT_AFTER_S``, with nothing to repeat yet, ask disk problems too.)

Problems are lseg-split chains (8..18 cells) and example-suite VCs cloned
x1..x2, all with distinct canonical forms.  The seed picks which problems are
new and which disk, with a fixed quota per (kind, size) for each, and which
earlier problem each memory slot repeats.  A request is timed from its due
time until the last response byte, so a stall delays the requests behind it.
The generator's own lag (send time past the later of the due time and the
moment a connection was free) is recorded; a run whose p99 lag exceeds
``LATENESS_SHARE`` of the run's p99 latency is invalid, not slow.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import inputs
import spans
from measure import Pass, Speed, percentile, probing, supported, tree_peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

JOBS = 2
CONNECTIONS = 2
#: The seed code's capacity on the reference host, in requests per second:
#: the highest rate ``capacity.py`` found sustained (200/s completed 200/s
#: with a flat backlog; 250/s completed 206/s while its backlog grew).
CAPACITY = 200.0
#: The share of it the benchmark offers.  At a quarter of capacity a cache hit
#: seldom waits behind a proof, and 20 s at the resulting 50 requests/s give
#: the 1000 samples p99 needs.
LOAD = 0.25
RATE = CAPACITY * LOAD
CLASSES = ("new", "memory", "disk")
#: A memory repeat only targets problems first asked this long before it.
REPEAT_AFTER_S = 1.0
#: Problems: chains of at most this many cells and VCs cloned at most this
#: often (a cold request takes 5-20 ms at the reference speed).  A request
#: that takes longer than two request spacings holds up the schedule on both
#: connections, and in the host's slow phases (up to ~2.5x) chains of 19-21
#: cells did: p99 then tripled.
MAX_CHAIN_CELLS = 18
MAX_VC_CLONES = 2
PREFILL_BATCH = 25
#: Speed probes on each CPU a set-up trial takes before and after its work.
SETUP_PROBES = 5
#: The generator's p99 lag may be at most this share of the run's p99
#: latency: the ``latency_ms_p99`` bound in BENCHMARK.json, beyond which the
#: generator alone could move that metric by more than the bound allows.
LATENESS_SHARE = 0.25

WARMUP = "wk_a |-> wk_b * wk_b |-> nil |- lseg(wk_a, nil)"
_ANNOUNCE = re.compile(r"listening on http://([0-9.]+):(\d+)")


class Request:
    __slots__ = ("due", "line", "verdict", "kind", "label")

    def __init__(self, due, line, verdict, kind, label):
        self.due, self.line, self.verdict, self.kind, self.label = due, line, verdict, kind, label


def plan(seed: int, seconds: float, expected: dict, rate: float = RATE):
    """``(prefill lines with verdicts, requests)`` for one run."""
    from repro.logic.printer import format_entailment

    rng = random.Random(seed)
    total = max(len(CLASSES), round(seconds * rate))
    dues = [number / rate for number in range(total)]
    slots: List[str] = []
    while len(slots) < total:
        slots.extend(rng.sample(CLASSES, len(CLASSES)))
    slots = [
        "disk" if kind == "memory" and due < REPEAT_AFTER_S else kind
        for kind, due in zip(slots[:total], dues)
    ]

    # Problems with distinct canonical forms (symmetric ones cannot be
    # cached), grouped by kind and size so every seed draws the same mix.
    groups: Dict[str, List[str]] = {}
    seen_keys = set()
    for pool in ("chain", "vc"):
        for entry in expected["pools"][pool]:
            key, canonical = entry[0], entry[4]
            size = int(key.split("/")[1 if pool == "chain" else 3])
            if size > (MAX_CHAIN_CELLS if pool == "chain" else MAX_VC_CLONES):
                continue
            if canonical and canonical not in seen_keys:
                seen_keys.add(canonical)
                groups.setdefault("{}/{}".format(pool, size), []).append(key)
    fresh = {"new": inputs.stratified_sample(rng, groups, slots.count("new"))}
    taken = set(fresh["new"])
    rest = {group: [key for key in keys if key not in taken] for group, keys in groups.items()}
    fresh["disk"] = inputs.stratified_sample(rng, rest, slots.count("disk"))
    picked = fresh["new"] + fresh["disk"]
    problems = dict(inputs.load_pool("chain", expected, [k for k in picked if k.startswith("chain/")]))
    problems.update(inputs.load_pool("vc", expected, [k for k in picked if k.startswith("vc/")]))
    fresh_iter = {kind: iter(keys) for kind, keys in fresh.items()}

    def line_of(item, tag: str) -> str:
        return format_entailment(inputs.alpha_renamed(item.entailment, tag))

    prefill, requests, asked = [], [], []  # asked: (due, item) of first asks
    for number, (due, kind) in enumerate(zip(dues, slots)):
        if kind == "memory":
            eligible = [item for first, item in asked if first <= due - REPEAT_AFTER_S]
            item = rng.choice(eligible)
        else:
            item = problems[next(fresh_iter[kind])]
            asked.append((due, item))
            if kind == "disk":
                prefill.append((line_of(item, "p{}".format(number)), item.verdict))
        tag = "{}{}".format(kind[0], number)
        requests.append(Request(due, line_of(item, tag), item.verdict, kind, item.id))
    return prefill, requests


class Server:
    """``slp serve`` (or the tracing launcher) as a subprocess."""

    def __init__(self, store: str, log: str, trace_dir: Optional[str] = None):
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        serve_args = ["--host", "127.0.0.1", "--port", "0", "--jobs", str(JOBS), "--store", store]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli", "serve"] + serve_args
        else:
            command = [sys.executable, os.path.join(HERE, "serve_launcher.py"), trace_dir] + serve_args
        self.log_path = log
        with open(log, "wb") as handle:
            self.process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=handle, env=env, cwd=ROOT
            )
        self.host, self.port = self._await_announcement()

    def _await_announcement(self):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                match = _ANNOUNCE.search(handle.read().decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("slp serve did not come up (see {})".format(self.log_path))

    def post(self, connection: http.client.HTTPConnection, lines: List[str]):
        body = json.dumps({"entailments": lines})
        connection.request("POST", "/prove", body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = response.read()
        return response.status, payload

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)


def _prove_all(server: Server, lines_with_verdicts, label: str) -> None:
    connection = server.connect()
    try:
        for start in range(0, len(lines_with_verdicts), PREFILL_BATCH):
            chunk = lines_with_verdicts[start:start + PREFILL_BATCH]
            status, payload = server.post(connection, [line for line, _ in chunk])
            if status != 200:
                raise RuntimeError("{}: HTTP {}".format(label, status))
            for (line, verdict), entry in zip(chunk, json.loads(payload)["results"]):
                if entry.get("status") != "ok" or entry.get("verdict") != verdict:
                    raise RuntimeError("{}: {} -> {}".format(label, line[:60], entry))
    finally:
        connection.close()


def start(work: str, name: str, prefill, trace_dir: Optional[str] = None):
    """Full set-up: prefill lifetime, then the measured lifetime, warmed.

    Returns ``(server, seconds)``.
    """
    store = os.path.join(work, name + ".store")
    started = time.perf_counter()
    first = Server(store, os.path.join(work, name + "-prefill.log"))
    try:
        _prove_all(first, prefill, "prefill")
    finally:
        first.stop()
    server = Server(store, os.path.join(work, name + ".log"), trace_dir)
    try:
        _prove_all(server, [(WARMUP, "valid")], "warm-up")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def timed_pass(server: Server, requests: List[Request], recorder: Optional[spans.Recorder] = None) -> Pass:
    """Drive the open loop; every response is checked against its verdict.

    Latencies are scaled to the reference speed by the probes of a
    ``measure.probing`` child that runs alongside.
    """
    observed = Pass()
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    t0 = 0.0  # the schedule's start, set once the probe child runs
    last_done = [t0]

    def client() -> None:
        connection = server.connect()
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                request = requests[index]
                picked = time.perf_counter()
                due = t0 + request.due
                if due > picked:
                    time.sleep(due - picked)
                sent = time.perf_counter()
                span = recorder.open("client", spans.request_id(request.line)) if recorder else None
                try:
                    status, payload = server.post(connection, [request.line])
                    entry = json.loads(payload)["results"][0] if status == 200 else None
                except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
                    status, entry = None, {"error": "{}: {}".format(type(error).__name__, error)}
                    connection.close()
                    connection = server.connect()
                done = time.perf_counter()
                if span is not None:
                    recorder.close(span)
                with lock:
                    observed.attempted += 1
                    observed.lateness.append(sent - max(due, picked))
                    last_done[0] = max(last_done[0], done)
                    if status != 200 or entry.get("status") != "ok":
                        observed.fail("{} {}: HTTP {} {}".format(request.kind, request.label, status, entry))
                    elif entry.get("verdict") != request.verdict:
                        observed.fail("{} {}: {} but expected {}".format(
                            request.kind, request.label, entry.get("verdict"), request.verdict))
                    else:
                        observed.record(due, done, bool(entry.get("from_cache")))
        finally:
            connection.close()

    speed = Speed()
    with probing(speed):
        # The child's interpreter start-up would otherwise delay the first sends.
        t0 = last_done[0] = time.perf_counter() + 0.2
        helpers = [threading.Thread(target=client) for _ in range(CONNECTIONS - 1)]
        for thread in helpers:
            thread.start()
        client()
        for thread in helpers:
            thread.join()
    observed.segment(t0, last_done[0])
    return observed.finish(speed, scale_elapsed=False)


def lateness_invalid(observed: Pass) -> Optional[str]:
    """Why the run is invalid (generator fell behind), or ``None``.

    Judged only when the run has enough requests for a p99 (the percentile
    rule): a short run's "p99" is its single worst request.
    """
    if not supported(len(observed.lateness), 0.99):
        return None
    lag = percentile(observed.lateness, 0.99)
    limit = LATENESS_SHARE * percentile(observed.raw_latencies or [0.0], 0.99)
    if lag > limit:
        return "generator p99 lateness {:.2f} ms exceeds {:.0%} of p99 latency ({:.2f} ms)".format(
            lag * 1000.0, LATENESS_SHARE, limit * 1000.0)
    return None
