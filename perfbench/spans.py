"""Out-of-program tracing: spans around the public calls into each layer.

:func:`install` replaces the layer entry points listed in ``LAYERS`` with
wrappers that record a span per call.  ``core/prover.py`` imports its layers
with ``from ... import``, so those are replaced in ``repro.core.prover``'s
namespace; methods are replaced on their classes.  Worker processes forked
after :func:`install` inherit the wrappers.

Each process keeps its spans in memory (id, name, start, end, parent,
request id, counts) and appends them to its own ``spans-<pid>.jsonl`` in the
trace directory after every task.  Times are ``time.perf_counter()``, which
is ``CLOCK_MONOTONIC`` on Linux and so comparable across processes of one
host.  :func:`load` merges the files and :func:`layer_metrics` turns the
merged spans into the per-layer metrics; a span's *self* time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import threading
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from measure import percentile

#: Per-layer metric -> (unit, better, end-to-end metric it should move).
#: "nothing" marks a layer predicted to move no end-to-end metric.
LAYERS: Dict[str, Tuple[str, str, str]] = {
    "prover.self_s": ("s", "lower", "table1 throughput_per_s"),
    "prover.iterations": ("count", "lower", "table1 throughput_per_s"),
    "cnf.self_s": ("s", "lower", "nothing"),
    "saturate.self_s": ("s", "lower", "table1 throughput_per_s, latency_ms_p99"),
    "is_known.self_s": ("s", "lower", "table1 throughput_per_s, latency_ms_p99"),
    "generated_clauses": ("count", "lower", "table1 throughput_per_s, latency_ms_p99"),
    "model.self_s": ("s", "lower", "table1 latency_ms_p50"),
    "model.calls": ("count", "lower", "table1 latency_ms_p50"),
    "normalize.self_s": ("s", "lower", "batch throughput_per_s"),
    "normalize.calls": ("count", "lower", "batch throughput_per_s"),
    "wellformedness.self_s": ("s", "lower", "batch throughput_per_s"),
    "wellformedness.fresh_ratio": ("fraction", "higher", "batch throughput_per_s"),
    "unfold.self_s": ("s", "lower", "batch throughput_per_s"),
    "unfold.success_ratio": ("fraction", "higher", "batch throughput_per_s"),
    "counterexample.self_s": ("s", "lower", "serve miss_latency_ms_p50 (small)"),
    "counterexample.calls": ("count", "lower", "serve miss_latency_ms_p50 (small)"),
    "canonical.self_s": ("s", "lower", "batch throughput_per_s, latency_ms_p50; serve hit_latency_ms_p50"),
    "canonical.calls": ("count", "lower", "batch throughput_per_s, latency_ms_p50; serve hit_latency_ms_p50"),
    "canonical.keyed_ratio": ("fraction", "higher", "batch throughput_per_s, latency_ms_p50; serve hit_latency_ms_p50"),
    "cache.lookup_self_s": ("s", "lower", "serve hit_latency_ms_p50"),
    "cache.store_self_s": ("s", "lower", "serve hit_latency_ms_p50"),
    "cache.hit_ratio": ("fraction", "higher", "serve hit_latency_ms_p50"),
    "cache.disk_hit_ratio": ("fraction", "higher", "serve hit_latency_ms_p50"),
    "store.get_self_s": ("s", "lower", "serve miss_latency_ms_p50"),
    "store.put_self_s": ("s", "lower", "serve miss_latency_ms_p50"),
    "store.refreshes": ("count", "lower", "serve miss_latency_ms_p50"),
    "batch.self_s": ("s", "lower", "batch throughput_per_s"),
    "batch.deduplicated": ("count", "higher", "batch throughput_per_s"),
    "pool.tasks": ("count", "lower", "batch throughput_per_s; serve miss_latency_ms_p50"),
    "pool.dispatch_s": ("s", "lower", "batch throughput_per_s; serve miss_latency_ms_p50"),
    "pool.retried": ("count", "lower", "batch throughput_per_s; serve miss_latency_ms_p50"),
    "service.queue_wait_ms_p99": ("ms", "lower", "serve latency_ms_p99"),
    "service.execution_ms_p50": ("ms", "lower", "serve latency_ms_p99"),
    "http.self_ms_p50": ("ms", "lower", "serve latency_ms_p50"),
    "parser.self_s": ("s", "lower", "serve latency_ms_p50"),
}


_PROVING = (
    "prover.self_s", "prover.iterations", "cnf.self_s", "saturate.self_s", "is_known.self_s",
    "generated_clauses", "model.self_s", "model.calls", "normalize.self_s", "normalize.calls",
    "wellformedness.self_s", "counterexample.self_s", "counterexample.calls",
)
_CACHING = (
    "unfold.self_s", "unfold.success_ratio", "canonical.self_s", "canonical.calls",
    "canonical.keyed_ratio", "cache.lookup_self_s", "cache.store_self_s", "cache.hit_ratio",
    "batch.self_s", "pool.tasks", "pool.dispatch_s",
)
#: Per workload, the ``LAYERS`` metrics of the layers it runs.  A traced run
#: in which one of these reads 0 has lost spans (a wrapper that no longer
#: fires, or a join between processes that no longer matches) and fails.
#: ``pool.retried`` is left out (0 while no worker fails), and so are
#: ``store.refreshes`` (0 while no other process writes the store) and
#: ``wellformedness.fresh_ratio`` (0 is a legitimate outcome).
RUNS: Dict[str, Tuple[str, ...]] = {
    "table1": _PROVING,
    "batch": _PROVING + _CACHING + ("batch.deduplicated",),
    "serve": _PROVING + _CACHING + (
        "cache.disk_hit_ratio", "store.get_self_s", "store.put_self_s",
        "service.queue_wait_ms_p99", "service.execution_ms_p50", "http.self_ms_p50",
        "parser.self_s",
    ),
}


def request_id(text: str) -> str:
    """The id shared by every span of one request: a digest of its text."""
    return "{:08x}".format(zlib.crc32(text.encode("utf-8")))


class Recorder:
    """Per-process span store.  Forked children start empty and write their
    own file (``os.register_at_fork``)."""

    def __init__(self, directory: str, keyed: bool = False, flush_per_task: bool = False):
        self.directory = directory
        #: Give prover spans the request id of their entailment's text, so
        #: worker spans can be matched to the dispatch that caused them.
        self.keyed = keyed
        #: Append to the file after every top-level ``Prover.prove`` and
        #: every service request (worker and server processes).
        self.flush_per_task = flush_per_task
        self.rid_by_object: Dict[int, str] = {}
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._closed: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.rid_by_object = {}

    # -- the per-thread stack -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_rid(self) -> Optional[str]:
        stack = self._stack()
        if stack:
            return stack[-1][5]
        return getattr(self._local, "rid", None)

    def set_rid(self, rid: Optional[str]) -> None:
        """The request id spans opened on this thread inherit at top level."""
        self._local.rid = rid

    @property
    def depth(self) -> int:
        return len(self._stack())

    # -- spans ----------------------------------------------------------------
    def open(self, name: str, rid: Optional[str] = None) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span = [next(self._ids), name, time.perf_counter(), None, parent,
                rid if rid is not None else self.current_rid, None]
        stack.append(span)
        return span

    def close(self, span: list, attrs: Optional[dict] = None) -> None:
        span[3] = time.perf_counter()
        if attrs:
            span[6] = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._closed.append(span)

    def detached(self, name: str, rid: Optional[str] = None, attrs: Optional[dict] = None) -> list:
        """A span that another thread ends (:meth:`finish`); its parent is
        the span open on the calling thread."""
        stack = self._stack()
        return [next(self._ids), name, time.perf_counter(), None,
                stack[-1][0] if stack else None,
                rid if rid is not None else self.current_rid, attrs]

    def finish(self, span: list, attrs: Optional[dict] = None) -> None:
        span[3] = time.perf_counter()
        if attrs:
            span[6] = dict(span[6] or {}, **attrs)
        with self._lock:
            self._closed.append(span)

    def event(self, name: str, attrs: dict) -> None:
        now = time.perf_counter()
        stack = self._stack()
        span = [next(self._ids), name, now, now, stack[-1][0] if stack else None,
                self.current_rid, attrs]
        with self._lock:
            self._closed.append(span)

    def flush(self) -> None:
        with self._lock:
            batch, self._closed = self._closed, []
        if not batch:
            return
        path = os.path.join(self.directory, "spans-{}.jsonl".format(self.pid))
        with open(path, "a") as handle:
            handle.write("".join(json.dumps(span) + "\n" for span in batch))


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _plain(recorder: Recorder, name: str, fn: Callable,
           attrs_of: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(span, {"error": 1})
            raise
        recorder.close(span, attrs_of(args, result) if attrs_of is not None else None)
        return result

    return wrapper


def _prover_stats(statistics) -> dict:
    return {
        "iterations": statistics.iterations,
        "generated_clauses": statistics.generated_clauses,
        "wf_fresh": statistics.wellformedness_consequences,
    }


def _wrap_prove(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def prove(self, entailment):
        rid = request_id(str(entailment)) if recorder.keyed else None
        span = recorder.open("prover", rid)
        try:
            result = fn(self, entailment)
        except BaseException as error:
            statistics = getattr(error, "statistics", None)
            attrs = _prover_stats(statistics) if statistics is not None else {}
            recorder.close(span, dict(attrs, error=1))
            raise
        recorder.close(span, _prover_stats(result.statistics))
        if recorder.flush_per_task and recorder.depth == 0:
            recorder.flush()
        return result

    return prove


def _wrap_is_known(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def is_known(self, clause):
        derived = getattr(recorder._local, "after_unfold", False)
        recorder._local.after_unfold = False
        span = recorder.open("is_known")
        known = fn(self, clause)
        recorder.close(span, {"kept": int(not known), "derived": int(derived)})
        return known

    return is_known


def _wrap_unfold(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def unfold(*args, **kwargs):
        span = recorder.open("unfold")
        outcome = fn(*args, **kwargs)
        recorder.close(span, {"success": int(bool(outcome.success))})
        # The prover checks a successful unfolding's derived clause with the
        # very next ``is_known``; that check is not a well-formedness one.
        recorder._local.after_unfold = bool(outcome.success)
        return outcome

    return unfold


def _wrap_wellformedness(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def well_formedness_consequences(clause):
        span = recorder.open("wellformedness")
        produced = tuple(fn(clause))  # consume inside the span
        recorder.close(span, {"produced": len(produced)})
        return produced

    return well_formedness_consequences


def _wrap_lookup(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def lookup(self, entailment, canonical=None):
        span = recorder.open("cache.lookup")
        disk_before = self.disk_hits
        result = fn(self, entailment, canonical)
        recorder.close(span, {"hit": int(result is not None),
                              "disk": self.disk_hits - disk_before})
        return result

    return lookup


def _wrap_store_call(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def call(self, *args, **kwargs):
        span = recorder.open(name)
        before = self.statistics.refreshes
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder.close(span, {"refreshes": self.statistics.refreshes - before})

    return call


def _wrap_iter_results(recorder: Recorder, fn: Callable) -> Callable:
    """Each resumption of the generator is one ``batch`` span fragment, so
    time the caller spends between yields is not charged to the layer."""

    @functools.wraps(fn)
    def iter_results(self, entailments, *args, **kwargs):
        batch = entailments if isinstance(entailments, list) else list(entailments)
        rid = recorder.rid_by_object.get(id(batch[0])) if batch else None
        if rid is None:
            rid = recorder.current_rid
        inner = fn(self, batch, *args, **kwargs)
        deduplicated_before = self.statistics.deduplicated
        first = True
        while True:
            previous = getattr(recorder._local, "rid", None)
            recorder.set_rid(rid)
            span = recorder.open("batch", rid)
            try:
                item = next(inner)
            except StopIteration:
                recorder.close(span, {"deduplicated": self.statistics.deduplicated
                                      - deduplicated_before, "first": int(first)})
                recorder.set_rid(previous)
                return
            recorder.close(span, {"first": 1} if first else None)
            recorder.set_rid(previous)
            first = False
            yield item

    return iter_results


def _wrap_pool_run(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def run(self, payloads):
        tasks = list(payloads)
        keys = [request_id(str(payload[1])) for payload in tasks]
        started = time.perf_counter()
        retried_before = self.retried
        inner = fn(self, tasks)
        while True:
            span = recorder.open("pool.run")
            try:
                position, outcome = next(inner)
            except StopIteration:
                recorder.close(span, {"retried": self.retried - retried_before})
                return
            recorder.event("pool.result", {"key": keys[position], "since": started})
            recorder.close(span)
            yield position, outcome

    return run


def _wrap_pool_submit(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def submit(self, payload, deliver, priority=0):
        span = recorder.detached("pool.task", attrs={"key": request_id(str(payload[1]))})

        def delivered(outcome):
            recorder.finish(span, {"retried": self.retried})
            deliver(outcome)

        return fn(self, payload, delivered, priority)

    return submit


def _wrap_service_submit(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def submit(self, entailments, *args, **kwargs):
        batch = list(entailments)
        rid = recorder.rid_by_object.get(id(batch[0])) if batch else None
        span = recorder.detached("service", rid=rid)
        future = fn(self, batch, *args, **kwargs)

        def resolved(_future):
            recorder.finish(span)
            for entailment in batch:
                recorder.rid_by_object.pop(id(entailment), None)
            if recorder.flush_per_task:
                recorder.flush()

        future.add_done_callback(resolved)
        return future

    return submit


def _wrap_parse(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def parse_entailment(text, *args, **kwargs):
        rid = request_id(text)
        span = recorder.open("parser", rid)
        try:
            result = fn(text, *args, **kwargs)
        finally:
            recorder.close(span)
        recorder.rid_by_object[id(result)] = rid
        return result

    return parse_entailment


class Installation:
    """The wrappers currently in place; :meth:`uninstall` restores the originals."""

    def __init__(self, patches: List[Tuple[object, str, object]]):
        self._patches = patches

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []


def install(recorder: Recorder) -> Installation:
    """Wrap every layer entry point of ``LAYERS``' table; returns the handle."""
    import repro.core.prover as prover_module
    import repro.server.http as http_module
    from repro.core.batch import BatchProver
    from repro.core.cache import ProofCache
    from repro.core.prover import Prover
    from repro.core.store import ProofStore
    from repro.core.supervisor import SupervisedPool
    from repro.server.service import ProofService
    from repro.superposition.model import IncrementalModelGenerator
    from repro.superposition.saturation import SaturationEngine

    patches: List[Tuple[object, str, object]] = []

    def patch(owner, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        patches.append((owner, name, original))
        setattr(owner, name, make(original))

    patch(Prover, "prove", lambda fn: _wrap_prove(recorder, fn))
    patch(prover_module, "cnf", lambda fn: _plain(recorder, "cnf", fn))
    patch(SaturationEngine, "saturate", lambda fn: _plain(recorder, "saturate", fn))
    patch(SaturationEngine, "add_clauses", lambda fn: _plain(recorder, "saturate", fn))
    patch(SaturationEngine, "is_known", lambda fn: _wrap_is_known(recorder, fn))
    patch(IncrementalModelGenerator, "model_for_engine",
          lambda fn: _plain(recorder, "model", fn))
    patch(prover_module, "normalize_clause_fast", lambda fn: _plain(recorder, "normalize", fn))
    patch(prover_module, "well_formedness_consequences",
          lambda fn: _wrap_wellformedness(recorder, fn))
    patch(prover_module, "unfold", lambda fn: _wrap_unfold(recorder, fn))
    patch(prover_module, "build_counterexample",
          lambda fn: _plain(recorder, "counterexample", fn))
    patch(ProofCache, "canonical_form", lambda fn: _plain(
        recorder, "canonical", fn, lambda args, result: {"keyed": int(result is not None)}))
    patch(ProofCache, "lookup", lambda fn: _wrap_lookup(recorder, fn))
    patch(ProofCache, "store", lambda fn: _plain(recorder, "cache.store", fn))
    patch(ProofStore, "get", lambda fn: _wrap_store_call(recorder, "store.get", fn))
    patch(ProofStore, "put", lambda fn: _wrap_store_call(recorder, "store.put", fn))
    patch(BatchProver, "iter_results", lambda fn: _wrap_iter_results(recorder, fn))
    patch(SupervisedPool, "run", lambda fn: _wrap_pool_run(recorder, fn))
    patch(SupervisedPool, "submit", lambda fn: _wrap_pool_submit(recorder, fn))
    patch(ProofService, "submit", lambda fn: _wrap_service_submit(recorder, fn))
    patch(http_module, "parse_entailment", lambda fn: _wrap_parse(recorder, fn))
    return Installation(patches)


# ---------------------------------------------------------------------------
# Merging and analysis
# ---------------------------------------------------------------------------


@dataclass
class Span:
    pid: int
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[str]
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def load(directory: str, since: float = float("-inf")) -> List[Span]:
    """Merge every process's span file; drop spans that started before ``since``."""
    spans: List[Span] = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        pid = int(os.path.basename(path)[len("spans-"):-len(".jsonl")])
        with open(path) as handle:
            for line in handle:
                ident, name, start, end, parent, rid, attrs = json.loads(line)
                if start >= since:
                    spans.append(Span(pid, ident, name, start, end, parent, rid, attrs or {}))
    return spans


def covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted((max(a, low), min(b, high)) for a, b in intervals if b > low and a < high)
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> Dict[Tuple[int, int], float]:
    """``(pid, id) -> self seconds``: duration minus what its children cover."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.pid, span.parent)].append((span.start, span.end))
    return {
        (span.pid, span.id): span.duration
        - covered(children.get((span.pid, span.id), ()), span.start, span.end)
        for span in spans
    }


def _dispatch_seconds(spans: List[Span]) -> float:
    """Pool round trips minus the worker's ``Prover.prove`` span.

    A task's round trip starts when its worker became free for it: the later
    of its submission (or the ``pool.run`` call) and the delivery of that
    worker's previous task; it ends when the coordinator receives the result.
    """
    proves: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.name == "prover" and span.parent is None and span.rid is not None:
            proves[span.rid].append(span)
    deliveries = []
    for span in spans:
        if span.name == "pool.result":
            deliveries.append((span.end, span.attrs["since"], span.attrs["key"]))
        elif span.name == "pool.task":
            deliveries.append((span.end, span.start, span.attrs["key"]))
    deliveries.sort()
    last_delivery: Dict[int, float] = {}
    total = 0.0
    for delivered, submitted, key in deliveries:
        candidates = [s for s in proves.get(key, ()) if submitted <= s.start and s.end <= delivered]
        if not candidates:
            continue
        work = max(candidates, key=lambda s: s.end)
        proves[key].remove(work)
        available = max(submitted, last_delivery.get(work.pid, submitted))
        total += max(0.0, (delivered - available) - work.duration)
        last_delivery[work.pid] = delivered
    return total


def layer_metrics(spans: List[Span], client_pid: Optional[int] = None) -> Dict[str, float]:
    """Every metric of ``LAYERS`` from merged spans (0 for layers not run)."""
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_s(*names: str) -> float:
        return sum(own[(s.pid, s.id)] for name in names for s in by_name[name])

    def total(name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in by_name[name])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    checks = [s for s in by_name["is_known"] if not s.attrs.get("derived")]
    metrics = {
        "prover.self_s": self_s("prover"),
        "prover.iterations": total("prover", "iterations"),
        "cnf.self_s": self_s("cnf"),
        "saturate.self_s": self_s("saturate"),
        "is_known.self_s": self_s("is_known"),
        "generated_clauses": total("prover", "generated_clauses"),
        "model.self_s": self_s("model"),
        "model.calls": len(by_name["model"]),
        "normalize.self_s": self_s("normalize"),
        "normalize.calls": len(by_name["normalize"]),
        "wellformedness.self_s": self_s("wellformedness"),
        "wellformedness.fresh_ratio": ratio(sum(s.attrs["kept"] for s in checks), len(checks)),
        "unfold.self_s": self_s("unfold"),
        "unfold.success_ratio": ratio(total("unfold", "success"), len(by_name["unfold"])),
        "counterexample.self_s": self_s("counterexample"),
        "counterexample.calls": len(by_name["counterexample"]),
        "canonical.self_s": self_s("canonical"),
        "canonical.calls": len(by_name["canonical"]),
        "canonical.keyed_ratio": ratio(total("canonical", "keyed"), len(by_name["canonical"])),
        "cache.lookup_self_s": self_s("cache.lookup"),
        "cache.store_self_s": self_s("cache.store"),
        "cache.hit_ratio": ratio(total("cache.lookup", "hit"), len(by_name["cache.lookup"])),
        "cache.disk_hit_ratio": ratio(total("cache.lookup", "disk"), len(by_name["cache.lookup"])),
        "store.get_self_s": self_s("store.get"),
        "store.put_self_s": self_s("store.put"),
        "store.refreshes": total("store.get", "refreshes") + total("store.put", "refreshes"),
        "batch.self_s": self_s("batch"),
        "batch.deduplicated": total("batch", "deduplicated"),
        "pool.tasks": len(by_name["pool.result"]) + len(by_name["pool.task"]),
        "pool.dispatch_s": _dispatch_seconds(spans),
        "pool.retried": total("pool.run", "retried") + _snapshot_delta(by_name["pool.task"]),
        "parser.self_s": self_s("parser"),
    }
    metrics.update(_service_metrics(by_name))
    metrics["http.self_ms_p50"] = _http_self_ms_p50(spans, by_name["client"], client_pid)
    return metrics


def _snapshot_delta(tasks: List[Span]) -> float:
    values = [s.attrs["retried"] for s in tasks if "retried" in s.attrs]
    return max(values) - min(values) if values else 0


def _service_metrics(by_name: Dict[str, List[Span]]) -> Dict[str, float]:
    """Queue wait (submit until a lane starts the batch) and execution (lane
    start until the future resolves), per request."""
    starts: Dict[str, float] = {}
    for span in by_name["batch"]:
        if span.attrs.get("first") and span.rid is not None:
            starts.setdefault(span.rid, span.start)
    waits, executions = [], []
    for span in by_name["service"]:
        began = starts.get(span.rid)
        if began is None:
            continue
        waits.append(began - span.start)
        executions.append(span.end - began)
    return {
        "service.queue_wait_ms_p99": percentile(waits, 0.99) * 1000.0 if waits else 0.0,
        "service.execution_ms_p50": percentile(executions, 0.50) * 1000.0 if executions else 0.0,
    }


def _http_self_ms_p50(spans: List[Span], clients: List[Span], client_pid: Optional[int]) -> float:
    """Client request span minus the server-side spans of the same request."""
    if not clients:
        return 0.0
    server: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.rid is not None and span.pid != client_pid and span.name in ("parser", "service"):
            server[span.rid].append((span.start, span.end))
    values = [
        c.duration - covered(server.get(c.rid, ()), c.start, c.end)
        for c in clients
        if c.rid in server
    ]
    return percentile(values, 0.50) * 1000.0 if values else 0.0
