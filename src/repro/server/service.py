"""The proof service: bounded admission, dispatcher lanes, a warm batch prover.

:class:`ProofService` owns the state that makes the server worth running —
one :class:`~repro.core.batch.BatchProver` whose worker pool stays warm and
whose :class:`~repro.core.cache.ProofCache` (optionally backed by a store)
accumulates across requests — and exposes exactly one
entry point, :meth:`ProofService.submit`, which enqueues a request and
returns a :class:`concurrent.futures.Future`.

The service is built to *degrade gracefully* under any offered load:

* **Bounded admission** — the queue is capped in both requests
  (``max_queue_requests``) and entailments (``max_queue_entailments``).
  Past either high-water mark :meth:`submit` raises a typed
  :class:`ServiceOverloaded` carrying a ``retry_after`` hint derived from
  the recent p50 *execution* time and current queue depth, which the HTTP
  layer maps to ``429`` + ``Retry-After``.  Memory stays bounded no matter
  what clients do.
* **Deadline-aware shedding** — queue-wait counts against each request's
  clamped timeout.  A request whose budget already expired while queued is
  answered as a structured ``timeout`` without ever touching the pool
  (``expired_in_queue``); one that waited part of its budget runs with only
  the remainder.  Cancelled futures (client gone) are dropped before
  dispatch and counted (``cancelled``).
* **Dispatcher lanes** — ``min(jobs, 4)`` threads consume the one priority
  queue concurrently and run their batches on the one thread-safe batch
  prover, so a 200-entailment batch does not head-of-line block a
  1-entailment priority request: tasks from all lanes interleave per task in
  the pool's reactor, ranked by request priority.
* **A health state machine** — :meth:`health` reports
  ``healthy | degraded | overloaded | draining`` so pollers and routers can
  steer before the cliff, not after.

Priority entries sort as ``(0, -priority, seq)``: higher ``priority``
first, FIFO within a priority class.  The shutdown sentinels rank as
``(1, ...)`` — after *every* real entry — which is what makes
:meth:`close` a drain: work accepted before shutdown is finished and
answered, then the pool and the store are released.

Per-request ``timeout`` rides the batch layer's per-task overrides.  The
pool watchdog stays derived from the *configured* ``max_seconds`` (it is a
pool property, not a task property), so requested timeouts are clamped to
the configured ceiling — a request can ask for less patience than the
server has, never more.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import queue
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.batch import BatchOutcome, BatchProver, FailureInfo
from repro.core.cache import ProofCache
from repro.core.config import ProverConfig
from repro.logic.formula import Entailment

__all__ = [
    "ProofService",
    "ServiceClosed",
    "ServiceOverloaded",
    "DEFAULT_MAX_QUEUE_REQUESTS",
    "DEFAULT_MAX_QUEUE_ENTAILMENTS",
]

#: Default admission caps.  Sized so a full queue of typical requests fits
#: comfortably in memory and drains within tens of seconds on a warm pool;
#: operators with different traffic override them (``--max-queue-*``).
DEFAULT_MAX_QUEUE_REQUESTS = 256
DEFAULT_MAX_QUEUE_ENTAILMENTS = 4096

# Latency histogram buckets: powers of two in milliseconds.  The last bucket
# is open-ended; interactive traffic lives in the first few.
_BUCKET_CAP_MS = 65536


class ServiceClosed(RuntimeError):
    """Submission refused (or an accepted entry abandoned) because the
    service is closed or closing.  The HTTP layer maps this to ``503``."""


class ServiceOverloaded(RuntimeError):
    """Submission refused by admission control: the queue is at a high-water
    mark.  ``retry_after`` (seconds) estimates when capacity frees up —
    recent p50 execution time scaled by queue depth per lane — and feeds the
    HTTP ``Retry-After`` header on the ``429`` response."""

    def __init__(self, retry_after: float, detail: str = "service overloaded"):
        super().__init__(detail)
        self.retry_after = float(retry_after)


def _bucket_ms(elapsed_seconds: float) -> int:
    """The histogram bucket (upper bound, in ms) a latency falls into."""
    ms = elapsed_seconds * 1000.0
    upper = 1
    while upper < ms and upper < _BUCKET_CAP_MS:
        upper *= 2
    return upper


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q <= 1) of an already-sorted non-empty sequence."""
    index = max(0, min(len(sorted_values) - 1, int(round(q * len(sorted_values))) - 1))
    return sorted_values[index]


def _latency_summary(samples: Sequence[float], histogram: "Counter[int]") -> Dict[str, object]:
    """A JSON-ready ``{count, histogram, p50/p90/p99}`` block for one timer."""
    ordered = sorted(samples)
    block: Dict[str, object] = {
        "count": len(ordered),
        "histogram": {
            "<={}ms".format(upper): count for upper, count in sorted(histogram.items())
        },
    }
    if ordered:
        block["p50_ms"] = _percentile(ordered, 0.50) * 1000.0
        block["p90_ms"] = _percentile(ordered, 0.90) * 1000.0
        block["p99_ms"] = _percentile(ordered, 0.99) * 1000.0
    return block


@dataclass
class _Request:
    """One enqueued ``/prove`` call waiting for a dispatcher lane."""

    entailments: List[Entailment]
    max_seconds: Optional[float]
    record_proof: Optional[bool]
    priority: int
    future: "concurrent.futures.Future[List[BatchOutcome]]"
    enqueued_at: float = field(default_factory=time.monotonic)

    @property
    def deadline(self) -> Optional[float]:
        """Monotonic instant the request's whole budget expires, queue
        included — ``None`` for requests without a timeout."""
        if self.max_seconds is None:
            return None
        return self.enqueued_at + self.max_seconds


class ProofService:
    """Long-lived prover state plus the bounded queue and lanes that feed it.

    Parameters
    ----------
    config:
        Prover configuration for the warm pool.  Its ``max_seconds`` is the
        *ceiling* for per-request timeouts (requests are clamped to it) and
        what the hard watchdog budget derives from.  The service defaults
        ``record_proof`` off and turns it on per request — recording every
        proof just to discard it would tax the common no-proof path.
    jobs:
        Worker processes for the underlying :class:`BatchProver` (``1`` runs
        in-process; the dispatcher lanes then do the proving themselves).
    store_path:
        Back the cache with a persistent store at this path; ``None`` keeps
        the cache memory-only (still warm across requests, lost on exit).
    max_queue_requests / max_queue_entailments:
        Admission high-water marks.  A submission that would push either
        counter past its cap is refused with :class:`ServiceOverloaded`.
    """

    #: How long one shed keeps :meth:`health` reporting ``overloaded``.
    #: Without the hold a poller almost always lands between sheds and sees
    #: a momentarily-below-cap queue; class attribute so tests can shrink it.
    overload_hold_seconds = 1.0

    def __init__(
        self,
        config: Optional[ProverConfig] = None,
        jobs: int = 1,
        store_path: Optional[str] = None,
        max_queue_requests: int = DEFAULT_MAX_QUEUE_REQUESTS,
        max_queue_entailments: int = DEFAULT_MAX_QUEUE_ENTAILMENTS,
    ):
        if max_queue_requests < 1 or max_queue_entailments < 1:
            raise ValueError("queue caps must be positive")
        self.config = config if config is not None else ProverConfig(record_proof=False)
        self.lanes = min(max(1, jobs), 4)  # dispatcher threads
        self.max_queue_requests = max_queue_requests
        self.max_queue_entailments = max_queue_entailments
        self.cache = ProofCache(path=store_path)
        self.batch = BatchProver(self.config, jobs=jobs, cache=self.cache)
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._sequence = itertools.count()
        self._lock = threading.Lock()
        self._queued_requests = 0
        self._queued_entailments = 0
        # Latency is recorded as a *split*: time spent waiting in the queue
        # versus time executing on the pool (total = wait + execution).  The
        # split is what makes shedding tunable — a high total with low
        # execution means the caps are too generous, not the prover too slow.
        self._latencies: "deque[float]" = deque(maxlen=4096)
        self._histogram: "Counter[int]" = Counter()
        self._queue_waits: "deque[float]" = deque(maxlen=4096)
        self._queue_wait_histogram: "Counter[int]" = Counter()
        self._executions: "deque[float]" = deque(maxlen=4096)
        self._execution_histogram: "Counter[int]" = Counter()
        self._requests = 0
        self._entailments_served = 0
        self._internal_errors = 0
        self._shed = 0
        self._expired_in_queue = 0
        self._cancelled = 0
        self._last_shed_at: Optional[float] = None
        self._started_at = time.monotonic()
        self._closed = False
        self._lane_threads: List[threading.Thread] = []
        for lane in range(self.lanes):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name="slp-serve-lane-{}".format(lane),
                daemon=True,
            )
            thread.start()
            self._lane_threads.append(thread)

    # -- submission --------------------------------------------------------
    def clamp_timeout(self, timeout: Optional[float]) -> Optional[float]:
        """A request's timeout, clamped to the configured ceiling.

        The watchdog that backs the budget with force is a *pool* property
        sized from ``config.max_seconds``; granting a request more patience
        than that would leave the excess unenforced against a wedged worker.
        """
        if timeout is None:
            return None
        timeout = float(timeout)
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        ceiling = self.config.max_seconds
        return timeout if ceiling is None else min(timeout, ceiling)

    def submit(
        self,
        entailments: Iterable[Entailment],
        timeout: Optional[float] = None,
        priority: int = 0,
        record_proof: Optional[bool] = None,
    ) -> "concurrent.futures.Future[List[BatchOutcome]]":
        """Enqueue a batch of entailments; the future resolves to outcomes.

        Outcomes are in input order, one per entailment —
        :class:`~repro.core.result.ProofResult` or
        :class:`~repro.core.batch.FailureInfo`, exactly as
        :meth:`BatchProver.prove_all` returns them.  Higher ``priority``
        jumps the queue (FIFO among equals).  The future carries an
        exception only on an internal error, never on a per-instance
        failure.

        Raises :class:`ServiceClosed` after :meth:`close`, and
        :class:`ServiceOverloaded` when admission control refuses the work
        (queue at a high-water mark).  Both the closed check and the
        admission accounting happen under the service lock, atomically with
        the enqueue — a submit racing ``close()`` either lands before the
        sentinels (and is drained) or is refused; it can never enqueue
        behind them and hang its future.
        """
        batch = list(entailments)
        request = _Request(
            entailments=batch,
            max_seconds=self.clamp_timeout(timeout),
            record_proof=record_proof,
            priority=int(priority),
            future=concurrent.futures.Future(),
        )
        with self._lock:
            if self._closed:
                raise ServiceClosed("the proof service is closed")
            if (
                self._queued_requests + 1 > self.max_queue_requests
                or self._queued_entailments + len(batch) > self.max_queue_entailments
            ):
                self._shed += 1
                self._last_shed_at = time.monotonic()
                raise ServiceOverloaded(
                    self._retry_after_locked(),
                    "queue full: {} requests / {} entailments queued".format(
                        self._queued_requests, self._queued_entailments
                    ),
                )
            self._queued_requests += 1
            self._queued_entailments += len(batch)
            self._queue.put((0, -request.priority, next(self._sequence), request))
        return request.future

    def _retry_after_locked(self) -> float:
        """Seconds until capacity plausibly frees up (call with lock held).

        Estimate: the recent p50 execution time, times the requests queued
        per lane — roughly one queue generation.  Clamped to [1, 120] so a
        cold service still backs clients off and a deep queue cannot tell
        them to go away for an hour.
        """
        if self._executions:
            p50 = _percentile(sorted(self._executions), 0.50)
            estimate = p50 * (self._queued_requests / max(1, self.lanes))
        else:
            estimate = 1.0
        return min(120.0, max(1.0, estimate))

    # -- the dispatcher lanes ----------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            rank, _, _, request = self._queue.get()
            if rank != 0:  # a shutdown sentinel: sorts after all real work
                break
            now = time.monotonic()
            with self._lock:
                self._queued_requests -= 1
                self._queued_entailments -= len(request.entailments)
            if not request.future.set_running_or_notify_cancel():
                # The client gave up (disconnect) while the request was
                # still queued; drop it before it costs any pool time.
                with self._lock:
                    self._cancelled += 1
                continue
            queue_wait = now - request.enqueued_at
            deadline = request.deadline
            if deadline is not None and now >= deadline:
                # The whole budget burned in the queue: answer structurally,
                # never dispatch.  Cheaper than proving something the client
                # has already been told timed out.
                expired = FailureInfo(
                    kind="timeout",
                    elapsed=queue_wait,
                    detail="deadline expired in queue after {:.2f}s".format(queue_wait),
                )
                outcomes: List[BatchOutcome] = [expired] * len(request.entailments)
                with self._lock:
                    self._expired_in_queue += 1
                    self._requests += 1
                    self._entailments_served += len(outcomes)
                    self._record_latency_locked(queue_wait, 0.0)
                request.future.set_result(outcomes)
                continue
            # Queue-wait counts against the budget: the pool gets only what
            # is left of the clamped timeout.
            remaining = request.max_seconds
            if deadline is not None:
                remaining = max(0.01, deadline - now)
            execute_start = time.monotonic()
            try:
                outcomes = self.batch.prove_all(
                    request.entailments,
                    max_seconds=remaining,
                    record_proof=request.record_proof,
                    priority=request.priority,
                )
            except BaseException as error:  # keep the lane alive
                with self._lock:
                    self._internal_errors += 1
                request.future.set_exception(error)
                continue
            execution = time.monotonic() - execute_start
            with self._lock:
                self._requests += 1
                self._entailments_served += len(outcomes)
                self._record_latency_locked(queue_wait, execution)
            request.future.set_result(outcomes)

    def _record_latency_locked(self, queue_wait: float, execution: float) -> None:
        total = queue_wait + execution
        self._latencies.append(total)
        self._histogram[_bucket_ms(total)] += 1
        self._queue_waits.append(queue_wait)
        self._queue_wait_histogram[_bucket_ms(queue_wait)] += 1
        self._executions.append(execution)
        self._execution_histogram[_bucket_ms(execution)] += 1

    # -- introspection -----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queued_requests

    def health(self) -> Dict[str, object]:
        """The admission state machine, JSON-ready.

        ``status`` is one of:

        ``healthy``
            Queue below half of both caps; accepting.
        ``degraded``
            Queue at or past half of either cap; accepting, but clients
            that can defer should.
        ``overloaded``
            Admission control shed a request within the last
            :attr:`overload_hold_seconds`, or a cap is currently reached;
            new submissions are likely to be refused.  HTTP maps this (and
            ``draining``) to ``503``.
        ``draining``
            :meth:`close` has begun: accepted work is being finished, new
            work is refused.
        """
        now = time.monotonic()
        with self._lock:
            queued_requests = self._queued_requests
            queued_entailments = self._queued_entailments
            if self._closed:
                status = "draining"
            elif (
                (self._last_shed_at is not None
                 and now - self._last_shed_at < self.overload_hold_seconds)
                or queued_requests >= self.max_queue_requests
                or queued_entailments >= self.max_queue_entailments
            ):
                status = "overloaded"
            elif (
                queued_requests * 2 >= self.max_queue_requests
                or queued_entailments * 2 >= self.max_queue_entailments
            ):
                status = "degraded"
            else:
                status = "healthy"
            retry_after = self._retry_after_locked() if status == "overloaded" else None
        health: Dict[str, object] = {
            "status": status,
            "accepting": status in ("healthy", "degraded"),
            "queue": {
                "requests": queued_requests,
                "entailments": queued_entailments,
                "max_requests": self.max_queue_requests,
                "max_entailments": self.max_queue_entailments,
            },
            "lanes": self.lanes,
        }
        if retry_after is not None:
            health["retry_after"] = retry_after
        return health

    def stats(self) -> Dict[str, object]:
        """A JSON-ready snapshot of service, cache, pool and store counters."""
        batch_stats = self.batch.statistics
        cache = self.cache
        live_pool = self.batch.pool_counters()
        with self._lock:
            latency = _latency_summary(self._latencies, self._histogram)
            queue_wait = _latency_summary(self._queue_waits, self._queue_wait_histogram)
            execution = _latency_summary(self._executions, self._execution_histogram)
            requests = self._requests
            entailments = self._entailments_served
            internal_errors = self._internal_errors
            shed = self._shed
            expired = self._expired_in_queue
            cancelled = self._cancelled
            queued_requests = self._queued_requests
            queued_entailments = self._queued_entailments
        snapshot: Dict[str, object] = {
            "uptime_seconds": time.monotonic() - self._started_at,
            "state": self.health()["status"],
            "requests": requests,
            "entailments": entailments,
            "internal_errors": internal_errors,
            "shed": shed,
            "expired_in_queue": expired,
            "cancelled": cancelled,
            "queue_depth": queued_requests,
            "queue": {
                "requests": queued_requests,
                "entailments": queued_entailments,
                "max_requests": self.max_queue_requests,
                "max_entailments": self.max_queue_entailments,
            },
            "lanes": self.lanes,
            "pool": {
                "jobs": self.batch.jobs,
                "proved": batch_stats.proved,
                "valid": batch_stats.valid,
                "invalid": batch_stats.invalid,
                "timed_out": batch_stats.timed_out,
                "oom": batch_stats.oom,
                "quarantined": batch_stats.quarantined,
                "retried": batch_stats.retried + live_pool["retried"],
                "respawned_workers": (
                    batch_stats.respawned_workers + live_pool["respawned_workers"]
                ),
                "injected_faults": batch_stats.injected_faults,
            },
            "latency": latency,
            "queue_wait": queue_wait,
            "execution": execution,
        }
        snapshot["cache"] = {
            "entries": len(cache),
            "hits": cache.hits,
            "misses": cache.misses,
            "uncacheable": cache.uncacheable,
            "disk_hits": cache.disk_hits,
            "rejected": cache.rejected,
            "hit_rate": cache.hit_rate,
            "deduplicated": batch_stats.deduplicated,
        }
        if cache.disk is not None:
            store: Dict[str, object] = {
                "persist_errors": cache.persist_errors,
                "records_live": len(cache.disk),
            }
            store.update(cache.disk.statistics.to_json())
            snapshot["store"] = store
        return snapshot

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Drain the queue, then release the pool and the store.

        Everything accepted by :meth:`submit` before the call is answered
        (the sentinels sort after all real entries, one per lane); new
        submissions are refused with :class:`ServiceClosed`.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._lane_threads:
            self._queue.put((1, 0, next(self._sequence), None))
        for thread in self._lane_threads:
            thread.join()
        # Defensive sweep: the locked submit/close handshake means no real
        # entry can land behind the sentinels, but if one ever did, resolve
        # it structurally instead of hanging its future forever.
        while True:
            try:
                rank, _, _, request = self._queue.get_nowait()
            except queue.Empty:
                break
            if rank == 0 and request is not None and not request.future.done():
                if request.future.set_running_or_notify_cancel():
                    request.future.set_exception(
                        ServiceClosed("the proof service closed before dispatch")
                    )
        self.batch.close()
        self.cache.close()

    def __enter__(self) -> "ProofService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
