"""Batch proving: supervised parallel entailment checking with caching.

Every workload this prover serves — the paper's Tables 1-3 batches, the
verification-condition stream of the symbolic-execution front end, CLI files —
is a *batch* of independent entailments.  :class:`BatchProver` turns the fast
single-query prover into a batch engine with three orthogonal levers:

* **parallelism** — a :class:`~repro.core.supervisor.SupervisedPool` of
  worker processes; each worker holds one warm
  :class:`~repro.core.prover.Prover` (and its interning tables, ordering
  caches and so on) for its whole lifetime.  Every batch submits its tasks
  one at a time to the pool's reactor thread, so any number of threads may
  run batches on one instance at once: their tasks interleave in the pool,
  ranked by each batch's ``priority``.  Results stream back as they
  complete (:meth:`BatchProver.iter_results`) or in input order
  (:meth:`BatchProver.iter_ordered` / :meth:`BatchProver.prove_all`);
* **supervision** — a crashed, hung or OOM-killed worker is detected and
  respawned, its in-flight task retried with capped exponential backoff, and
  a task that keeps killing workers is quarantined.  Every task therefore
  produces exactly one structured outcome: a
  :class:`~repro.core.result.ProofResult`, or a
  :class:`~repro.core.supervisor.FailureInfo` saying *why* there is no
  verdict (``timeout``/``oom``/``crash``/``retries_exhausted``).  ``None``
  never appears;
* **memoisation** — a :class:`~repro.core.cache.ProofCache` in the
  coordinating process answers alpha-equivalent queries without proving, and
  additionally *deduplicates within the batch*: structurally identical
  entailments are proved once and the verdict is renamed back for every copy.

The levers compose: cache lookups and deduplication happen before dispatch,
so the pool only ever sees one representative per equivalence class.  A
representative that *fails* (rather than times out on its own merits) does
not poison its copies — they are re-dispatched independently.

Budgets are enforced for real.  ``ProverConfig.max_seconds`` is threaded
into the saturation inner loop (cooperative, fires within one inference
step); the coordinator additionally arms a **hard watchdog** that kills any
worker holding a task past ``max_seconds * GRACE_FACTOR``, which is what
catches a worker that stopped executing Python (native hang, pathological
GC).  ``ProverConfig.max_memory_mb`` applies ``RLIMIT_AS`` in each worker,
converting memory blow-ups into structured ``oom`` failures instead of
kernel OOM kills.

The engine degrades gracefully: with ``jobs=1``, or on platforms where
worker processes cannot be created, everything runs in-process through the
same outcome contract — including injected faults and retry/quarantine
semantics, minus the hard watchdog (there is no second process to do the
killing).  A deterministic :class:`~repro.core.faults.FaultPlan` (passed in,
or exported via ``SLP_FAULT_PLAN``) disturbs chosen task indices for chaos
testing; failures it causes are marked ``injected``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.cache import CacheEntry, ProofCache
from repro.core.config import ProverConfig
from repro.core.faults import FaultPlan, InjectedCrash, apply_fault_before_task, make_unpicklable
from repro.core.prover import Prover, ProverTimeout
from repro.core.result import ProofResult, ProverStatistics
from repro.core.supervisor import FailureInfo, SupervisedPool, backoff_seconds
from repro.logic.canonical import CanonicalForm
from repro.logic.formula import Entailment, lseg, pts
from repro.logic.terms import make_const

__all__ = [
    "BatchOutcome",
    "BatchProver",
    "BatchStatistics",
    "FailureInfo",
    "default_jobs",
]

#: What one batch entry resolves to: a verdict, or a structured failure.
BatchOutcome = Union[ProofResult, FailureInfo]

#: Errors that mean "no worker pool on this platform" (sandboxes, exotic
#: interpreters); the engine degrades to in-process execution, once, quietly.
_POOL_UNAVAILABLE_ERRORS = (OSError, ValueError, ImportError, PermissionError)

#: The hard watchdog kills a worker holding one task longer than
#: ``max_seconds * GRACE_FACTOR``: the headroom the cooperative deadline gets
#: before the coordinator stops trusting the worker to enforce its own budget.
GRACE_FACTOR = 2.0


def default_jobs() -> int:
    """A sensible worker count for this machine (capped to keep startup cheap).

    Counts the CPUs this process may actually *use* — the scheduling affinity
    mask, which cgroup cpusets and ``taskset`` shrink — not the machine's
    nominal core count.  In a 2-CPU container on a 64-core host,
    ``os.cpu_count()`` says 64; spawning 8 provers to share 2 CPUs thrashes.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux platforms
        available = os.cpu_count() or 1
    return max(1, min(available, 8))


# ---------------------------------------------------------------------------
# Worker-side machinery.  Module-level so that it is picklable under both the
# fork and spawn start methods; the prover is created once per worker process
# by the initializer and reused for every task.
# ---------------------------------------------------------------------------

#: Per-batch configuration overrides travelling with every task payload:
#: ``(max_seconds, record_proof)``, each ``None`` meaning "keep the pool's
#: configured value".  ``None`` in place of the whole tuple means no override
#: at all (the common case).  The entailment service uses this to honour
#: per-request budgets and proof flags on one long-lived warm pool.
TaskOverrides = Optional[Tuple[Optional[float], Optional[bool]]]


def _apply_overrides(config: ProverConfig, overrides: TaskOverrides) -> ProverConfig:
    """The effective per-task configuration under ``overrides``."""
    if overrides is None:
        return config
    max_seconds, record_proof = overrides
    if max_seconds is not None and max_seconds != config.max_seconds:
        config = config.with_timeout(max_seconds)
    if record_proof is not None and record_proof != config.record_proof:
        config = replace(config, record_proof=record_proof)
    return config

_WARMUP = dict(
    lhs=[pts("wk_a", "wk_b"), pts("wk_b", "nil")], rhs=[lseg("wk_a", "nil")]
)


def _reintern(entailment: Entailment) -> Entailment:
    """Rebuild an unpickled entailment over the worker's interned constants.

    Pickling bypasses the intern tables, so a received entailment would miss
    every identity fast path; renaming each constant to its interned twin
    restores the sharing the warm prover relies on.
    """
    return entailment.rename({c: make_const(c.name) for c in entailment.constants()})


def _apply_memory_limit(max_memory_mb: Optional[int]) -> None:
    """Cap this process's address space (``RLIMIT_AS``) — worker processes only.

    Platforms without the :mod:`resource` module (or without this limit) are
    left uncapped: the budget is an operational safety net, not a semantic
    requirement, and failing the whole pool over it would be worse.
    """
    if max_memory_mb is None:
        return
    try:
        import resource

        limit = int(max_memory_mb) * 1024 * 1024
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ImportError, AttributeError, ValueError, OSError):  # pragma: no cover
        pass


def _warm_prover(config: ProverConfig) -> Prover:
    """A fresh prover with imports, ordering caches and intern tables primed."""
    prover = Prover(config)
    try:
        prover.prove(Entailment.build(**_WARMUP))
    except ProverTimeout:  # pragma: no cover - only with absurdly small budgets
        pass
    return prover


def _supervised_worker_init(config: ProverConfig, fault_plan: Optional[FaultPlan]):
    """Per-worker initialiser for the supervised pool; returns the task function.

    Order matters: the memory limit is applied *before* the warm-up, so the
    budget covers everything the worker will ever allocate.  A budget too
    tight for even the warm-up surfaces as MemoryError here, which the
    supervisor reports as an initialisation failure (and, if persistent,
    declares the pool broken) instead of respawning forever.
    """
    _apply_memory_limit(config.max_memory_mb)
    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    prover = _warm_prover(config)

    def prove_task(payload: Tuple[int, Entailment, TaskOverrides], _ticket: int, attempt: int):
        # The payload carries the *batch* index (fault plans target batch
        # indices); the pool's ticket is ignored.
        index, entailment, overrides = payload
        spec = plan.should_fire(index, attempt) if plan is not None else None
        if spec is not None:
            apply_fault_before_task(spec)
        effective = _apply_overrides(config, overrides)
        # Prover instances are stateless (the warmth lives in the interning
        # tables and ordering caches, which are shared), so an override costs
        # one cheap construction, not a re-warm.
        active = prover if effective is config else Prover(effective)
        try:
            result = active.prove(_reintern(entailment))
        except ProverTimeout as timeout:
            return "timeout", timeout.statistics
        if spec is not None and spec.kind == "unpicklable":
            return "ok", make_unpicklable(result)
        return "ok", result

    return prove_task


# ---------------------------------------------------------------------------
# Coordinator side.
# ---------------------------------------------------------------------------


def _fold_statistics(target: ProverStatistics, source: ProverStatistics) -> None:
    for item in fields(ProverStatistics):
        setattr(target, item.name, getattr(target, item.name) + getattr(source, item.name))


@dataclass
class BatchStatistics:
    """Aggregated accounting for everything a :class:`BatchProver` has run.

    ``prover`` sums the per-result work counters of genuinely proved
    instances; ``timeout_work`` sums the *partial* counters of timed-out
    attempts (work done, then discarded), which used to be invisible.  Cache
    hits and deduplicated copies contribute no prover work (that is the
    point) and are counted separately.

    ``cache_misses`` counts cache lookups the memoisation could not answer
    (in-batch duplicates miss once before their leader resolves them).  How
    many hits the cache's second tier answered is the cache's own count
    (:attr:`~repro.core.cache.ProofCache.disk_hits`).
    """

    total: int = 0
    proved: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    deduplicated: int = 0
    timed_out: int = 0
    oom: int = 0
    quarantined: int = 0
    retried: int = 0
    respawned_workers: int = 0
    injected_faults: int = 0
    valid: int = 0
    invalid: int = 0
    jobs: int = 1
    parallel: bool = False
    elapsed_seconds: float = 0.0
    prover: ProverStatistics = field(default_factory=ProverStatistics)
    timeout_work: ProverStatistics = field(default_factory=ProverStatistics)

    @property
    def failed(self) -> int:
        """Batch entries that resolved to no verdict, of any kind."""
        return self.timed_out + self.oom + self.quarantined

    #: Counter fields summed by :meth:`fold` (everything except ``jobs``,
    #: ``parallel`` and the nested :class:`ProverStatistics` pair).
    _FOLD_COUNTERS = (
        "total", "proved", "cache_hits", "cache_misses", "deduplicated",
        "timed_out", "oom", "quarantined", "retried",
        "respawned_workers", "injected_faults", "valid", "invalid",
        "elapsed_seconds",
    )

    def fold(self, other: "BatchStatistics") -> None:
        """Absorb another accounting object (used to merge per-batch stats).

        Concurrent dispatcher lanes each accumulate into a private
        :class:`BatchStatistics` and fold it into the shared one under a
        lock when their batch finishes — the shared object never sees a
        torn read-modify-write.
        """
        for name in self._FOLD_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.parallel = self.parallel or other.parallel
        _fold_statistics(self.prover, other.prover)
        _fold_statistics(self.timeout_work, other.timeout_work)

    def absorb_proved(self, result: ProofResult) -> None:
        """Fold one freshly proved result into the aggregate counters."""
        self.proved += 1
        _fold_statistics(self.prover, result.statistics)

    def absorb_failure(self, info: FailureInfo) -> None:
        """Fold one fresh (non-echoed) structured failure's bookkeeping."""
        if isinstance(info.statistics, ProverStatistics):
            _fold_statistics(self.timeout_work, info.statistics)

    def count_verdict(self, outcome: Optional[BatchOutcome]) -> None:
        self.total += 1
        if outcome is None or isinstance(outcome, FailureInfo):
            kind = "timeout" if outcome is None else outcome.kind
            if kind == "timeout":
                self.timed_out += 1
            elif kind == "oom":
                self.oom += 1
            else:
                self.quarantined += 1
        elif outcome.is_valid:
            self.valid += 1
        else:
            self.invalid += 1


class BatchProver:
    """Check batches of entailments in parallel, memoising under renaming.

    Parameters
    ----------
    config:
        Prover configuration used by every worker (and the in-process
        fallback).  Give it a ``max_seconds`` budget for per-instance
        timeouts and a ``max_memory_mb`` budget for per-worker memory;
        exceeded budgets come back as :class:`FailureInfo` outcomes.
    jobs:
        Worker processes.  ``1`` (the default) runs in-process — no pool, no
        pickling, verdicts bit-identical to a bare :class:`Prover` loop.
    cache:
        ``True`` (default) for a fresh :class:`ProofCache`, ``False``/``None``
        to disable caching *and* in-batch deduplication, or an existing
        :class:`ProofCache` to share across batch provers.
    retries:
        How many times a crashed task is re-dispatched before quarantine
        (``0`` quarantines on the first crash), each after a capped
        exponential backoff (:func:`~repro.core.supervisor.backoff_seconds`).
        Applies to worker deaths and in-task exceptions, not to timeouts or
        OOMs, which are deterministic properties of the instance under its
        budget.
    fault_plan:
        A :class:`~repro.core.faults.FaultPlan` to disturb this batch with
        (chaos testing).  ``None`` reads ``SLP_FAULT_PLAN`` from the
        environment; normal operation has neither.

    The instance is reusable across many batches, and thread-safe: batches
    from several threads share the one warm pool.  Use it as a context
    manager (or call :meth:`close`) to release the workers; a leaked
    instance reclaims them from ``__del__`` as a safety net.
    """

    def __init__(
        self,
        config: Optional[ProverConfig] = None,
        jobs: int = 1,
        cache: Union[bool, ProofCache, None] = True,
        retries: int = 2,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.config = config if config is not None else ProverConfig()
        self.jobs = jobs
        if cache is True:
            self.cache: Optional[ProofCache] = ProofCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.retries = retries
        self.statistics = BatchStatistics(jobs=jobs)
        self._stats_lock = threading.Lock()
        self._fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._pool_lock = threading.Lock()
        self._pool: Optional[SupervisedPool] = None
        self._pool_unavailable = False
        self._closed = False

    @property
    def _task_timeout(self) -> Optional[float]:
        if self.config.max_seconds is None:
            return None
        return self.config.max_seconds * GRACE_FACTOR

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the worker processes: graceful drain, then escalation.

        Idempotent; a later batch on the same instance starts a fresh pool.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.close()
            # Retries and respawns are counted by the pool, which every
            # concurrent batch shares (no batch can claim a delta as its
            # own); bank them once the reactor has stopped.
            with self._stats_lock:
                self.statistics.retried += pool.retried
                self.statistics.respawned_workers += pool.respawned_workers

    def __enter__(self) -> "BatchProver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # Safety net for leaked instances: never let an abandoned BatchProver
        # orphan its worker processes.  Interpreter-shutdown failures are
        # swallowed — there is nothing useful to do with them in __del__.
        try:
            if not self._closed and self._pool is not None:
                self.close()
        except Exception:
            pass

    def _ensure_pool(self) -> Optional[SupervisedPool]:
        """The persistent supervised pool, or ``None`` when unavailable.

        Locked: any number of threads may race the first batch here, and
        two winners would each spawn a full worker set (the loser's pool
        leaking its processes until interpreter exit).
        """
        with self._pool_lock:
            self._closed = False
            if self._pool is not None:
                return self._pool
            if self._pool_unavailable:
                return None
            try:
                pool = SupervisedPool(
                    jobs=self.jobs,
                    initializer=_supervised_worker_init,
                    init_args=(self.config, self._fault_plan),
                    task_timeout=self._task_timeout,
                    retries=self.retries,
                )
                pool.start()
            except _POOL_UNAVAILABLE_ERRORS:
                self._pool_unavailable = True
                return None
            self._pool = pool
            return pool

    def pool_counters(self) -> Dict[str, int]:
        """Live pool supervision counters not yet folded into ``statistics``.

        Retries and respawns in the pool are pool-global (no batch can
        attribute a delta to itself without double counting), so they stay
        on the pool until :meth:`close` banks them; consumers that report
        totals while the pool runs add these to ``statistics``.
        """
        pool = self._pool
        if pool is None:
            return {"retried": 0, "respawned_workers": 0}
        return {"retried": pool.retried, "respawned_workers": pool.respawned_workers}

    # -- in-process execution ---------------------------------------------
    def _prove_local(
        self,
        index: int,
        entailment: Entailment,
        overrides: TaskOverrides,
        stats: BatchStatistics,
    ) -> BatchOutcome:
        """One task through the in-process engine: same contract as the pool.

        Injected faults degrade sensibly without a process boundary: process
        death and undeliverable results become retryable crashes, a hang
        longer than the watchdog budget becomes the ``timeout`` the watchdog
        would have produced (there is no second process to do the killing).
        A :class:`Prover` holds only its configuration, so each task builds
        its own and concurrent callers share nothing.
        """
        prover = Prover(_apply_overrides(self.config, overrides))
        plan = self._fault_plan
        attempt = 1
        started = time.monotonic()
        while True:
            spec = plan.should_fire(index, attempt) if plan is not None else None
            try:
                if spec is not None and spec.kind == "hang":
                    budget = self._task_timeout
                    if budget is not None and spec.seconds > budget:
                        time.sleep(budget)
                        return FailureInfo(
                            kind="timeout",
                            attempts=attempt,
                            elapsed=time.monotonic() - started,
                            detail="hang exhausted the watchdog budget",
                        )
                if spec is not None:
                    apply_fault_before_task(spec, in_process=True)
                return prover.prove(entailment)
            except ProverTimeout as timeout:
                return FailureInfo(
                    kind="timeout",
                    attempts=attempt,
                    elapsed=time.monotonic() - started,
                    detail="cooperative deadline",
                    statistics=timeout.statistics,
                )
            except MemoryError:
                return FailureInfo(
                    kind="oom",
                    attempts=attempt,
                    elapsed=time.monotonic() - started,
                    detail="MemoryError while proving",
                )
            except InjectedCrash as crash:
                if attempt <= self.retries:
                    stats.retried += 1
                    backoff = backoff_seconds(attempt)
                    if backoff > 0.0:
                        time.sleep(backoff)
                    attempt += 1
                    continue
                kind = "crash" if self.retries == 0 else "retries_exhausted"
                return FailureInfo(
                    kind=kind,
                    attempts=attempt,
                    elapsed=time.monotonic() - started,
                    detail=str(crash),
                )

    # -- execution ---------------------------------------------------------
    def _mark_injected(self, index: int, outcome: BatchOutcome) -> BatchOutcome:
        """Flag failures at indices the fault plan targets.

        The decision function is pure, so the coordinator can label a
        failure whose worker never reported back (it was killed before it
        could say anything).
        """
        if (
            isinstance(outcome, FailureInfo)
            and not outcome.injected
            and self._fault_plan is not None
            and self._fault_plan.fault_at(index) is not None
        ):
            return replace(outcome, injected=True)
        return outcome

    def _execute(
        self,
        tasks: Sequence[Tuple[int, Entailment]],
        overrides: TaskOverrides,
        stats: BatchStatistics,
        priority: int = 0,
    ) -> Iterator[Tuple[int, BatchOutcome]]:
        """Run the deduplicated tasks, yielding ``(index, outcome)`` as completed."""
        if not tasks:
            return
        if self._fault_plan is not None:
            # Count faults as *fired*, not as "failed in the end": a transient
            # fault the retry loop recovered from still disturbed the run.
            # The decision function is pure, so the coordinator knows without
            # hearing from the (possibly killed) worker.
            stats.injected_faults += sum(
                1 for index, _ in tasks if self._fault_plan.fault_at(index) is not None
            )
        pool = self._ensure_pool() if self.jobs > 1 else None
        if pool is None:
            for index, entailment in tasks:
                yield index, self._mark_injected(
                    index, self._prove_local(index, entailment, overrides, stats)
                )
            return
        stats.parallel = True
        # Fault plans target batch indices, so the payload carries the index
        # for the worker to unpack.  The pool answers every task exactly
        # once, and withdraws what is left if this generator is abandoned.
        payloads = ((index, (index, entailment, overrides)) for index, entailment in tasks)
        for index, outcome in pool._stream(payloads, priority):
            yield index, self._mark_injected(index, outcome)

    def iter_results(
        self,
        entailments: Iterable[Entailment],
        max_seconds: Optional[float] = None,
        record_proof: Optional[bool] = None,
        priority: int = 0,
    ) -> Iterator[Tuple[int, BatchOutcome]]:
        """Yield ``(index, outcome)`` pairs as they complete (not in order).

        Cache hits surface immediately; the remaining work streams back from
        the pool.  Every outcome is a :class:`ProofResult` or a
        :class:`FailureInfo` — never ``None`` — and every input index is
        yielded exactly once.

        ``max_seconds`` / ``record_proof`` override the pool configuration
        for this batch only (``None`` keeps the configured value).  The warm
        workers stay warm — overrides travel with the task payloads.  Note
        the hard watchdog budget stays derived from ``config.max_seconds``,
        so a per-batch ``max_seconds`` larger than the configured one is
        enforced by the watchdog at the *configured* grace budget; callers
        that allow larger per-batch budgets should configure the pool with
        the largest budget they will grant (the entailment service clamps
        per-request timeouts to its configured ceiling for exactly this
        reason).

        ``priority`` ranks this batch's pooled tasks against those of
        concurrent batches (higher runs first, FIFO among equals).

        Statistics are accumulated batch-locally and folded into
        :attr:`statistics` under a lock when the iteration finishes, so
        concurrent callers (dispatcher lanes) never tear the shared
        counters.  Consequently ``statistics`` moves at batch granularity:
        readers mid-batch see the totals as of the last completed batch.
        """
        overrides: TaskOverrides = (
            None
            if max_seconds is None and record_proof is None
            else (max_seconds, record_proof)
        )
        batch = list(entailments)
        wants_proof = self.config.record_proof if record_proof is None else record_proof
        start = time.perf_counter()
        # Batch-local accounting: the shared object is only touched in the
        # ``finally`` fold.  The shared cache's own counters move under its
        # internal lock.
        stats = BatchStatistics(jobs=self.jobs)

        def settle(index: int, outcome: BatchOutcome) -> Optional[CacheEntry]:
            # Account for a freshly executed outcome; cache it if a verdict.
            entry = None
            if isinstance(outcome, ProofResult):
                stats.absorb_proved(outcome)
                if self.cache is not None and index in canonicals:
                    entry = self.cache.store(batch[index], outcome, canonicals[index])
            else:
                stats.absorb_failure(outcome)
            stats.count_verdict(outcome)
            return entry

        canonicals: Dict[int, CanonicalForm] = {}
        try:
            leaders: List[Tuple[int, Entailment]] = []
            followers: Dict[int, List[int]] = {}  # leader index -> duplicate indices
            leader_of: Dict[tuple, int] = {}  # fingerprint -> leader index
            for index, entailment in enumerate(batch):
                canonical = (
                    self.cache.canonical_form(entailment) if self.cache is not None else None
                )
                if canonical is None:
                    leaders.append((index, entailment))
                    continue
                canonicals[index] = canonical
                # A proof request is not answered by an entry without one:
                # that entry counts as a miss and is proved (and replaced).
                cached = self.cache.answer(entailment, canonical, wants_proof)
                if cached is not None:
                    stats.cache_hits += 1
                    stats.count_verdict(cached)
                    yield index, cached
                    continue
                stats.cache_misses += 1
                leader = leader_of.get(canonical.key)
                if leader is None:
                    leader_of[canonical.key] = index
                    leaders.append((index, entailment))
                else:
                    followers.setdefault(leader, []).append(index)

            orphans: List[Tuple[int, Entailment]] = []
            for index, outcome in self._execute(leaders, overrides, stats, priority):
                entry = settle(index, outcome)
                yield index, outcome
                for duplicate in followers.get(index, ()):
                    if entry is not None:
                        # Echo from the leader's entry, held here, so that
                        # an eviction between yields cannot take it away.
                        # Echoes are dedup events, not cache traffic: they
                        # move no cache counter.
                        echoed = entry.answer(
                            batch[duplicate],
                            canonicals[duplicate].inverse,
                            wants_proof,
                            time.perf_counter(),
                        )
                        if echoed is not None:
                            stats.deduplicated += 1
                            stats.count_verdict(echoed)
                            yield duplicate, echoed
                            continue
                    elif outcome.kind in ("timeout", "oom") and not outcome.injected:
                        # A genuine budget exhaustion is a property of the
                        # instance; its alpha-equivalent copies would exhaust
                        # the same budget.  Echo the failure (frozen, shareable).
                        stats.count_verdict(outcome)
                        yield duplicate, outcome
                        continue
                    # The representative crashed (or its failure was
                    # injected), or its counterexample does not falsify this
                    # copy: that says nothing about the copy.  Re-dispatch it
                    # on its own merits.
                    orphans.append((duplicate, batch[duplicate]))

            for index, outcome in self._execute(orphans, overrides, stats, priority):
                settle(index, outcome)
                yield index, outcome
        finally:
            stats.elapsed_seconds += time.perf_counter() - start
            with self._stats_lock:
                self.statistics.fold(stats)

    def iter_ordered(
        self,
        entailments: Iterable[Entailment],
        max_seconds: Optional[float] = None,
        record_proof: Optional[bool] = None,
        priority: int = 0,
    ) -> Iterator[Tuple[int, BatchOutcome]]:
        """Yield ``(index, outcome)`` in input order, streaming as soon as possible."""
        buffered: Dict[int, BatchOutcome] = {}
        next_index = 0
        for index, outcome in self.iter_results(
            entailments, max_seconds, record_proof, priority
        ):
            buffered[index] = outcome
            while next_index in buffered:
                yield next_index, buffered.pop(next_index)
                next_index += 1

    def prove_all(
        self,
        entailments: Iterable[Entailment],
        max_seconds: Optional[float] = None,
        record_proof: Optional[bool] = None,
        priority: int = 0,
    ) -> List[BatchOutcome]:
        """Check the whole batch and return outcomes in input order.

        Entries are :class:`ProofResult` for decided instances and
        :class:`FailureInfo` for the rest (timeout, OOM, quarantined crash);
        no entry is ever ``None`` and no entry is silently dropped.
        """
        batch = list(entailments)
        results: List[Optional[BatchOutcome]] = [None] * len(batch)
        delivered = [False] * len(batch)
        for index, outcome in self.iter_results(batch, max_seconds, record_proof, priority):
            results[index] = outcome
            delivered[index] = True
        assert all(delivered), "every batch entry must produce exactly one outcome"
        return results  # type: ignore[return-value]
