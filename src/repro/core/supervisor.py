"""A supervised worker pool with liveness tracking, budgets and quarantine.

``multiprocessing.Pool`` hands chunks of work to workers and trusts them to
come back.  A worker killed mid-chunk — OOM killer, segfault in a native
kernel, stray SIGTERM — takes its whole chunk down with it and, depending on
timing, hangs the consuming iterator.  That is fine for throwaway scripts and
fatal for a batch prover whose contract is *one structured outcome per task,
always*.

:class:`SupervisedPool` replaces the chunked pool with per-task dispatch over
raw ``multiprocessing.Process`` workers and explicit duplex pipes, driven by
one **reactor** thread that owns every pipe.  Any thread hands it tasks
(:meth:`SupervisedPool.submit`); pending tasks are ranked by the submitter's
priority, FIFO among equals, so a one-task priority batch overtakes a large
one still queued.

* **Liveness** — the reactor waits on every worker pipe at once
  (:func:`multiprocessing.connection.wait`); a dead worker surfaces as EOF the
  moment the kernel closes its end, not after a join timeout expires.  The
  other way round, a worker whose coordinator died exits on its own.
* **Retry** — a task whose worker died is re-dispatched to a respawned worker
  with capped exponential backoff (:func:`backoff_seconds`).  A task that
  keeps killing workers is *quarantined* after ``retries`` re-dispatches and
  surfaced as a structured :class:`FailureInfo` instead of poisoning the pool
  forever.
* **Hard budgets** — an optional watchdog kills any worker that holds a task
  longer than ``task_timeout`` (the cooperative deadline times a grace
  factor, in the batch prover's use).  The kill is surfaced as a ``timeout``
  failure; the worker is respawned.
* **Liveness acks** — workers ack every task (``("started", task_id)``)
  before running it and report ``("ready", pid)`` after initialising.  A
  dispatched task that is never acked within :data:`ACK_TIMEOUT` is retried
  on a respawned worker instead of burning its whole watchdog budget; a
  worker that never reports ready within :data:`INIT_TIMEOUT` is respawned
  instead of silently shrinking the pool.  Both close the gap left by a
  worker that is alive but wedged — e.g. a child forked from the
  multi-threaded coordinator at an unlucky moment (respawns fork from the
  reactor thread) — which produces neither a result nor an EOF.
* **Warm workers** — workers survive across batches and callers, so
  per-worker initialisation (warming a prover's caches) is paid once per
  worker lifetime, exactly like the pool it replaces.

The pool knows nothing about proving.  ``initializer(*init_args)`` runs once
per worker process and returns a ``task_fn(payload, ticket, attempt) ->
(status, body)`` closure; ``status`` is ``"ok"`` (``body`` is the result) or
a cooperative failure ``"timeout"``/``"oom"`` (``body`` is a partial-progress
payload / detail).  Exceptions escaping ``task_fn`` — and replies that cannot
be pickled back — become retryable errors.  Cooperative timeouts and OOMs
are *not* retried: under the same budget the same instance exhausts it again.

The timing constants below are module-level rather than constructor
parameters: no caller tunes them, and a test that needs a shorter budget
monkeypatches the module.  They are read when used.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import queue
import select
import socket
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_on_connections
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["FailureInfo", "SupervisedPool", "backoff_seconds"]

#: Statuses a worker's task function may return cooperatively.
_TASK_STATUSES = ("ok", "timeout", "oom")

#: Consecutive worker-initialisation failures after which the pool declares
#: itself broken instead of respawning forever (e.g. a memory limit so tight
#: the interpreter cannot even warm up).
_INIT_FAILURE_SLACK = 2

#: Crash-retry backoff: re-dispatch of attempt *n* waits
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(n-1))`` seconds, so a task that kills
#: workers does not burn respawns in a tight loop.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0

#: How long :meth:`SupervisedPool.close` gives workers to exit gracefully
#: before escalating to ``terminate``/``kill``.
DRAIN_SECONDS = 5.0

#: A dispatched task must be acked (``("started", ...)``) within this budget;
#: a worker that never picks the task up is respawned and the attempt
#: retried, instead of the task burning its whole watchdog budget on a worker
#: that was never going to run it.
ACK_TIMEOUT = 5.0

#: A freshly forked worker must report ``("ready", ...)`` within this budget
#: or it is killed and respawned.  A child wedged during initialisation
#: otherwise sits there forever: never ready, never EOF, starving dispatch.
INIT_TIMEOUT = 60.0

#: How often a worker without pidfds (not Linux >= 5.3) checks that its
#: coordinator is still alive.
_PARENT_POLL_SECONDS = 0.25


def backoff_seconds(attempt: int) -> float:
    """How long re-dispatching after failed attempt ``attempt`` waits."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (attempt - 1)))


@dataclass(frozen=True)
class FailureInfo:
    """The structured outcome of a task that produced no result.

    Replaces the old ``None``-means-timeout contract of the batch layer:
    every undelivered verdict now says *why* it is missing, how many attempts
    were made, and how much wall-clock the attempts consumed.  Instances are
    falsy and never valid/invalid, so sloppy consumers fail safe.

    ``kind`` is one of:

    ``"crash"``
        The worker died (or the task raised) and the pool was configured
        with no retries — a single failure is final.  Also what every
        outstanding task gets when the pool closes or breaks under it.
    ``"retries_exhausted"``
        The task failed ``retries + 1`` attempts in a row and was
        quarantined.
    ``"timeout"``
        The cooperative deadline fired inside the prover, or the hard
        watchdog killed a worker that sat on the task past its grace budget
        (``detail`` distinguishes the two).  ``statistics`` carries the
        partial :class:`~repro.core.result.ProverStatistics` when the
        cooperative path fired.
    ``"oom"``
        The task exceeded ``ProverConfig.max_memory_mb`` (``MemoryError``
        under ``RLIMIT_AS``).
    """

    kind: str
    attempts: int = 1
    elapsed: float = 0.0
    detail: str = ""
    injected: bool = False
    statistics: Any = None

    # Mirror just enough of ProofResult's surface that a consumer asking the
    # usual questions gets the safe answer instead of an AttributeError.
    @property
    def is_valid(self) -> bool:
        return False

    @property
    def is_invalid(self) -> bool:
        return False

    @property
    def from_cache(self) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def summary(self) -> str:
        text = self.kind
        if self.attempts > 1:
            text += " after {} attempts".format(self.attempts)
        if self.detail:
            text += " ({})".format(self.detail)
        if self.injected:
            text += " [injected]"
        return text


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _exit_with_coordinator(coordinator: int) -> None:
    """A worker's watch thread: end the process once the coordinator is gone.

    EOF on the pipe cannot say so: a forked worker inherits coordinator-side
    pipe ends (its own, and those of the workers forked before it), and a
    worker inside a task does not read.  The thread blocks in one ``poll`` on
    a pidfd of the coordinator, which turns readable when it exits: no
    wake-up before that, so it never takes the GIL from a running task.
    Without pidfds it polls the parent pid instead (a dead coordinator's
    children are re-parented, so the parent pid changes).
    """
    try:
        pidfd = os.pidfd_open(coordinator)
    except (AttributeError, OSError):
        while os.getppid() == coordinator:
            time.sleep(_PARENT_POLL_SECONDS)
    else:
        if os.getppid() == coordinator:  # else the pid may be a stranger's
            watch = select.poll()
            watch.register(pidfd, select.POLLIN)
            watch.poll()
    os._exit(1)


def _worker_loop(conn, initializer, init_args, coordinator: int) -> None:
    """Body of one worker process.

    Protocol (worker's view): send ``("ready", pid)`` once initialised, then
    loop — receive ``(task_id, ticket, attempt, payload)`` or the ``None``
    shutdown sentinel, ack ``("started", task_id)``, run the task, reply
    ``("result", task_id, status, body)``.  Initialisation failure sends
    ``("init_error", detail)`` and exits, so the coordinator can tell a
    broken environment from a crash.  The process exits on its own once the
    coordinator dies, also mid-task.
    """
    threading.Thread(
        target=_exit_with_coordinator, args=(coordinator,), name="slp-worker-watch", daemon=True
    ).start()
    try:
        task_fn = initializer(*init_args)
    except BaseException as exc:
        try:
            conn.send(("init_error", "{}: {}".format(type(exc).__name__, exc)))
        except Exception:
            pass
        return
    try:
        conn.send(("ready", os.getpid()))
    except Exception:
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, ticket, attempt, payload = message
        # Ack before executing: the coordinator can now tell a worker that
        # is *running* a task (hard watchdog applies, no retry) from one that
        # never picked it up at all (dispatch lost to a sick worker — retry
        # on a respawn instead of burning the whole watchdog budget).
        try:
            conn.send(("started", task_id))
        except Exception:
            return
        try:
            status, body = task_fn(payload, ticket, attempt)
            if status not in _TASK_STATUSES:
                status, body = "error", "task returned unknown status {!r}".format(status)
        except MemoryError:
            body, status = "MemoryError while proving", "oom"
        except BaseException as exc:
            summary = traceback.format_exception_only(type(exc), exc)
            status, body = "error", "".join(summary).strip()
        try:
            conn.send(("result", task_id, status, body))
        except (EOFError, BrokenPipeError):
            return
        except Exception as exc:
            # The body would not pickle (or blew the pipe mid-serialise): the
            # result exists but cannot be delivered.  Report that instead of
            # silently dying, so the coordinator retries with full knowledge.
            try:
                conn.send(
                    (
                        "result",
                        task_id,
                        "error",
                        "undeliverable result: {}: {}".format(type(exc).__name__, exc),
                    )
                )
            except Exception:
                return


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


def _fork_context():
    """Prefer ``fork`` (cheap respawns, inherited env), else the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


class _Task:
    """One submission while the reactor holds it."""

    __slots__ = ("payload", "deliver", "priority", "attempt", "elapsed")

    def __init__(self, payload: Any, deliver: Callable[[Any], None], priority: int):
        self.payload = payload
        self.deliver = deliver
        self.priority = priority
        #: The attempt in flight (or queued next); 1-based.
        self.attempt = 1
        #: Wall clock spent by finished attempts.
        self.elapsed = 0.0


class _Worker:
    """Coordinator-side record of one worker process."""

    __slots__ = ("process", "conn", "ready", "assignment", "acked", "spawned_at")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.ready = False
        #: ``(task_id, ticket, started_at)`` while busy, else None.
        self.assignment: Optional[Tuple[int, int, float]] = None
        #: Did the worker ack (``("started", task_id)``) the current assignment?
        self.acked = False
        #: When this worker process was forked (init-watchdog reference point).
        self.spawned_at = time.monotonic()


def _deliver(deliver: Callable[[Any], None], outcome: Any) -> None:
    try:
        deliver(outcome)
    except Exception:  # a consumer bug must not kill the reactor
        pass


def _react(pool_ref: "weakref.ReferenceType[SupervisedPool]") -> None:
    """Body of a pool's reactor thread: admit, dispatch, wait, consume, watch.

    The thread holds its pool strongly only between waits, so a started pool
    dropped without :meth:`SupervisedPool.close` is still collected, and its
    ``__del__`` closes it.  However the loop stops — closing, a broken pool,
    or a bug in this loop — every outstanding task is answered with a
    ``crash`` failure and later submissions are refused at once, so no
    caller ever waits on a ticket that will not be delivered.
    """
    pool = pool_ref()
    try:
        while pool is not None:
            waiting = pool._turn()
            if waiting is None:
                break
            pool = None  # wait without keeping a dropped pool alive
            try:
                ready = _wait_on_connections(*waiting)
            except (OSError, ValueError):
                # Closed pipes: the pool was closed under the wait, by its
                # ``__del__`` when this thread dropped the last reference.
                pool = pool_ref()
                if pool is None or pool._closed:
                    return
                raise
            pool = pool_ref()
            if pool is not None:
                pool._take(ready)
    except Exception as exc:  # a bug here: report it, answer everyone
        pool = pool_ref()
        if pool is not None:
            pool._broken = "reactor failed: {}: {}".format(type(exc).__name__, exc)
        try:
            traceback.print_exc()
        except Exception:
            pass  # stderr is gone (a closed pipe); the callers are answered anyway
    finally:
        if pool is not None:
            pool._stop()


class SupervisedPool:
    """Per-task dispatch over supervised worker processes.

    Parameters
    ----------
    jobs:
        Number of worker processes.
    initializer / init_args:
        Run once in each worker; must return the task function (see module
        docstring).  Must be picklable (module-level callables).
    task_timeout:
        Hard per-attempt wall-clock budget.  A worker holding a task longer
        is killed and the task fails as ``timeout`` — no retry, since the
        budget is a property of the instance, not of the worker.
    retries:
        How many times a *crashed* attempt is re-dispatched before the task
        is quarantined.  ``0`` quarantines on the first crash.

    :meth:`start` spawns the workers and the reactor thread; from then on
    the reactor alone touches the workers and the dispatch state.  Other
    threads only append to the intake under ``_intake_lock``.  The reactor
    holds the pool only weakly while it waits, so a started pool dropped
    without :meth:`close` is still collected, and ``__del__`` closes it.
    """

    def __init__(
        self,
        jobs: int,
        initializer: Callable[..., Callable[[Any, int, int], Tuple[str, Any]]],
        init_args: Sequence[Any] = (),
        task_timeout: Optional[float] = None,
        retries: int = 2,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got {}".format(jobs))
        if retries < 0:
            raise ValueError("retries must be >= 0, got {}".format(retries))
        self.jobs = jobs
        self.initializer = initializer
        self.init_args = tuple(init_args)
        self.task_timeout = task_timeout
        self.retries = retries
        self._context = _fork_context()
        self._workers: List[_Worker] = []
        self._task_ids = itertools.count(1)
        self._tickets = itertools.count(1)
        self._closed = False
        self._broken: Optional[str] = None
        self._init_failures = 0
        #: Workers killed-or-died and replaced over the pool's lifetime.
        self.respawned_workers = 0
        #: Attempts re-dispatched after a crash.
        self.retried = 0
        # The intake: ``(ticket, _Task)`` submissions and ``(ticket, None)``
        # withdrawals, in arrival order.  Once ``_refusal`` is set (closing,
        # or the reactor stopped) nothing more is appended; submissions are
        # answered at once with that detail instead.
        self._intake_lock = threading.Lock()
        self._intake: List[Tuple[int, Optional[_Task]]] = []
        self._refusal: Optional[str] = None
        self._reactor: Optional[threading.Thread] = None
        self._wakeup_recv: Optional[socket.socket] = None
        self._wakeup_send: Optional[socket.socket] = None
        # Reactor-owned dispatch state: outstanding tasks by ticket, the
        # ready queue as a heap of ``(-priority, seq, ticket)``, and retries
        # waiting out their backoff as a heap of ``(not_before, ticket)``.
        # A withdrawn ticket's heap entries are skipped when they surface.
        self._tasks: Dict[int, _Task] = {}
        self._pending: List[Tuple[int, int, int]] = []
        self._delayed: List[Tuple[float, int]] = []
        self._sequence = itertools.count()

    # -- worker lifecycle ---------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_loop,
            args=(child_conn, self.initializer, self.init_args, os.getpid()),
            daemon=True,
        )
        process.start()
        # The parent must drop its handle on the child end, or a dead worker
        # never reads as EOF (the parent itself keeps the pipe open).
        child_conn.close()
        return _Worker(process, parent_conn)

    def start(self) -> None:
        """Spawn the workers and the reactor thread (idempotent).

        Not thread-safe: callers that share a pool serialise the first
        start (the batch prover does it under its pool lock).  May raise
        ``OSError`` when worker processes cannot be created.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._reactor is not None:
            return
        while len(self._workers) < self.jobs:
            self._workers.append(self._spawn_worker())
        recv_end, send_end = socket.socketpair()
        recv_end.setblocking(False)
        send_end.setblocking(False)
        self._wakeup_recv, self._wakeup_send = recv_end, send_end
        self._reactor = threading.Thread(
            target=_react, args=(weakref.ref(self),), name="slp-pool-reactor", daemon=True
        )
        self._reactor.start()

    @staticmethod
    def _kill_worker(worker: _Worker) -> None:
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(0.5)
            if process.is_alive():
                process.kill()
                process.join(0.5)
        try:
            worker.conn.close()
        except Exception:
            pass

    def _respawn(self, worker: _Worker) -> None:
        self._kill_worker(worker)
        self.respawned_workers += 1
        if self._broken is not None:
            return
        try:
            replacement = self._spawn_worker()
        except OSError as exc:
            self._broken = "cannot respawn worker: {}".format(exc)
            return
        worker.process = replacement.process
        worker.conn = replacement.conn
        worker.ready = False
        worker.assignment = None
        worker.acked = False
        worker.spawned_at = replacement.spawned_at

    def _init_failed(self, reason: str) -> None:
        self._init_failures += 1
        if self._init_failures > self.jobs + _INIT_FAILURE_SLACK:
            self._broken = reason

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        payload: Any,
        deliver: Callable[[Any], None],
        priority: int = 0,
    ) -> int:
        """Enqueue one task (thread-safe); return its ticket.

        ``deliver(outcome)`` is invoked exactly once — usually on the
        reactor thread — with the task function's ``body`` on success, else
        a :class:`FailureInfo`, unless the ticket is withdrawn first (an
        abandoned :meth:`run` withdraws its tickets).  Higher ``priority``
        is dispatched first, FIFO among equals; a retried attempt keeps its
        task's rank.  A task submitted to a pool that is closing or broken
        is answered at once, on the calling thread, with a ``crash``
        failure.
        """
        ticket = next(self._tickets)
        task = _Task(payload, deliver, int(priority))
        with self._intake_lock:
            refusal = self._refusal
            # Only the first item of an intake needs a wake-up: the reactor
            # takes the whole intake at once.
            wake = not self._intake
            if refusal is None:
                self._intake.append((ticket, task))
        if refusal is not None:
            deliver(FailureInfo(kind="crash", detail=refusal))
        elif wake:
            self._wake_reactor()
        return ticket

    def run(self, payloads: Iterable[Any]) -> Iterator[Tuple[int, Any]]:
        """Execute every payload; yield ``(index, outcome)`` as they finish.

        ``outcome`` is the task function's ``body`` on success, else a
        :class:`FailureInfo`.  Every index is yielded exactly once, in
        completion order; abandoning the iterator withdraws the rest.
        """
        self.start()
        yield from self._stream(enumerate(payloads), 0)

    def _stream(
        self, keyed_payloads: Iterable[Tuple[Any, Any]], priority: int
    ) -> Iterator[Tuple[Any, Any]]:
        """Submit each ``(key, payload)``; yield ``(key, outcome)`` as answered.

        Every key is yielded exactly once.  Abandoning the iterator withdraws
        the rest: the reactor drops the queued ones and kills and respawns
        the workers running the others (their results have no consumer),
        leaving the pool reusable.
        """
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        tickets = {
            key: self.submit(
                payload, lambda outcome, key=key: done.put((key, outcome)), priority
            )
            for key, payload in keyed_payloads
        }
        try:
            while tickets:
                key, outcome = done.get()
                del tickets[key]
                yield key, outcome
        finally:
            if tickets:
                with self._intake_lock:
                    if self._refusal is None:
                        self._intake.extend((ticket, None) for ticket in tickets.values())
                self._wake_reactor()

    def _wake_reactor(self) -> None:
        sender = self._wakeup_send
        if sender is None:
            return
        try:
            sender.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # the reactor has unread wake bytes already, or is gone

    # -- the reactor --------------------------------------------------------

    def _turn(self) -> Optional[Tuple[List[Any], Optional[float]]]:
        """Admit, release and dispatch; return what to wait on and for how
        long, or ``None`` once closing or broken (a broken pool's killed
        workers have closed pipes, which must not reach the wait)."""
        if not self._admit() or self._broken is not None:
            return None
        self._release_delayed()
        self._dispatch_pending()
        if self._broken is not None:
            return None
        wait_on: List[Any] = [worker.conn for worker in self._workers]
        wait_on.append(self._wakeup_recv)
        return wait_on, self._wait_timeout()

    def _take(self, ready: List[Any]) -> None:
        """Act on a finished wait: drain wake-ups, read workers, sweep."""
        if self._wakeup_recv in ready:
            try:
                while self._wakeup_recv.recv(4096):
                    pass
            except (BlockingIOError, OSError):
                pass
        for worker in list(self._workers):
            if worker.conn in ready:
                self._consume(worker)
        self._watchdog_sweep()

    def _stop(self) -> None:
        """The reactor's last act: refuse new work, answer what is outstanding."""
        with self._intake_lock:
            # Unset only when the pool broke: closing sets it first.
            if self._refusal is None:
                self._refusal = "worker pool broken: {}".format(self._broken)
            detail = self._refusal
            items, self._intake = self._intake, []
        for ticket, task in items:
            if task is None:
                self._tasks.pop(ticket, None)
            else:
                self._tasks[ticket] = task
        for ticket, task in list(self._tasks.items()):
            self._finish(
                ticket, FailureInfo(kind="crash", attempts=task.attempt, detail=detail)
            )
        if self._broken is not None:
            for worker in self._workers:
                self._kill_worker(worker)

    def _admit(self) -> bool:
        """Take in submissions and withdrawals; ``False`` once closing."""
        with self._intake_lock:
            items, self._intake = self._intake, []
            closing = self._refusal is not None
        withdrawn = set()
        for ticket, task in items:
            if task is not None:
                self._tasks[ticket] = task
                self._enqueue(ticket)
            elif self._tasks.pop(ticket, None) is not None:
                withdrawn.add(ticket)
        for worker in self._workers:
            if worker.assignment is not None and worker.assignment[1] in withdrawn:
                worker.assignment = None
                self._respawn(worker)  # its result has no consumer
        return not closing

    def _enqueue(self, ticket: int) -> None:
        priority = self._tasks[ticket].priority
        heapq.heappush(self._pending, (-priority, next(self._sequence), ticket))

    def _finish(self, ticket: int, outcome: Any) -> None:
        task = self._tasks.pop(ticket, None)
        if task is not None:
            _deliver(task.deliver, outcome)

    def _release_delayed(self) -> None:
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            _, ticket = heapq.heappop(self._delayed)
            if ticket in self._tasks:
                self._enqueue(ticket)

    def _dispatch_pending(self) -> None:
        while self._pending:
            worker = next(
                (w for w in self._workers if w.ready and w.assignment is None), None
            )
            if worker is None:
                return
            _, _, ticket = heapq.heappop(self._pending)
            task = self._tasks.get(ticket)
            if task is None:
                continue  # withdrawn while queued
            task_id = next(self._task_ids)
            try:
                worker.conn.send((task_id, ticket, task.attempt, task.payload))
            except Exception:
                # The worker died while idle; the attempt never started.
                self._enqueue(ticket)
                self._respawn(worker)
                if self._broken is not None:
                    return
                continue
            worker.assignment = (task_id, ticket, time.monotonic())
            worker.acked = False

    def _wait_timeout(self) -> Optional[float]:
        now = time.monotonic()
        horizons = []
        if self._delayed:
            horizons.append(self._delayed[0][0] - now)
        for worker in self._workers:
            assignment = worker.assignment
            if assignment is not None:
                if not worker.acked:
                    horizons.append(assignment[2] + ACK_TIMEOUT - now)
                elif self.task_timeout is not None:
                    horizons.append(assignment[2] + self.task_timeout - now)
            elif not worker.ready:
                horizons.append(worker.spawned_at + INIT_TIMEOUT - now)
        if not horizons:
            return None
        return max(0.01, min(horizons))

    def _consume(self, worker: _Worker) -> None:
        """Read one event from a readable worker pipe and act on it."""
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._on_worker_death(worker)
            return
        tag = message[0]
        if tag == "ready":
            worker.ready = True
            self._init_failures = 0
        elif tag == "started":
            assignment = worker.assignment
            if assignment is not None and assignment[0] == message[1]:
                worker.acked = True
        elif tag == "init_error":
            # The worker exits after reporting; the EOF that follows respawns
            # it (or the broken flag stops the reactor).
            self._init_failed("workers cannot initialise: {}".format(message[1]))
        elif tag == "result":
            _, task_id, status, body = message
            assignment = worker.assignment
            if assignment is None or assignment[0] != task_id:
                return  # stale reply from a task whose attempt was written off
            worker.assignment = None
            ticket = assignment[1]
            task = self._tasks[ticket]
            task.elapsed += time.monotonic() - assignment[2]
            if status == "ok":
                self._finish(ticket, body)
            elif status == "timeout":
                self._finish(
                    ticket,
                    FailureInfo(
                        kind="timeout",
                        attempts=task.attempt,
                        elapsed=task.elapsed,
                        detail="cooperative deadline",
                        statistics=body,
                    ),
                )
            elif status == "oom":
                self._finish(
                    ticket,
                    FailureInfo(
                        kind="oom", attempts=task.attempt, elapsed=task.elapsed, detail=str(body)
                    ),
                )
            else:  # "error": the attempt failed but the worker survived
                self._retry_or_quarantine(ticket, str(body))

    def _on_worker_death(self, worker: _Worker) -> None:
        assignment = worker.assignment
        exit_code = worker.process.exitcode
        worker.assignment = None
        if not worker.ready and assignment is None:
            # Died during initialisation without even an init_error message.
            self._init_failed(
                "workers die during initialisation (exit code {})".format(exit_code)
            )
        self._respawn(worker)
        if assignment is not None:
            _, ticket, started_at = assignment
            self._tasks[ticket].elapsed += time.monotonic() - started_at
            self._retry_or_quarantine(ticket, "worker died (exit code {})".format(exit_code))

    def _retry_or_quarantine(self, ticket: int, detail: str) -> None:
        task = self._tasks[ticket]
        if task.attempt <= self.retries:
            self.retried += 1
            backoff = backoff_seconds(task.attempt)
            task.attempt += 1
            if backoff <= 0.0:
                self._enqueue(ticket)
            else:
                heapq.heappush(self._delayed, (time.monotonic() + backoff, ticket))
            return
        kind = "crash" if self.retries == 0 else "retries_exhausted"
        self._finish(
            ticket,
            FailureInfo(kind=kind, attempts=task.attempt, elapsed=task.elapsed, detail=detail),
        )

    def _watchdog_sweep(self) -> None:
        now = time.monotonic()
        for worker in self._workers:
            assignment = worker.assignment
            if assignment is None:
                # No task in flight; check the init watchdog — a worker that
                # never reports ready would otherwise starve dispatch forever
                # (no EOF to react to, nothing for the task watchdog to see).
                if not worker.ready and now - worker.spawned_at > INIT_TIMEOUT:
                    self._init_failed(
                        "workers hang during initialisation "
                        "(no ready within {:.0f}s)".format(INIT_TIMEOUT)
                    )
                    self._respawn(worker)
                continue
            _, ticket, started_at = assignment
            overrun = now - started_at
            if not worker.acked:
                # The worker never even picked the task up.  A healthy worker
                # acks within microseconds, so past ACK_TIMEOUT the dispatch
                # is written off as lost and the attempt retried on a fresh
                # worker — spending the whole task budget here would punish
                # the task for the worker's sickness.
                if overrun <= ACK_TIMEOUT:
                    continue
                worker.assignment = None
                self._respawn(worker)
                self._tasks[ticket].elapsed += overrun
                self._retry_or_quarantine(
                    ticket,
                    "worker never started the task (no ack within {:.1f}s)".format(ACK_TIMEOUT),
                )
                continue
            if self.task_timeout is None or overrun <= self.task_timeout:
                continue
            worker.assignment = None
            self._respawn(worker)
            task = self._tasks[ticket]
            self._finish(
                ticket,
                FailureInfo(
                    kind="timeout",
                    attempts=task.attempt,
                    elapsed=task.elapsed + overrun,
                    detail="hard watchdog kill after {:.2f}s".format(overrun),
                ),
            )

    # -- teardown -----------------------------------------------------------

    def close(self, drain_seconds: Optional[float] = None) -> None:
        """Stop the reactor, then drain the workers; escalate on deadline.

        Outstanding tasks are answered with ``crash`` failures.  Idempotent:
        safe to call any number of times, from ``__exit__``, ``__del__`` and
        explicit call sites alike.  ``__del__`` may run on the reactor
        thread itself, when the reactor held the last reference; it then
        does not wait for the reactor, which stops once the pool is gone.
        """
        if self._closed:
            return
        self._closed = True
        budget = DRAIN_SECONDS if drain_seconds is None else drain_seconds
        with self._intake_lock:
            if self._refusal is None:
                self._refusal = "pool closed with the task outstanding"
        self._wake_reactor()
        reactor = self._reactor
        if reactor is not None and reactor is not threading.current_thread():
            reactor.join(max(1.0, budget))
        # A reactor that never started leaves its submissions here.
        with self._intake_lock:
            items, self._intake = self._intake, []
        for _, task in items:
            if task is not None:
                _deliver(task.deliver, FailureInfo(kind="crash", detail=self._refusal))
        for sock in (self._wakeup_recv, self._wakeup_send):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._wakeup_recv = self._wakeup_send = None
        deadline = time.monotonic() + max(0.0, budget)
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        for worker in self._workers:
            remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(remaining)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(0.5)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers = []

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close(drain_seconds=0.1)
        except Exception:
            pass
