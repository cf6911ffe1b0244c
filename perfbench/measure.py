"""What a pass observed, the percentile rule, host speed, and process memory."""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie beyond it.
TAIL_SAMPLES = 10

#: The speed probe: this many additions in a pure-Python loop, timed in the
#: calling thread's CPU time (so waiting for a CPU or the GIL does not count).
PROBE_LOOP = 20_000
#: The probe's CPU time on the reference host (a 2-core VM) in its fast
#: phase.  Times are reported at that speed: see :class:`Speed`.
PROBE_REFERENCE_S = 0.0007
#: A scale uses the probes taken within this many seconds of its interval,
#: and at least ``PROBE_MIN_SAMPLES`` of the nearest ones.
PROBE_WINDOW_S = 0.5
PROBE_MIN_SAMPLES = 5
#: The probe child of :func:`probing` probes once per this many seconds
#: (about 1.5% of one CPU).
PROBE_PERIOD_S = 0.05


@dataclass
class Pass:
    """What one pass over a workload's inputs observed.

    Workloads :meth:`record` each correctly decided operation's interval and
    the timed region's :meth:`segment`\\ s in ``perf_counter()`` seconds;
    :meth:`finish` turns them into latencies and elapsed time at the
    reference speed (:class:`Speed`).
    """

    operations: List[Tuple[float, float, bool]] = field(default_factory=list)  # start, end, hit
    segments: List[Tuple[float, float]] = field(default_factory=list)  # the timed region
    latencies: List[float] = field(default_factory=list)  # seconds, one per operation
    hits: List[float] = field(default_factory=list)  # answered wholly from a cache
    misses: List[float] = field(default_factory=list)  # at least one entailment proved
    raw_latencies: List[float] = field(default_factory=list)  # as timed, before scaling
    attempted: int = 0
    failed: int = 0
    decided: int = 0  # entailments with a correct verdict
    elapsed: float = 0.0  # the timed region, seconds
    raw_elapsed: float = 0.0
    counts: List[list] = field(default_factory=list)  # deterministic program counts
    failures: List[str] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)  # open-loop generator lag, seconds

    def fail(self, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(detail)

    def record(self, start: float, end: float, hit: bool = False) -> None:
        self.decided += 1
        self.operations.append((start, end, hit))

    def segment(self, start: float, end: float) -> None:
        self.segments.append((start, end))

    def finish(self, speed: Speed, scale_elapsed: bool = True) -> "Pass":
        """Fill the latencies and elapsed time, scaled to the reference speed.

        An open loop's elapsed time is its schedule's, so ``serve`` leaves it
        unscaled (``scale_elapsed=False``).
        """
        for start, end, hit in self.operations:
            latency = (end - start) * speed.scale(start, end)
            self.raw_latencies.append(end - start)
            self.latencies.append(latency)
            (self.hits if hit else self.misses).append(latency)
        self.raw_elapsed = sum(end - start for start, end in self.segments)
        self.elapsed = (
            sum((end - start) * speed.scale(start, end) for start, end in self.segments)
            if scale_elapsed else self.raw_elapsed
        )
        return self

    @property
    def throughput(self) -> float:
        return self.decided / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def raw_throughput(self) -> float:
        return self.decided / self.raw_elapsed if self.raw_elapsed > 0 else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the value at rank ``ceil(q * n)`` (1-based)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank strictly above the ``q`` percentile."""
    return count - max(1, math.ceil(q * count - 1e-9))


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples support the ``q`` percentile (ten beyond it)."""
    return samples_beyond(count, q) >= TAIL_SAMPLES


def probe() -> float:
    """CPU seconds the calling thread needs for the fixed probe loop."""
    started = time.thread_time()
    total = 0
    for value in range(PROBE_LOOP):
        total += value
    return time.thread_time() - started


def scale_of(probes: Sequence[float]) -> float:
    """The factor that brings a time measured alongside ``probes`` to the
    reference speed."""
    return PROBE_REFERENCE_S / statistics.median(probes)


def probe_every_cpu() -> List[float]:
    """One :func:`probe` on each CPU the calling thread may use, moving the
    thread there and back (``sched_setaffinity`` applies to one thread)."""
    allowed = os.sched_getaffinity(0)
    try:
        results = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            results.append(probe())
        return results
    finally:
        os.sched_setaffinity(0, allowed)


class Speed:
    """The host's speed over time, from probes interleaved with the work.

    The benchmark's host is a VM whose CPUs change speed by up to 2x, each
    on its own, in phases of seconds to minutes (a fixed loop's CPU time
    moves with them, so it is the VM's CPU that slows, not a wait for it).
    Work is therefore timed alongside :func:`probe`\\ s: on the working
    thread between operations when one thread does the work (``table1``),
    from a :func:`probing` child when several processes share it, and on
    every CPU in turn around a set-up.  :meth:`scale` turns the probes taken
    around an interval into the factor that brings a time measured in it to
    the reference speed: ``PROBE_REFERENCE_S`` over their median.  The probe
    is the benchmark's own code, so no change to the program moves it.
    """

    def __init__(self) -> None:
        self.times: List[float] = []  # perf_counter() after each probe
        self.probes: List[float] = []  # probe CPU seconds

    def sample(self, count: int = 1, every_cpu: bool = False) -> None:
        """``count`` probes on this thread's CPU, or ``count`` on each CPU
        this process may use (for work spread over several processes)."""
        for _ in range(count):
            for seconds in probe_every_cpu() if every_cpu else [probe()]:
                self.times.append(time.perf_counter())
                self.probes.append(seconds)

    def extend(self, samples: Sequence[Tuple[float, float]]) -> None:
        """Add ``(time, probe seconds)`` pairs taken elsewhere, in time order."""
        for when, seconds in sorted(samples):
            position = bisect.bisect(self.times, when)
            self.times.insert(position, when)
            self.probes.insert(position, seconds)

    def scale(self, start: float, end: float) -> float:
        """Reference speed over the speed around ``[start, end]``."""
        if not self.probes:
            raise ValueError("no speed probes")
        low = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        high = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        while high - low < min(PROBE_MIN_SAMPLES, len(self.times)):
            # Widen towards whichever neighbour is nearer the interval.
            before = start - self.times[low - 1] if low > 0 else math.inf
            after = self.times[high] - end if high < len(self.times) else math.inf
            if before <= after:
                low -= 1
            else:
                high += 1
        return scale_of(self.probes[low:high])

    def overall(self) -> float:
        """The scale of every probe taken (for set-up, which has few)."""
        return scale_of(self.probes)


@contextlib.contextmanager
def probing(speed: Speed) -> Iterator[None]:
    """Probe the host's speed from a child process while the block runs.

    Work spread over several processes (``batch``'s pool, ``serve``'s server)
    leaves the harness no quiet thread to probe on, and the speed can change
    while one long operation runs.  The child probes each CPU in turn every
    ``PROBE_PERIOD_S`` until the block ends; its probes are then added to
    ``speed``.
    """
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        yield
    finally:
        child.stdin.close()  # the child's signal to stop
        output = child.stdout.read()
        child.stdout.close()
        child.wait()
    speed.extend([(when, seconds) for when, seconds in json.loads(output)])


def _probe_until_stdin_closes() -> None:
    """The child of :func:`probing`: prints its ``(time, probe seconds)``
    pairs as JSON once standard input closes."""
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    while not select.select([sys.stdin], [], [], PROBE_PERIOD_S)[0]:
        os.sched_setaffinity(0, {cpus[len(samples) % len(cpus)]})
        seconds = probe()
        samples.append((time.perf_counter(), seconds))
    print(json.dumps(samples), flush=True)


def reset_peak_rss(pids: Sequence[int]) -> None:
    """Restart ``VmHWM`` at the current RSS, so peaks reached earlier (the
    harness building its inputs) do not count.  Writing ``5`` to
    ``clear_refs`` does that (Linux 4.0 and later)."""
    for pid in pids:
        try:
            with open("/proc/{}/clear_refs".format(pid), "w") as handle:
                handle.write("5")
        except (FileNotFoundError, ProcessLookupError):
            pass  # the process has exited


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one live process, in kB (0 if gone)."""
    try:
        with open("/proc/{}/status".format(pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children(pid: int) -> List[int]:
    """Live direct children of ``pid`` (scans ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces and parentheses: split after it.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            found.append(int(entry))
    return found


def tree(pid: int) -> List[int]:
    """A process and its live direct children."""
    return [pid] + children(pid)


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS of a process and its live direct children, in MB."""
    return sum(peak_rss_kb(member) for member in tree(pid)) / 1024.0


if __name__ == "__main__":
    _probe_until_stdin_closes()
