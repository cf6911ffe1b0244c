"""A small harness that reproduces the layout of the paper's Tables 1-3.

The paper reports, for each row of each table, the total wall-clock time each
prover spends on a batch of entailments, showing ``(p%)`` — the fraction of
instances solved — when the prover hits its time budget.  The harness below
runs the three provers (SLP, the Smallfoot-style baseline and the jStar-style
baseline) over a batch with a configurable per-batch budget and renders the
same row format.

The benchmark scripts in ``benchmarks/`` use this module both for the
pytest-benchmark measurements and for printing the full comparison tables that
``EXPERIMENTS.md`` records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.baselines.jstar import JStarProver
from repro.baselines.smallfoot import SmallfootProver
from repro.core.batch import BatchProver
from repro.core.cache import ProofCache
from repro.core.config import ProverConfig
from repro.core.prover import Prover, ProverTimeout
from repro.core.result import ProofResult
from repro.logic.formula import Entailment


@dataclass
class ProverRun:
    """The result of running one prover over one batch of entailments."""

    name: str
    elapsed: float = 0.0
    attempted: int = 0
    solved: int = 0
    valid: int = 0
    timed_out: bool = False

    @property
    def cell(self) -> str:
        """The paper-style table cell: seconds, or ``(p%)`` on a timeout."""
        if self.timed_out:
            fraction = 0.0 if self.attempted == 0 else self.solved / self.attempted
            return "({:.0f}%)".format(100.0 * fraction)
        return "{:.2f}".format(self.elapsed)


def _slp_checker(
    config: Optional[ProverConfig] = None, max_seconds: Optional[float] = None
) -> Callable[[Entailment], Optional[bool]]:
    prover = Prover(
        (config or ProverConfig()).for_benchmarking().with_timeout(max_seconds)
    )

    def check(entailment: Entailment) -> Optional[bool]:
        try:
            return prover.prove(entailment).is_valid
        except ProverTimeout:
            # Undecided within the per-instance budget: unsolved, exactly
            # like the baselines, so the paper-style (p%) cells are honest.
            return None

    return check


def _smallfoot_checker(max_seconds: float = 5.0) -> Callable[[Entailment], Optional[bool]]:
    prover = SmallfootProver(max_seconds=max_seconds)

    def check(entailment: Entailment) -> Optional[bool]:
        result = prover.prove(entailment)
        if result.verdict.value == "unknown":
            return None
        return result.is_valid

    return check


def _jstar_checker(max_seconds: float = 5.0) -> Callable[[Entailment], Optional[bool]]:
    prover = JStarProver(max_seconds=max_seconds)

    def check(entailment: Entailment) -> Optional[bool]:
        result = prover.prove(entailment)
        # The jStar rule set is incomplete: "unknown" counts as an answer (it
        # is what the real tool reports), so the run is never a timeout, it is
        # simply unable to prove some instances.
        return result.is_valid

    return check


def default_checkers(
    per_instance_timeout: float = 5.0,
) -> Dict[str, Callable[[Entailment], Optional[bool]]]:
    """The three provers compared throughout the evaluation.

    Every checker — SLP included — honours ``per_instance_timeout`` by
    answering ``None`` for instances it cannot decide within the budget.
    """
    return {
        "jstar": _jstar_checker(per_instance_timeout),
        "smallfoot": _smallfoot_checker(per_instance_timeout),
        "slp": _slp_checker(max_seconds=per_instance_timeout),
    }


def run_batch(
    name: str,
    check: Callable[[Entailment], Optional[bool]],
    entailments: Sequence[Entailment],
    budget_seconds: Optional[float] = None,
) -> ProverRun:
    """Run one prover over a batch, honouring a total wall-clock budget.

    The checker returns ``True``/``False`` for a decided instance and ``None``
    when it gave up (only the Smallfoot baseline does, when its per-instance
    budget is exhausted); undecided instances count as unsolved.
    """
    run = ProverRun(name=name)
    start = time.perf_counter()
    for entailment in entailments:
        run.attempted += 1
        answer = check(entailment)
        if answer is not None:
            run.solved += 1
            if answer:
                run.valid += 1
        run.elapsed = time.perf_counter() - start
        if budget_seconds is not None and run.elapsed > budget_seconds:
            break
    run.elapsed = time.perf_counter() - start
    _finalise_timeout(run, len(entailments))
    return run


def _finalise_timeout(run: ProverRun, total: int) -> None:
    """One (p%)-cell rule for every prover column, so cells stay comparable.

    A run shows the paper-style ``(p%)`` cell when it could not decide the
    whole batch — the wall budget cut it off before attempting every
    instance, or individual instances exhausted their own budget.
    """
    run.timed_out = run.attempted < total or run.solved < run.attempted


def run_slp_batch(
    entailments: Sequence[Entailment],
    per_instance_timeout: Optional[float] = 5.0,
    budget_seconds: Optional[float] = None,
    jobs: int = 1,
    cache: Union[bool, ProofCache] = True,
    config: Optional[ProverConfig] = None,
    name: str = "slp",
) -> ProverRun:
    """Run SLP over a batch through the batch engine.

    This is the SLP analogue of :func:`run_batch`: the per-instance budget is
    enforced inside the prover (instances that exceed it count as unsolved),
    results stream back as they complete so the wall-clock budget cuts the
    run off promptly even with several workers in flight, and alpha-equivalent
    instances are answered from the proof cache.  Pass
    ``cache=ProofCache(path=...)`` to back it with an on-disk proof store
    (the caller closes it).
    """
    prover_config = (
        (config or ProverConfig()).for_benchmarking().with_timeout(per_instance_timeout)
    )
    run = ProverRun(name=name)
    start = time.perf_counter()
    with BatchProver(prover_config, jobs=jobs, cache=cache) as batch:
        for _, result in batch.iter_results(entailments):
            run.attempted += 1
            # Structured failures (timeout/oom/quarantined crash) count as
            # unsolved, exactly like the baselines' ``None`` answers.
            if isinstance(result, ProofResult):
                run.solved += 1
                if result.is_valid:
                    run.valid += 1
            run.elapsed = time.perf_counter() - start
            if budget_seconds is not None and run.elapsed > budget_seconds:
                break
    run.elapsed = time.perf_counter() - start
    _finalise_timeout(run, len(entailments))
    return run


@dataclass
class TableRow:
    """One row of a paper-style comparison table."""

    label: str
    runs: Dict[str, ProverRun] = field(default_factory=dict)
    extra: Dict[str, str] = field(default_factory=dict)

    def cells(self, order: Sequence[str]) -> List[str]:
        return [self.runs[name].cell if name in self.runs else "-" for name in order]


def format_table(
    title: str,
    rows: Sequence[TableRow],
    prover_order: Sequence[str] = ("jstar", "smallfoot", "slp"),
    extra_columns: Sequence[str] = (),
) -> str:
    """Render rows in the style of the paper's tables."""
    header = ["", *extra_columns, *prover_order]
    lines = [title, "  ".join("{:>12}".format(column) for column in header)]
    for row in rows:
        cells = [row.label]
        cells.extend(row.extra.get(column, "-") for column in extra_columns)
        cells.extend(row.cells(prover_order))
        lines.append("  ".join("{:>12}".format(cell) for cell in cells))
    return "\n".join(lines)


def compare_on_batch(
    label: str,
    entailments: Sequence[Entailment],
    per_instance_timeout: float = 5.0,
    budget_seconds: Optional[float] = None,
    extra: Optional[Dict[str, str]] = None,
    slp_jobs: int = 1,
    slp_cache: Union[bool, ProofCache] = False,
) -> TableRow:
    """Run all three provers on a batch and collect a table row.

    The SLP column goes through :class:`~repro.core.batch.BatchProver`:
    ``slp_jobs`` parallelises it and ``slp_cache`` controls alpha-equivalence
    memoisation.  Caching defaults to **off** here so that the paper-style
    columns keep the one-prove-per-instance methodology the baselines use;
    opt in (or pass a shared :class:`ProofCache`) when measuring the batch
    engine itself rather than the underlying prover.
    """
    row = TableRow(label=label, extra=dict(extra or {}))
    for name, check in default_checkers(per_instance_timeout).items():
        if name == "slp":
            row.runs[name] = run_slp_batch(
                entailments,
                per_instance_timeout=per_instance_timeout,
                budget_seconds=budget_seconds,
                jobs=slp_jobs,
                cache=slp_cache,
            )
        else:
            row.runs[name] = run_batch(name, check, entailments, budget_seconds)
    return row
