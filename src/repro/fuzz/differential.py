"""The differential fuzzing campaign driver.

One campaign iteration manufactures an entailment (the **original**), usually
derives a **mutant** from it with a random metamorphic transform, and pushes
both through the production proving stack — :class:`~repro.core.batch.BatchProver`
with the proof cache enabled, so every campaign also exercises the worker
pool, alpha-equivalence fingerprinting and in-batch deduplication of PR 2.
The primary verdicts are then cross-checked two ways:

* **differentially** — every instance is re-checked by each oracle in the
  battery (bounded enumeration, the reference configuration, optionally the
  baselines); any decided-and-different pair of verdicts is a finding;
* **metamorphically** — the (original, mutant) verdict pair is checked
  against the transform's :class:`~repro.fuzz.metamorphic.VerdictRelation`;
  a violated relation is a finding even when every verdict source agrees,
  because it needs no oracle at all.

Findings are delta-debugged to minimal reproducers
(:mod:`repro.fuzz.shrinker`) and optionally written to a regression corpus
(:mod:`repro.fuzz.corpus`).  Oracle crashes are findings too — a prover that
trips its own counterexample verification has been caught, not crashed the
campaign.

Everything is deterministic in ``(seed, iterations, profile)``: instance
``i`` and its mutation draws come from per-index seeded generators, so a
campaign can be replayed, extended, or bisected without re-running earlier
indices.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.batch import BatchProver
from repro.core.cache import ProofCache
from repro.core.config import ProverConfig
from repro.core.faults import FaultPlan
from repro.core.result import ProofResult
from repro.core.store import RunJournal
from repro.fuzz.corpus import save_reproducer
from repro.fuzz.generator import EntailmentGenerator, FuzzCase, GeneratorProfile
from repro.fuzz.metamorphic import Transform, applicable_transforms
from repro.fuzz.oracles import (
    EnumerationOracle,
    Oracle,
    ProverOracle,
    default_oracles,
)
from repro.fuzz.shrinker import ShrinkResult, shrink
from repro.logic.canonical import TooSymmetricError, canonicalize
from repro.logic.formula import Entailment

__all__ = ["Disagreement", "FuzzReport", "run_campaign"]


#: Verdict rendering shared by the report and the CLI.
def _verdict_str(answer: Optional[bool]) -> str:
    if answer is None:
        return "undecided"
    return "valid" if answer else "invalid"


@dataclass
class Disagreement:
    """One finding: differential split, metamorphic violation, or crash."""

    kind: str  # "differential" | "metamorphic" | "crash"
    index: int
    strategy: str
    entailment: Entailment
    verdicts: Dict[str, str] = field(default_factory=dict)
    transform: Optional[str] = None
    detail: str = ""
    shrunk: Optional[Entailment] = None
    shrunk_conjuncts: Optional[int] = None
    expected_valid: Optional[bool] = None
    corpus_path: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "index": self.index,
            "strategy": self.strategy,
            "entailment": str(self.entailment),
            "verdicts": dict(sorted(self.verdicts.items())),
            "transform": self.transform,
            "detail": self.detail,
            "shrunk": None if self.shrunk is None else str(self.shrunk),
            "shrunk_conjuncts": self.shrunk_conjuncts,
            "expected": None
            if self.expected_valid is None
            else _verdict_str(self.expected_valid),
            "corpus_path": self.corpus_path,
        }


@dataclass
class FuzzReport:
    """Aggregated outcome of one campaign."""

    seed: int
    iterations: int
    instances_checked: int = 0
    valid: int = 0
    invalid: int = 0
    undecided: int = 0
    mutants: int = 0
    per_strategy: Dict[str, int] = field(default_factory=dict)
    per_transform: Dict[str, int] = field(default_factory=dict)
    oracle_checks: Dict[str, int] = field(default_factory=dict)
    oracle_decided: Dict[str, int] = field(default_factory=dict)
    metamorphic_pairs_checked: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    jobs: int = 1
    retried: int = 0
    respawned_workers: int = 0
    injected_faults: int = 0
    quarantined: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        """True when the campaign produced no findings."""
        return not self.disagreements

    def to_json(self, include_timing: bool = True) -> Dict[str, object]:
        """A JSON-ready summary.  ``include_timing=False`` gives the
        deterministic projection (used by the determinism tests)."""
        payload: Dict[str, object] = {
            "seed": self.seed,
            "iterations": self.iterations,
            "instances_checked": self.instances_checked,
            "verdicts": {
                "valid": self.valid,
                "invalid": self.invalid,
                "undecided": self.undecided,
            },
            "mutants": self.mutants,
            "per_strategy": dict(sorted(self.per_strategy.items())),
            "per_transform": dict(sorted(self.per_transform.items())),
            "oracle_checks": dict(sorted(self.oracle_checks.items())),
            "oracle_decided": dict(sorted(self.oracle_decided.items())),
            "metamorphic_pairs_checked": self.metamorphic_pairs_checked,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
            "disagreements": [finding.to_json() for finding in self.disagreements],
        }
        if include_timing:
            payload["jobs"] = self.jobs
            payload["elapsed_seconds"] = round(self.elapsed_seconds, 3)
            payload["supervision"] = {
                "retried": self.retried,
                "respawned_workers": self.respawned_workers,
                "injected_faults": self.injected_faults,
                "quarantined": self.quarantined,
            }
        return payload

    def summary_lines(self) -> List[str]:
        """The human-readable campaign summary the CLI prints."""
        lines = [
            "fuzz campaign: seed={} iterations={} jobs={}".format(
                self.seed, self.iterations, self.jobs
            ),
            "checked {} entailments ({} mutants): {} valid, {} invalid, {} undecided".format(
                self.instances_checked, self.mutants, self.valid, self.invalid, self.undecided
            ),
            "strategies: "
            + ", ".join(
                "{}={}".format(name, count)
                for name, count in sorted(self.per_strategy.items())
            ),
            "oracles: "
            + ", ".join(
                "{}={}/{}".format(name, self.oracle_decided.get(name, 0), count)
                for name, count in sorted(self.oracle_checks.items())
            ),
            "metamorphic pairs checked: {}".format(self.metamorphic_pairs_checked),
            "batch engine: {} cache hits, {} deduplicated".format(
                self.cache_hits, self.deduplicated
            ),
            "elapsed: {:.2f}s".format(self.elapsed_seconds),
        ]
        if self.injected_faults or self.retried or self.respawned_workers:
            lines.insert(
                -1,
                "supervision: {} faults injected, {} retries, {} workers respawned,"
                " {} quarantined".format(
                    self.injected_faults,
                    self.retried,
                    self.respawned_workers,
                    self.quarantined,
                ),
            )
        if self.clean:
            lines.append("no disagreements found")
        else:
            lines.append("{} DISAGREEMENT(S):".format(len(self.disagreements)))
            for finding in self.disagreements:
                lines.append(
                    "  [{}] #{} {}: {}".format(
                        finding.kind, finding.index, finding.strategy, finding.entailment
                    )
                )
                if finding.verdicts:
                    lines.append(
                        "      verdicts: "
                        + ", ".join(
                            "{}={}".format(k, v) for k, v in sorted(finding.verdicts.items())
                        )
                    )
                if finding.detail:
                    lines.append("      {}".format(finding.detail))
                if finding.shrunk is not None:
                    lines.append(
                        "      shrunk ({} conjuncts): {}".format(
                            finding.shrunk_conjuncts, finding.shrunk
                        )
                    )
                if finding.corpus_path:
                    lines.append("      reproducer: {}".format(finding.corpus_path))
        return lines


@dataclass(frozen=True)
class _WorkItem:
    """One entailment headed for the batch: an original or a mutant."""

    case: FuzzCase
    entailment: Entailment
    is_mutant: bool
    transform: Optional[Transform] = None
    original_slot: Optional[int] = None  # batch slot of the original (mutants only)


def _mutation_rng(seed: int, index: int) -> random.Random:
    return random.Random("slp-fuzz-mut:{}:{}".format(seed, index))


def _plan(
    seed: int,
    iterations: int,
    profile: Optional[GeneratorProfile],
    p_transform: float,
) -> List[_WorkItem]:
    """Generate the campaign's work list: originals plus derived mutants."""
    generator = EntailmentGenerator(seed=seed, profile=profile)
    items: List[_WorkItem] = []
    for case in generator.cases(iterations):
        slot = len(items)
        items.append(_WorkItem(case=case, entailment=case.entailment, is_mutant=False))
        rng = _mutation_rng(seed, case.index)
        if rng.random() >= p_transform:
            continue
        candidates = applicable_transforms(case.entailment)
        if not candidates:
            continue
        transform = rng.choice(list(candidates))
        mutant = transform.apply(case.entailment, rng)
        if mutant is None:
            continue
        items.append(
            _WorkItem(
                case=case,
                entailment=mutant,
                is_mutant=True,
                transform=transform,
                original_slot=slot,
            )
        )
    return items


def _prove_batch(
    items: Sequence[_WorkItem],
    config: ProverConfig,
    jobs: int,
    report: FuzzReport,
    primary_oracle: Optional[Oracle] = None,
    fault_plan: Optional[FaultPlan] = None,
    retries: int = 2,
) -> List[Optional[bool]]:
    """Primary verdicts through the batch engine, one structured outcome per task.

    The supervised pool turns worker failures into per-task
    :class:`~repro.core.supervisor.FailureInfo` outcomes — a crashing
    instance is retried, then quarantined, and reported as a ``crash``
    finding without taking the campaign (or the other instances of its
    chunk, as the old whole-batch rerun did) down with it.  Budget
    exhaustion (``timeout``/``oom``) counts as undecided, not a finding;
    failures the campaign injected itself (chaos mode) are bookkept but
    never reported as prover bugs.  Tests may inject a ``primary_oracle``
    (e.g. a deliberately broken prover for mutation-testing the detectors),
    which takes a guarded sequential path instead.
    """
    if primary_oracle is not None:
        verdicts: List[Optional[bool]] = []
        for item in items:
            try:
                verdicts.append(primary_oracle.check(item.entailment))
            except Exception as error:  # noqa: BLE001
                verdicts.append(None)
                report.disagreements.append(
                    Disagreement(
                        kind="crash",
                        index=item.case.index,
                        strategy=item.case.strategy,
                        entailment=item.entailment,
                        transform=item.transform.name if item.transform else None,
                        detail="prover raised {}: {}".format(type(error).__name__, error),
                    )
                )
        return verdicts

    entailments = [item.entailment for item in items]
    # Injection disturbs per-index execution; the cache would short-circuit
    # targeted indices (hiding the fault) and echo leaders into followers,
    # so chaos campaigns run uncached.
    with BatchProver(
        config,
        jobs=jobs,
        cache=fault_plan is None,
        fault_plan=fault_plan,
        retries=retries,
    ) as batch:
        results = batch.prove_all(entailments)
        statistics = batch.statistics
    report.cache_hits = statistics.cache_hits
    report.deduplicated = statistics.deduplicated
    report.retried = statistics.retried
    report.respawned_workers = statistics.respawned_workers
    report.injected_faults = statistics.injected_faults
    report.quarantined = statistics.quarantined
    verdicts = []
    for item, outcome in zip(items, results):
        if isinstance(outcome, ProofResult):
            verdicts.append(outcome.is_valid)
            continue
        verdicts.append(None)
        if outcome.injected:
            continue  # the campaign disturbed this index itself
        if outcome.kind in ("timeout", "oom"):
            continue  # undecided within budget — honest, not a bug
        report.disagreements.append(
            Disagreement(
                kind="crash",
                index=item.case.index,
                strategy=item.case.strategy,
                entailment=item.entailment,
                transform=item.transform.name if item.transform else None,
                detail="prover task failed: {}".format(outcome.summary()),
            )
        )
    return verdicts


def _profile_digest(profile: Optional[GeneratorProfile]) -> Optional[str]:
    """A stable fingerprint of the generator profile for journal metadata."""
    if profile is None:
        return None
    knobs = (
        profile.min_variables,
        profile.max_variables,
        profile.max_spatial,
        profile.max_pure,
        profile.p_next,
        tuple(sorted(profile.weights.items())),
    )
    return hashlib.sha256(repr(knobs).encode("utf-8")).hexdigest()[:16]


def _config_digest(config: ProverConfig) -> str:
    """A stable fingerprint of the prover configuration (frozen dataclass)."""
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


def _reconstruct_batch_counters(
    items: Sequence[_WorkItem],
    verdicts: Sequence[Optional[bool]],
    report: FuzzReport,
) -> None:
    """Deterministic ``cache_hits``/``deduplicated`` for checkpointed runs.

    A resumed campaign proves only the pending tail, so the live batch
    engine's counters describe the *remainder*, not the campaign — and the
    resumed run's persistent store serves disk hits a fresh run would not
    see.  The deterministic report projection must be bit-identical either
    way, so both are reconstructed structurally:

    * every campaign starts with an empty cache and looks all slots up
      before executing any, so an uninterrupted run's ``cache_hits`` is 0;
    * ``deduplicated`` counts alpha-equivalent followers of a leader that
      reached a verdict (followers of a timed-out leader are echoed
      failures, not deduplications; followers of a crashed leader are
      re-dispatched on their own merits).
    """
    report.cache_hits = 0
    leader_verdict: Dict[tuple, Optional[bool]] = {}
    deduplicated = 0
    for slot, item in enumerate(items):
        try:
            key = canonicalize(item.entailment).key
        except TooSymmetricError:
            continue
        if key in leader_verdict:
            if leader_verdict[key] is not None:
                deduplicated += 1
        else:
            leader_verdict[key] = verdicts[slot]
    report.deduplicated = deduplicated


def _prove_batch_journaled(
    items: Sequence[_WorkItem],
    config: ProverConfig,
    jobs: int,
    report: FuzzReport,
    retries: int,
    run_dir: str,
    journal: RunJournal,
    restored: Dict[int, Dict[str, object]],
) -> List[Optional[bool]]:
    """The checkpointed twin of :func:`_prove_batch`.

    Restored slots keep their journaled verdicts; pending slots stream
    through the batch engine (backed by the run directory's persistent proof
    store) and are journaled *as they complete* — a SIGKILL loses only
    in-flight instances.  Crash findings are re-created from the journal for
    restored slots and emitted in slot order either way, matching the
    uninterrupted driver.
    """
    verdicts: List[Optional[bool]] = [None] * len(items)
    crash_details: Dict[int, str] = {}
    for slot, record in restored.items():
        if not 0 <= slot < len(items):
            continue
        value = record.get("v")
        verdicts[slot] = value if isinstance(value, bool) else None
        detail = record.get("crash")
        if isinstance(detail, str):
            crash_details[slot] = detail
    pending = [slot for slot in range(len(items)) if slot not in restored]
    cache = ProofCache(path=os.path.join(run_dir, "proofs.slp"))
    try:
        with BatchProver(config, jobs=jobs, cache=cache, retries=retries) as batch:
            for position, outcome in batch.iter_results(
                [items[slot].entailment for slot in pending]
            ):
                slot = pending[position]
                record: Dict[str, object] = {"t": "primary", "s": slot}
                if isinstance(outcome, ProofResult):
                    verdicts[slot] = outcome.is_valid
                    record["v"] = outcome.is_valid
                else:
                    record["v"] = None
                    if not outcome.injected and outcome.kind not in ("timeout", "oom"):
                        detail = "prover task failed: {}".format(outcome.summary())
                        crash_details[slot] = detail
                        record["crash"] = detail
                try:
                    journal.append(record)
                except OSError:
                    pass  # checkpointing is resilience, not a reason to fail
            statistics = batch.statistics
    finally:
        cache.close()
    report.retried = statistics.retried
    report.respawned_workers = statistics.respawned_workers
    report.injected_faults = statistics.injected_faults
    report.quarantined = statistics.quarantined
    for slot in sorted(crash_details):
        item = items[slot]
        report.disagreements.append(
            Disagreement(
                kind="crash",
                index=item.case.index,
                strategy=item.case.strategy,
                entailment=item.entailment,
                transform=item.transform.name if item.transform else None,
                detail=crash_details[slot],
            )
        )
    _reconstruct_batch_counters(items, verdicts, report)
    return verdicts


def _ground_truth(
    oracles: Sequence[Oracle], verdicts: Dict[str, Optional[bool]]
) -> Optional[bool]:
    """Best-available expected verdict among ``verdicts``, by oracle trust order."""
    for oracle in oracles:  # default_oracles orders by trust
        answer = verdicts.get(oracle.name)
        if answer is not None:
            return answer
    return None


def _disagreement_predicate(primary: Oracle, other: Oracle):
    """The shrinking predicate: both sources decide, and they still differ."""

    def predicate(entailment: Entailment) -> bool:
        try:
            ours = primary.check(entailment)
            theirs = other.check(entailment)
        except Exception:  # noqa: BLE001 - still-crashing candidates stay interesting
            return True
        return ours is not None and theirs is not None and ours != theirs

    return predicate


def run_campaign(
    seed: int = 0,
    iterations: int = 200,
    jobs: int = 1,
    profile: Optional[GeneratorProfile] = None,
    oracles: Optional[Sequence[Oracle]] = None,
    include_baselines: bool = False,
    max_enum_variables: int = 3,
    p_transform: float = 0.6,
    timeout: Optional[float] = None,
    shrink_findings: bool = True,
    corpus_dir: Optional[str] = None,
    config: Optional[ProverConfig] = None,
    primary_oracle: Optional[Oracle] = None,
    fault_plan: Optional[FaultPlan] = None,
    retries: int = 2,
    run_dir: Optional[str] = None,
    resume: bool = False,
) -> FuzzReport:
    """Run one differential fuzzing campaign and return its report.

    Parameters mirror the ``repro fuzz`` CLI.  ``oracles`` overrides the
    default battery (tests inject buggy oracles this way); ``primary_oracle``
    replaces the batch-engine primary entirely (mutation-testing the
    metamorphic detector needs a lying primary); when ``corpus_dir`` is
    given, every shrunk finding is written there as a ``.ent`` reproducer.

    Chaos mode: ``fault_plan`` injects deterministic worker faults into the
    primary batch (kills, hangs, allocation bombs — see
    :mod:`repro.core.faults`).  The campaign itself must survive: injected
    failures count as undecided, never as findings, and ``retries`` controls
    how often a crashed instance is re-dispatched before quarantine.

    Checkpointing: with ``run_dir``, the campaign journals every completed
    unit of work (primary verdicts as the batch streams them, oracle answers
    per slot) and backs the proof cache with a persistent store in that
    directory.  After a crash or SIGKILL, the same invocation with
    ``resume=True`` skips the journaled work and produces a report whose
    deterministic projection (:meth:`FuzzReport.to_json` without timing) is
    bit-identical to an uninterrupted run.  Checkpointing composes with
    neither chaos mode nor an injected ``primary_oracle`` (both exist to
    disturb execution, which is exactly what a replayed journal must not
    preserve).
    """
    start = time.perf_counter()
    prover_config = (
        config if config is not None else ProverConfig(record_proof=False)
    ).with_timeout(timeout)
    battery: Sequence[Oracle] = (
        oracles
        if oracles is not None
        else default_oracles(
            max_enum_variables=max_enum_variables,
            include_baselines=include_baselines,
            max_seconds=timeout,
        )
    )

    journal: Optional[RunJournal] = None
    restored_primary: Dict[int, Dict[str, object]] = {}
    restored_oracles: Dict[int, Dict[str, object]] = {}
    if run_dir is not None:
        if fault_plan is not None or primary_oracle is not None:
            raise ValueError(
                "checkpointing (run_dir) does not compose with fault injection"
                " or an injected primary oracle"
            )
        os.makedirs(run_dir, exist_ok=True)
        meta = {
            "kind": "slp-fuzz",
            "seed": seed,
            "iterations": iterations,
            "profile": _profile_digest(profile),
            "p_transform": p_transform,
            "timeout": timeout,
            "include_baselines": include_baselines,
            "max_enum_variables": max_enum_variables,
            "oracles": sorted(oracle.name for oracle in battery),
            "config": _config_digest(prover_config),
        }
        journal, completed = RunJournal.open_run(
            os.path.join(run_dir, "journal.slp"), meta, resume=resume
        )
        for record in completed:
            slot = record.get("s")
            if not isinstance(slot, int):
                continue
            if record.get("t") == "primary":
                restored_primary[slot] = record
            elif record.get("t") == "oracles":
                restored_oracles[slot] = record
    elif resume:
        raise ValueError("resume needs a run_dir to resume from")

    try:
        report = FuzzReport(seed=seed, iterations=iterations, jobs=jobs)
        items = _plan(seed, iterations, profile, p_transform)
        if journal is not None:
            primary = _prove_batch_journaled(
                items,
                prover_config,
                jobs,
                report,
                retries,
                run_dir,
                journal,
                restored_primary,
            )
        else:
            primary = _prove_batch(
                items,
                prover_config,
                jobs,
                report,
                primary_oracle,
                fault_plan=fault_plan,
                retries=retries,
            )

        # --------------------------------------------------------------
        # Differential pass: every instance against every oracle.  Oracle
        # answers (and crashes) are collected first — from the journal for
        # restored slots, by running the battery otherwise — and then
        # accounted uniformly in battery order, so a resumed campaign
        # produces findings in exactly the order an uninterrupted one does.
        # --------------------------------------------------------------
        oracle_verdicts: List[Dict[str, Optional[bool]]] = []
        for slot, item in enumerate(items):
            report.instances_checked += 1
            report.per_strategy[item.case.strategy] = (
                report.per_strategy.get(item.case.strategy, 0) + 1
            )
            if item.is_mutant:
                report.mutants += 1
                assert item.transform is not None
                report.per_transform[item.transform.name] = (
                    report.per_transform.get(item.transform.name, 0) + 1
                )
            verdict = primary[slot]
            if verdict is None:
                report.undecided += 1
            elif verdict:
                report.valid += 1
            else:
                report.invalid += 1

            answers: Dict[str, Optional[bool]] = {"slp": verdict}
            crashes: Dict[str, str] = {}
            restored = restored_oracles.get(slot)
            if restored is not None:
                stored = restored.get("a")
                stored = stored if isinstance(stored, dict) else {}
                for oracle in battery:
                    raw = stored.get(oracle.name)
                    answers[oracle.name] = raw if isinstance(raw, bool) else None
                for crash in restored.get("crashes") or ():
                    if (
                        isinstance(crash, dict)
                        and isinstance(crash.get("o"), str)
                        and isinstance(crash.get("detail"), str)
                    ):
                        crashes[crash["o"]] = crash["detail"]
            else:
                for oracle in battery:
                    try:
                        answers[oracle.name] = oracle.check(item.entailment)
                    except Exception as error:  # noqa: BLE001 - crash is a finding
                        answers[oracle.name] = None
                        crashes[oracle.name] = "oracle {} raised {}: {}".format(
                            oracle.name, type(error).__name__, error
                        )
                if journal is not None:
                    record: Dict[str, object] = {
                        "t": "oracles",
                        "s": slot,
                        "a": {oracle.name: answers[oracle.name] for oracle in battery},
                    }
                    if crashes:
                        record["crashes"] = [
                            {"o": name, "detail": detail}
                            for name, detail in crashes.items()
                        ]
                    try:
                        journal.append(record)
                    except OSError:
                        pass

            for oracle in battery:
                report.oracle_checks[oracle.name] = (
                    report.oracle_checks.get(oracle.name, 0) + 1
                )
                if oracle.name in crashes:
                    report.disagreements.append(
                        Disagreement(
                            kind="crash",
                            index=item.case.index,
                            strategy=item.case.strategy,
                            entailment=item.entailment,
                            transform=item.transform.name if item.transform else None,
                            detail=crashes[oracle.name],
                        )
                    )
                    continue
                answer = answers[oracle.name]
                if answer is not None:
                    report.oracle_decided[oracle.name] = (
                        report.oracle_decided.get(oracle.name, 0) + 1
                    )
                if answer is not None and verdict is not None and answer != verdict:
                    report.disagreements.append(
                        Disagreement(
                            kind="differential",
                            index=item.case.index,
                            strategy=item.case.strategy,
                            entailment=item.entailment,
                            transform=item.transform.name if item.transform else None,
                            verdicts={
                                "slp": _verdict_str(verdict),
                                oracle.name: _verdict_str(answer),
                            },
                            detail="slp and {} split on the same instance".format(
                                oracle.name
                            ),
                        )
                    )
            oracle_verdicts.append(answers)

        # ------------------------------------------------------------------
        # Metamorphic pass: verdict pairs against the transform relations.
        # ------------------------------------------------------------------
        for slot, item in enumerate(items):
            if not item.is_mutant:
                continue
            assert item.transform is not None and item.original_slot is not None
            original_verdict = primary[item.original_slot]
            mutant_verdict = primary[slot]
            if original_verdict is None or mutant_verdict is None:
                continue
            report.metamorphic_pairs_checked += 1
            expected = item.transform.relation.expected(original_verdict)
            if expected is None or mutant_verdict == expected:
                continue
            report.disagreements.append(
                Disagreement(
                    kind="metamorphic",
                    index=item.case.index,
                    strategy=item.case.strategy,
                    entailment=item.entailment,
                    transform=item.transform.name,
                    verdicts={
                        "original": _verdict_str(original_verdict),
                        "mutant": _verdict_str(mutant_verdict),
                    },
                    detail=(
                        "transform {} [{}] expected the mutant to be {}; original: {}".format(
                            item.transform.name,
                            item.transform.relation,
                            _verdict_str(expected),
                            items[item.original_slot].entailment,
                        )
                    ),
                )
            )

        # ------------------------------------------------------------------
        # Shrink the findings and (optionally) bank reproducers.
        # ------------------------------------------------------------------
        if shrink_findings and report.disagreements:
            shrink_prover: Oracle = (
                primary_oracle if primary_oracle is not None else ProverOracle(prover_config)
            )
            by_name = {oracle.name: oracle for oracle in battery}
            # A systematic bug yields the same instance disagreeing with several
            # oracles (and many instances disagreeing the same way): shrink each
            # distinct entailment once, share the result, and bound the total
            # predicate evaluations so a finding avalanche cannot stall the
            # campaign before the report is written.
            shrunk_cache: Dict[Entailment, Optional[ShrinkResult]] = {}
            banked: Dict[Entailment, str] = {}  # shrunk entailment -> corpus path
            shrink_budget = 20_000
            for finding in report.disagreements:
                other: Optional[Oracle] = None
                if finding.kind == "differential":
                    disagreeing = [name for name in finding.verdicts if name != "slp"]
                    if disagreeing:
                        other = by_name.get(disagreeing[0])
                elif finding.kind == "metamorphic":
                    # Reduce to a differential shrink when any oracle also splits
                    # from the primary verdict on this mutant; otherwise the pair
                    # stays unshrunk (the relation needs both endpoints).
                    slot_answers = next(
                        (
                            answers
                            for it, answers in zip(items, oracle_verdicts)
                            if it.entailment == finding.entailment
                        ),
                        {},
                    )
                    ours = slot_answers.get("slp")
                    for oracle in battery:
                        answer = slot_answers.get(oracle.name)
                        if answer is not None and ours is not None and answer != ours:
                            other = oracle
                            break
                if other is None:
                    continue
                if finding.entailment in shrunk_cache:
                    result = shrunk_cache[finding.entailment]
                    if result is None:
                        continue
                elif shrink_budget <= 0:
                    continue
                else:
                    predicate = _disagreement_predicate(shrink_prover, other)
                    try:
                        result = shrink(
                            finding.entailment, predicate, max_candidates=min(shrink_budget, 2000)
                        )
                    except ValueError:
                        shrunk_cache[finding.entailment] = None
                        continue  # the disagreement did not reproduce standalone
                    shrink_budget -= result.candidates_tried
                    shrunk_cache[finding.entailment] = result
                finding.shrunk = result.entailment
                finding.shrunk_conjuncts = result.conjuncts
                truth_answers = {other.name: None}
                try:
                    truth_answers[other.name] = other.check(result.entailment)
                except Exception:  # noqa: BLE001
                    pass
                enum_oracle = next(
                    (o for o in battery if isinstance(o, EnumerationOracle)), None
                )
                if enum_oracle is not None and other is not enum_oracle:
                    try:
                        truth_answers[enum_oracle.name] = enum_oracle.check(result.entailment)
                    except Exception:  # noqa: BLE001
                        pass
                finding.expected_valid = _ground_truth(battery, truth_answers)
                if corpus_dir is not None and finding.expected_valid is not None:
                    if result.entailment in banked:
                        finding.corpus_path = banked[result.entailment]
                    else:
                        finding.corpus_path = save_reproducer(
                            corpus_dir,
                            result.entailment,
                            finding.expected_valid,
                            note=(
                                "shrunk from seed {} index {} ({}, {} finding vs {})".format(
                                    seed, finding.index, finding.strategy, finding.kind, other.name
                                )
                            ),
                        )
                        banked[result.entailment] = finding.corpus_path

        report.elapsed_seconds = time.perf_counter() - start
        return report
    finally:
        if journal is not None:
            journal.close()
