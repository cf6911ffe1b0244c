"""Proof recording and reconstruction (the Figure 4 proof trees).

The prover records every inference it performs — superposition steps on pure
clauses, normalisation, well-formedness and unfolding steps on spatial clauses
— in a :class:`ProofTrace`.  When the empty clause is derived, the trace is
turned into a :class:`Proof`: a numbered, topologically sorted derivation in
which every step names the rule applied and the indices of its premises, i.e.
a linearised form of the proof tree shown in Figure 4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.logic.clauses import Clause, EMPTY_CLAUSE
from repro.logic.printer import format_clause

#: Rule name used for clauses that come straight from the clausal embedding.
INPUT_RULE = "cnf"


class ProofGapError(RuntimeError):
    """Raised when a refutation cannot be rebuilt from the recorded trace.

    A clause on the way to the root has no recorded derivation, or its
    recorded derivation depends on itself.  Either means the prover failed to
    record a step, so the proof would not be a proof.
    """


@dataclass(frozen=True)
class ProofStep:
    """One line of a linearised proof."""

    index: int
    clause: Clause
    rule: str
    premises: Tuple[int, ...] = ()
    note: str = ""

    def __str__(self) -> str:
        premise_text = ", ".join(str(p) for p in self.premises)
        rule_text = self.rule if not premise_text else "{}: {}".format(self.rule, premise_text)
        return "{:>3}. {:<60} [{}]".format(self.index, format_clause(self.clause), rule_text)


@dataclass(frozen=True)
class TraceRecord:
    """How one clause was derived: the rule and the premise clauses."""

    conclusion: Clause
    rule: str
    premises: Tuple[Clause, ...] = ()
    note: str = ""


class ProofTrace:
    """An append-only log of every inference performed during a proof attempt.

    The first record for a clause wins: if a clause is later re-derived by a
    different inference, the original derivation is kept, which keeps the
    reconstructed proof well-founded.
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._by_clause: Dict[Clause, TraceRecord] = {}

    def record(
        self,
        conclusion: Clause,
        rule: str,
        premises: Sequence[Clause] = (),
        note: str = "",
    ) -> None:
        """Log the derivation of ``conclusion`` from ``premises`` by ``rule``."""
        record = TraceRecord(conclusion, rule, tuple(premises), note)
        self._records.append(record)
        if conclusion not in self._by_clause:
            self._by_clause[conclusion] = record

    def record_input(self, clause: Clause, note: str = "") -> None:
        """Log an input clause (a member of ``cnf(E)``)."""
        self.record(clause, INPUT_RULE, (), note)

    def derivation_of(self, clause: Clause) -> Optional[TraceRecord]:
        """The recorded derivation of ``clause``, if any."""
        return self._by_clause.get(clause)

    def __len__(self) -> int:
        return len(self._records)

    # -- reconstruction -------------------------------------------------------
    def build_refutation(self, root: Clause = EMPTY_CLAUSE) -> "Proof":
        """Reconstruct the sub-derivation ending in ``root`` (usually the empty clause).

        Raises :class:`ProofGapError` when a clause needed on the way has no
        recorded derivation or lies on a cycle of them.
        """
        numbering: Dict[Clause, int] = {}
        steps: List[ProofStep] = []
        # A post-order walk on an explicit stack, so that a deep refutation
        # cannot overflow Python's.  Each entry is a clause on the path from
        # the root, its record and an iterator over its premises still to
        # visit.
        stack: List[Tuple[Clause, TraceRecord, Iterator[Clause]]] = []
        on_path: Set[Clause] = set()
        self._descend(root, stack, on_path)
        while stack:
            clause, record, premises = stack[-1]
            for premise in premises:
                if premise not in numbering:
                    self._descend(premise, stack, on_path)
                    break
            else:
                stack.pop()
                on_path.remove(clause)
                index = len(steps) + 1
                numbering[clause] = index
                premise_indices = tuple(numbering[premise] for premise in record.premises)
                steps.append(ProofStep(index, clause, record.rule, premise_indices, record.note))
        return Proof(tuple(steps))

    def _descend(
        self,
        clause: Clause,
        stack: List[Tuple[Clause, TraceRecord, Iterator[Clause]]],
        on_path: Set[Clause],
    ) -> None:
        """Push ``clause`` on the walk's stack, or raise the gap it reveals."""
        if clause in on_path:
            raise ProofGapError(
                "the recorded derivation of {} depends on itself".format(
                    format_clause(clause)
                )
            )
        record = self._by_clause.get(clause)
        if record is None:
            raise ProofGapError("no recorded derivation of {}".format(format_clause(clause)))
        on_path.add(clause)
        stack.append((clause, record, iter(record.premises)))


@dataclass(frozen=True)
class Proof:
    """A linearised SI derivation (ending, for refutations, in the empty clause)."""

    steps: Tuple[ProofStep, ...]

    @property
    def conclusion(self) -> Clause:
        """The clause established by the last step."""
        return self.steps[-1].clause

    @property
    def is_refutation(self) -> bool:
        """True when the proof derives the empty clause."""
        return self.conclusion.is_empty

    def rules_used(self) -> Tuple[str, ...]:
        """The distinct rule names appearing in the proof, in order of first use."""
        seen: List[str] = []
        for step in self.steps:
            if step.rule not in seen:
                seen.append(step.rule)
        return tuple(seen)

    def step_for(self, clause: Clause) -> Optional[ProofStep]:
        """The step deriving ``clause``, if present in the proof."""
        for step in self.steps:
            if step.clause == clause:
                return step
        return None

    def format(self) -> str:
        """Render the proof as numbered lines (a linearised Figure 4)."""
        return "\n".join(str(step) for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __str__(self) -> str:
        return self.format()
