"""Incremental saturation of pure clauses (the ``Cns_I`` operator).

The Figure 3 algorithm repeatedly saturates a *growing* set of pure clauses:
each iteration of its loops adds the pure consequences of the spatial rules
and asks for the saturation again.  The :class:`SaturationEngine` therefore
keeps its state between calls — clauses added later are simply queued and the
given-clause loop resumes.

Besides the saturated set, the engine records, for every derived clause, the
inference that produced it (rule name and premises).  This record is what lets
the prover reconstruct a full SI proof tree (Figure 4 of the paper) once the
empty clause has been derived; a prover that records no proof builds its
engine without it.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.logic.clauses import Clause
from repro.logic.ordering import TermOrder
from repro.superposition.calculus import Inference, SuperpositionCalculus


class SaturationLimitError(RuntimeError):
    """Raised when saturation exceeds the configured clause budget."""


class DeadlineExceeded(RuntimeError):
    """Raised from inside the given-clause loop when the wall clock runs out.

    The prover arms the engine with :meth:`SaturationEngine.set_deadline`;
    the loop checks the clock before every given clause, so a cooperative
    timeout overruns by at most one inference step — not a whole
    saturation round, which on a pathological instance is an unbounded
    amount of work.  The prover converts this into a
    :class:`~repro.core.prover.ProverTimeout` carrying partial statistics.
    """


@dataclass
class SaturationResult:
    """Outcome of (re-)saturating the current clause set.

    Attributes
    ----------
    clauses:
        The saturated set of pure clauses (without redundant clauses).  The
        kernel engine materialises this tuple lazily — the prover's inner
        loop asks for a result every chunk and reads only ``refuted`` and
        ``complete``, so decoding the whole active set per round was pure
        overhead.
    refuted:
        True when the empty clause was derived, i.e. the set is unsatisfiable.
    derivations:
        For each derived clause, the inference that produced it.  Input
        clauses are absent from this mapping.  This is a *live read-only view*
        of the engine's record (copying it every round was a measurable cost);
        callers that need a frozen snapshot should ``dict(...)`` it.
    """

    clauses: Tuple[Clause, ...]
    refuted: bool
    derivations: Mapping[Clause, Inference] = field(default_factory=dict)
    complete: bool = True

    @staticmethod
    def lazy(
        clauses_factory,
        refuted: bool,
        derivations: Mapping[Clause, Inference],
        complete: bool,
    ) -> "SaturationResult":
        """A result whose ``clauses`` tuple is built on first access.

        The factory must close over an immutable snapshot of the clause set
        at call time (the kernel engine copies its active list), so the lazy
        result observes exactly what an eager one would have.
        """
        result = _LazyClausesResult((), refuted, derivations, complete)
        result.__dict__["_clauses_factory"] = clauses_factory
        return result

    def __contains__(self, clause: Clause) -> bool:
        return clause in self.clauses

    def __len__(self) -> int:
        return len(self.clauses)


class _LazyClausesResult(SaturationResult):
    """A :class:`SaturationResult` that materialises ``clauses`` on demand.

    The interception lives on this subclass only, so plain results — the
    symbolic engine's — keep C-level attribute lookups.
    """

    def __getattribute__(self, name):
        if name == "clauses":
            state = object.__getattribute__(self, "__dict__")
            factory = state.get("_clauses_factory")
            if factory is not None:
                state["_clauses_factory"] = None
                state["clauses"] = factory()
        return object.__getattribute__(self, name)


class SaturationEngine:
    """A given-clause saturation loop with subsumption and tautology deletion.

    Parameters
    ----------
    order:
        The term ordering used to constrain inferences.
    max_clauses:
        A safety budget; the fragment guarantees termination (there are only
        finitely many pure clauses over the problem's constants) but the bound
        protects against pathological blow-ups in benchmarks.
    use_kernel:
        Run the given-clause loop on the dense integer kernel
        (:class:`~repro.superposition.kernel.IntSaturationCore`), the
        production engine.  ``False`` runs the reference loop implemented
        here: symbolic clauses and linear scans for subsumption and
        inference partners.  Both derive identical clauses, in an identical
        order, with identical derivation records; inputs and outputs are
        symbolic :class:`Clause` objects either way (the kernel encodes and
        decodes at its boundary).
    record_derivations:
        Keep the derivation record of every generated clause (see
        :attr:`derivations`).  Only proof reconstruction reads it, so the
        prover turns it off when it records no proof; the search itself does
        not change.
    """

    def __init__(
        self,
        order: TermOrder,
        max_clauses: int = 200000,
        use_kernel: bool = True,
        record_derivations: bool = True,
    ):
        self.order = order
        self.calculus = SuperpositionCalculus(order)
        self.max_clauses = max_clauses
        if use_kernel:
            from repro.superposition.kernel import IntSaturationCore

            self._core: Optional[IntSaturationCore] = IntSaturationCore(
                order, max_clauses, record_derivations=record_derivations
            )
            return
        self._record_derivations = record_derivations
        self._core = None
        self._deadline: Optional[float] = None
        self._active: List[Clause] = []
        self._active_set: Set[Clause] = set()
        # Passive clauses are processed smallest-first (by literal count), which
        # finds refutations early and keeps the generated-clause count low.
        self._passive: List[Tuple[int, int, Clause]] = []
        self._passive_set: Set[Clause] = set()
        self._tick = itertools.count()
        self._seen: Set[Clause] = set()
        self._derivations: Dict[Clause, Inference] = {}
        self._refuted = False
        self._generated_count = 0

    # -- public API ----------------------------------------------------------
    @property
    def refuted(self) -> bool:
        """True once the empty clause has been derived."""
        if self._core is not None:
            return self._core.refuted
        return self._refuted

    @property
    def derivations(self) -> Mapping[Clause, Inference]:
        """A read-only view of the recorded derivation of every generated clause.

        Empty when the engine was built with ``record_derivations=False``.
        """
        if self._core is not None:
            return self._core.derivations
        return MappingProxyType(self._derivations)

    @property
    def generated_count(self) -> int:
        """Total number of clauses generated so far (a work measure for benchmarks)."""
        if self._core is not None:
            return self._core.generated_count
        return self._generated_count

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Arm (or clear) the in-loop wall-clock deadline.

        ``deadline`` is an absolute ``time.perf_counter()`` instant.  Once
        armed, :meth:`saturate` raises :class:`DeadlineExceeded` before
        processing any given clause past the instant.
        """
        if self._core is not None:
            self._core.deadline = deadline
        else:
            self._deadline = deadline

    def add_clauses(self, clauses: Iterable[Clause]) -> None:
        """Queue new input pure clauses for the next saturation round.

        A clause that equality resolution simplifies is queued in its
        simplified form, recorded as an ``equality-resolution`` step from the
        clause as given, so a refutation through it has no gap.
        """
        if self._core is not None:
            self._core.add_clauses(clauses)
            return
        for clause in clauses:
            if not clause.is_pure:
                raise ValueError("the saturation engine only accepts pure clauses")
            simplified = self.calculus.simplify(clause)
            if simplified is clause:
                self._enqueue(clause, inference=None)
            else:
                self._enqueue(
                    simplified, Inference(simplified, "equality-resolution", (clause,))
                )

    def saturate(self, max_given: Optional[int] = None) -> SaturationResult:
        """Run the given-clause loop, optionally bounding the work of this call.

        The engine is incremental: calling :meth:`add_clauses` followed by
        :meth:`saturate` again resumes from the previous state.  With
        ``max_given`` set, at most that many given clauses are processed; the
        returned result's ``complete`` flag tells whether the passive queue
        was exhausted (i.e. the clause set is fully saturated).  Callers that
        only need a *verified* candidate model — like the prover's inner loop
        — use the bounded form and simply resume when model generation reports
        a problem.
        """
        if self._core is not None:
            return self._core.saturate(max_given)
        processed = 0
        deadline = self._deadline
        while self._passive and not self._refuted:
            if max_given is not None and processed >= max_given:
                break
            if deadline is not None and time.perf_counter() > deadline:
                raise DeadlineExceeded("saturation ran past its wall-clock deadline")
            given = self._pop_passive()
            if given is None:
                break
            processed += 1
            given = self.calculus.simplify(given)
            if given.is_empty:
                self._register_active(given)
                self._refuted = True
                break
            if self.calculus.is_tautology(given):
                continue
            if self._is_subsumed_by_active(given):
                continue
            self._remove_subsumed_active(given)
            self._register_active(given)

            new_inferences: List[Inference] = []
            new_inferences.extend(self.calculus.infer_within(given))
            partners = [other for other in list(self._active) if other is not given]
            for other in partners:
                new_inferences.extend(self.calculus.infer_between(given, other))
                new_inferences.extend(self.calculus.infer_between(other, given))
            # Self-superposition (the clause used as both premises).
            new_inferences.extend(self.calculus.infer_between(given, given))

            for inference in new_inferences:
                self._enqueue(inference.conclusion, inference)
                if self._refuted:
                    break

        return SaturationResult(
            clauses=tuple(self._active),
            refuted=self._refuted,
            derivations=MappingProxyType(self._derivations),
            complete=not self._passive or self._refuted,
        )

    def known_pure_clauses(self) -> Tuple[Clause, ...]:
        """Every non-redundant clause currently known (active and still-passive).

        Model generation verifies its candidate against this whole set, so that
        a model produced from a *partially* saturated set still satisfies every
        clause the prover has derived so far.
        """
        if self._core is not None:
            return self._core.known_pure_clauses()
        passive = [clause for _, _, clause in self._passive if clause in self._passive_set]
        return tuple(self._active) + tuple(passive)

    def dense_core(self):
        """The kernel core, or ``None`` on the reference engine.

        The incremental model generator pairs with the core directly (raw
        :class:`~repro.superposition.kernel.IntClause` feed, no decoding);
        everything else should go through this facade.
        """
        return self._core

    def clauses(self) -> Tuple[Clause, ...]:
        """The currently active (saturated so far) clauses."""
        if self._core is not None:
            return self._core.clauses()
        return tuple(self._active)

    def is_known(self, clause: Clause) -> bool:
        """Would adding ``clause`` leave the saturated set unchanged?

        Used by the prover's fixpoint tests (lines 10 and 14 of the Figure 3
        algorithm): a clause brings no new information when it is a tautology,
        has already been generated, or is subsumed by an active clause.
        """
        if self._core is not None:
            return self._core.is_known(clause)
        simplified = self.calculus.simplify(clause)
        if self.calculus.is_tautology(simplified):
            return True
        if simplified in self._seen:
            return True
        return self._is_subsumed_by_active(simplified)

    # -- internals -----------------------------------------------------------
    def _enqueue(self, clause: Clause, inference: Optional[Inference]) -> None:
        clause = self.calculus.simplify(clause)
        if clause in self._seen:
            return
        self._seen.add(clause)
        self._generated_count += 1
        if self._generated_count > self.max_clauses:
            raise SaturationLimitError(
                "saturation exceeded the budget of {} clauses".format(self.max_clauses)
            )
        if inference is not None and self._record_derivations:
            self._derivations[clause] = inference
        if clause.is_empty:
            self._register_active(clause)
            self._refuted = True
            return
        weight = len(clause.gamma) + len(clause.delta)
        heapq.heappush(self._passive, (weight, next(self._tick), clause))
        self._passive_set.add(clause)

    def _pop_passive(self) -> Optional[Clause]:
        while self._passive:
            _, _, clause = heapq.heappop(self._passive)
            if clause in self._passive_set:
                self._passive_set.discard(clause)
                return clause
        return None

    def _register_active(self, clause: Clause) -> None:
        if clause not in self._active_set:
            self._active.append(clause)
            self._active_set.add(clause)

    def _is_subsumed_by_active(self, clause: Clause) -> bool:
        return any(active.subsumes(clause) for active in self._active)

    def _remove_subsumed_active(self, clause: Clause) -> None:
        survivors = [active for active in self._active if not clause.subsumes(active)]
        if len(survivors) != len(self._active):
            self._active = survivors
            self._active_set = set(survivors)
