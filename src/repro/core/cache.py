"""A proof cache keyed on canonical forms (alpha-equivalence memoisation).

Batch workloads — the paper's table batches, the symbolic-execution VC stream,
CLI files — are full of entailments that are *renamings* of each other: loop
unrollings re-emit the same invariant-preservation obligation with fresh
cursor names, cloned benchmark instances differ only in variable indices, and
so on.  Verdicts, proofs and counterexamples all transport along such
renamings, so proving one representative per alpha-equivalence class is
enough.

:class:`ProofCache` implements that memoisation as an LRU map from the
canonical fingerprint (:mod:`repro.logic.canonical`) to a
:class:`CacheEntry`: the verdict plus the proof/counterexample expressed in
the *canonical* vocabulary ``c1..cn``.  :meth:`CacheEntry.answer` is the one
way an entry answers an alpha-equivalent request, for cache hits and for the
batch engine's in-batch echoes alike: it renames the counterexample back and
checks that it falsifies the request, and renames the proof only when the
request asked for one.  So callers cannot tell a cached result from a fresh
one, apart from the :attr:`~repro.core.result.ProofResult.from_cache` flag
and the much smaller elapsed time.  Each live entailment is canonicalised
once: the cache memoises its form under weak keys.

Given a ``path``, the cache writes every entry through to a crash-safe
:class:`~repro.core.store.ProofStore`, and a memory miss falls through to
disk.  Disk hits are promoted into the LRU and counted in
:attr:`~ProofCache.disk_hits`.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional

from repro.core.faults import DiskFaultPlan
from repro.core.proof import Proof, ProofStep
from repro.core.result import ProofResult, Verdict
from repro.core.store import ProofStore
from repro.logic.canonical import CanonicalForm, TooSymmetricError, canonicalize
from repro.logic.formula import Entailment
from repro.logic.terms import Const
from repro.semantics.counterexample import Counterexample
from repro.semantics.heap import Heap, NIL_LOC, Stack
from repro.semantics.satisfaction import falsifies_entailment

__all__ = [
    "CacheEntry",
    "ProofCache",
    "rename_proof",
    "rename_counterexample",
]


def rename_proof(proof: Proof, mapping: Mapping[Const, Const]) -> Proof:
    """Apply a constant renaming to every clause of a proof."""
    mapping = dict(mapping)
    return Proof(
        tuple(
            ProofStep(
                step.index,
                step.clause.substitute(mapping),
                step.rule,
                step.premises,
                step.note,
            )
            for step in proof.steps
        )
    )


def rename_counterexample(
    counterexample: Counterexample, mapping: Mapping[Const, Const]
) -> Counterexample:
    """Apply a constant renaming to a counterexample's stack and heap.

    Locations named after renamed constants follow the renaming; anonymous
    locations (the ``anonN`` cells introduced by heap tweaking) keep their
    names unless that would collide with a renamed location, in which case
    they are refreshed.  The location map stays injective, which is what
    preserves (fal)sification under the renaming.
    """
    loc_map: Dict[str, str] = {
        source.name: target.name
        for source, target in mapping.items()
        if not source.is_nil
    }
    bindings = counterexample.stack.bindings
    cells = counterexample.heap.cells
    locations = set(bindings.values()) | set(cells) | counterexample.heap.locations()
    taken = set(loc_map.values()) | {NIL_LOC}
    final: Dict[str, str] = {}
    fresh_index = 0
    for location in sorted(locations):
        if location == NIL_LOC:
            final[location] = location
        elif location in loc_map:
            final[location] = loc_map[location]
        else:
            candidate = location
            while candidate in taken:
                candidate = "anon{}".format(fresh_index)
                fresh_index += 1
            final[location] = candidate
            taken.add(candidate)
    stack = Stack(
        {
            mapping.get(variable, variable): final[location]
            for variable, location in bindings.items()
        }
    )
    def rename_cell(value):
        if isinstance(value, tuple):
            return tuple(final[field] for field in value)
        return final[value]

    heap = Heap({final[address]: rename_cell(value) for address, value in cells.items()})
    return Counterexample(stack=stack, heap=heap, description=counterexample.description)


#: The memo's marker for an entailment it has not keyed yet.
_UNKNOWN = object()


def _falsifies(counterexample: Counterexample, entailment: Entailment) -> bool:
    """Does a stored counterexample, renamed back, falsify the request?"""
    try:
        return falsifies_entailment(counterexample.stack, counterexample.heap, entailment)
    except KeyError:  # its stack leaves a variable of the request unbound
        return False


@dataclass(frozen=True)
class CacheEntry:
    """A memoised verdict with its artifacts in the canonical vocabulary."""

    verdict: Verdict
    proof: Optional[Proof]
    counterexample: Optional[Counterexample]
    statistics: object  # ProverStatistics of the run that produced the entry

    def answer(
        self,
        entailment: Entailment,
        inverse: Mapping[Const, Const],
        record_proof: bool,
        start: float,
    ) -> Optional[ProofResult]:
        """This entry's verdict for an alpha-equivalent ``entailment``, or
        ``None`` when the entry cannot answer it and the caller must prove it.

        ``inverse`` maps ``c1..cn`` to the request's names.  A counterexample
        that does not falsify the request cannot answer it, nor can a VALID
        entry without a proof answer a request for one (``record_proof``).
        The proof is renamed only for such a request.  Entries are immutable,
        so no lock is needed.  The answer's elapsed time counts from the
        :func:`time.perf_counter` reading ``start``.
        """
        counterexample = proof = None
        if self.counterexample is not None:
            counterexample = rename_counterexample(self.counterexample, inverse)
            if not _falsifies(counterexample, entailment):
                return None
        if record_proof and self.verdict is Verdict.VALID:
            if self.proof is None:
                return None
            proof = rename_proof(self.proof, inverse)
        return ProofResult(
            verdict=self.verdict,
            entailment=entailment,
            proof=proof,
            counterexample=counterexample,
            statistics=replace(self.statistics, elapsed_seconds=time.perf_counter() - start),
            from_cache=True,
        )


class ProofCache:
    """An LRU cache of proof results keyed on canonical fingerprints.

    The cache is a plain in-process object; in the batch engine it lives in
    the coordinating process (workers stay stateless).  ``max_entries``
    bounds memory; the least recently used entry is evicted first.

    ``path`` adds a write-through second tier, a
    :class:`~repro.core.store.ProofStore` (:attr:`disk`), so that a new
    coordinator process, or a concurrent one sharing the file, starts warm.
    The disk tier never makes the prover less reliable than a memory-only
    cache: a failed persist (ENOSPC, a torn write, a retired handle) is
    counted in :attr:`persist_errors` and the entry stays memory-only, and
    a damaged record reads as a miss.  ``fault_plan`` disturbs the store's
    appends (chaos testing).  :meth:`close` (or the context manager)
    releases the store's file handle and lock.

    Lookups, stores and counter updates are serialised by an internal
    re-entrant lock, so concurrent dispatcher lanes may share one cache.
    The lock also guards the canonical-form memo and the store's file
    handle, which is not thread-safe; canonicalisation and the renaming and
    checking of a hit run outside it.  (The store's fcntl lock is between
    processes only.)
    """

    def __init__(
        self,
        max_entries: int = 4096,
        path: Optional[str] = None,
        fault_plan: Optional[DiskFaultPlan] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        # Entailment -> its form, or None for an opt-out.  Weak keys: an
        # entry lives only while a caller holds an equal entailment.
        self._forms: "weakref.WeakKeyDictionary[Entailment, Optional[CanonicalForm]]" = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.RLock()
        self.disk: Optional[ProofStore] = (
            None if path is None else ProofStore(path, fault_plan=fault_plan)
        )
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0
        self.disk_hits = 0  # subset of ``hits`` answered by the second tier
        self.rejected = 0  # hits whose counterexample failed the request
        self.persist_errors = 0

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of all cache work answered from the cache (0.0 when unused).

        The denominator counts ``uncacheable`` canonicalisation opt-outs as
        well as ordinary misses: an entailment too symmetric to fingerprint
        is a query the cache was asked about and could not answer, so leaving
        it out would over-report on symmetric-heavy workloads.  In-batch
        deduplication echoes are *not* cache traffic (they are counted by the
        batch layer as ``deduplicated``) and never move this rate.
        """
        total = self.hits + self.misses + self.uncacheable
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all entries and memoised forms, and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._forms.clear()
            self.hits = 0
            self.misses = 0
            self.uncacheable = 0
            self.disk_hits = 0
            self.rejected = 0

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the store's file handle and lock (no-op without a store)."""
        if self.disk is not None:
            self.disk.close()

    def __enter__(self) -> "ProofCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- canonicalisation --------------------------------------------------
    def canonical_form(self, entailment: Entailment) -> Optional[CanonicalForm]:
        """Canonicalise, or ``None`` for entailments too symmetric to key.

        The result is memoised under ``entailment`` while the entailment
        object first keyed is alive; an equal entailment that outlives it is
        keyed again.  Until then every caller asking about an equal
        entailment is handed the same :class:`CanonicalForm`: callers read it
        and never change it.
        Each call that answers ``None`` counts in :attr:`uncacheable`.
        """
        with self._lock:
            form = self._forms.get(entailment, _UNKNOWN)
            if form is None:
                self.uncacheable += 1
        if form is not _UNKNOWN:
            return form
        try:
            form = canonicalize(entailment)
        except TooSymmetricError:
            form = None
        with self._lock:
            # A concurrent caller may have keyed an equal entailment first;
            # keep its form so that every caller shares one.
            form = self._forms.setdefault(entailment, form)
            if form is None:
                self.uncacheable += 1
        return form

    # -- lookup / store ----------------------------------------------------
    def lookup(
        self,
        entailment: Entailment,
        canonical: Optional[CanonicalForm] = None,
    ) -> Optional[ProofResult]:
        """The memoised verdict for ``entailment``, renamed into its vocabulary.

        Pass ``canonical`` when the caller already canonicalised (the batch
        engine does, to share the work between lookup, dedup and store).
        The hit carries no proof (see :meth:`answer` for one that asks), and
        its counterexample only once checked against ``entailment``.
        """
        return self._lookup(entailment, canonical, record_proof=False)

    def answer(
        self,
        entailment: Entailment,
        canonical: Optional[CanonicalForm] = None,
        record_proof: bool = False,
    ) -> Optional[ProofResult]:
        """:meth:`lookup`, with the hit shaped to the request.

        A request that does not ask for a proof (``record_proof``) is a plain
        :meth:`lookup`: its hit carries no proof, as from a fresh prove
        without proof recording.  One that asks gets the entry's proof
        renamed into its vocabulary.
        """
        if not record_proof:
            return self.lookup(entailment, canonical)
        return self._lookup(entailment, canonical, record_proof=True)

    def _lookup(
        self,
        entailment: Entailment,
        canonical: Optional[CanonicalForm],
        record_proof: bool,
    ) -> Optional[ProofResult]:
        """One lookup: the entry's :meth:`CacheEntry.answer`, or ``None``.

        A hit the entry cannot answer is taken back here, the one place:
        it counts as a miss, and when its counterexample did not falsify the
        request also in :attr:`rejected`, with its memory entry dropped.
        Either way the caller proves the entailment afresh and its
        :meth:`store` replaces the entry.
        """
        start = time.perf_counter()
        if canonical is None:
            canonical = self.canonical_form(entailment)
            if canonical is None:
                return None
        key = canonical.key
        with self._lock:
            entry = self._entries.get(key)
            from_disk = entry is None
            if from_disk:
                entry = self._read_disk(key)
                if entry is None:
                    self.misses += 1
                    return None
                self._remember(key, entry)  # promote into the LRU
            else:
                self._entries.move_to_end(key)
            self.hits += 1
            self.disk_hits += from_disk
        result = entry.answer(entailment, canonical.inverse, record_proof, start)
        if result is None:
            with self._lock:
                self.hits -= 1
                self.disk_hits -= from_disk
                self.misses += 1
                if entry.counterexample is not None:
                    self.rejected += 1
                    if self._entries.get(key) is entry:
                        del self._entries[key]
        return result

    def _read_disk(self, key: tuple) -> Optional[CacheEntry]:
        """The second tier's entry for ``key`` (lock held), or ``None``.

        A record whose verdict value does not parse reads as a miss.
        """
        found = self.disk.get(key) if self.disk is not None else None
        if found is None:
            return None
        verdict_value, proof, counterexample, statistics = found
        try:
            verdict = Verdict(verdict_value)
        except ValueError:
            return None
        return CacheEntry(verdict, proof, counterexample, statistics)

    def _remember(self, key: tuple, entry: CacheEntry) -> None:
        """Put ``entry`` at the young end of the LRU (lock held)."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def store(
        self,
        entailment: Entailment,
        result: ProofResult,
        canonical: Optional[CanonicalForm] = None,
    ) -> Optional[CacheEntry]:
        """Memoise ``result`` under the entailment's fingerprint.

        Returns the memoised entry, or ``None`` when the entailment is
        uncacheable.  The proof and counterexample are renamed into the
        canonical vocabulary, so the entry can answer any alpha-equivalent
        request (:meth:`CacheEntry.answer`) — also after it has left the
        LRU, which is how the batch engine answers in-batch duplicates.
        """
        if canonical is None:
            canonical = self.canonical_form(entailment)
        if canonical is None:
            return None
        renaming = canonical.renaming
        entry = CacheEntry(
            verdict=result.verdict,
            proof=None if result.proof is None else rename_proof(result.proof, renaming),
            counterexample=(
                None
                if result.counterexample is None
                else rename_counterexample(result.counterexample, renaming)
            ),
            statistics=result.statistics,
        )
        with self._lock:
            self._remember(canonical.key, entry)
            if self.disk is not None:
                # Under the lock: the store's file handle is not thread-safe.
                try:
                    self.disk.put(
                        canonical.key,
                        entry.verdict.value,
                        entry.proof,
                        entry.counterexample,
                        entry.statistics,
                    )
                except OSError:
                    self.persist_errors += 1
        return entry
