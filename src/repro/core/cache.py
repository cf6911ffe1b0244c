"""A proof cache keyed on canonical forms (alpha-equivalence memoisation).

Batch workloads — the paper's table batches, the symbolic-execution VC stream,
CLI files — are full of entailments that are *renamings* of each other: loop
unrollings re-emit the same invariant-preservation obligation with fresh
cursor names, cloned benchmark instances differ only in variable indices, and
so on.  Verdicts, proofs and counterexamples all transport along such
renamings, so proving one representative per alpha-equivalence class is
enough.

:class:`ProofCache` implements that memoisation as an LRU map from the
canonical fingerprint (:mod:`repro.logic.canonical`) to the verdict plus the
proof/counterexample expressed in the *canonical* vocabulary ``c1..cn``.  On
a hit the stored objects are renamed back into the requesting entailment's
own vocabulary, so callers cannot tell a cached result from a fresh one
(apart from the :attr:`~repro.core.result.ProofResult.from_cache` flag and
the much smaller elapsed time).  A hit carries a proof only when the request
asked for one, and its counterexample only once it has been checked to
falsify the request.  Each live entailment is canonicalised once: the cache
memoises its form under weak keys (:meth:`ProofCache.canonical_form`).

:class:`CachingProver` wraps a :class:`~repro.core.prover.Prover` with a
cache for sequential use; the parallel batch engine
(:mod:`repro.core.batch`) drives the cache directly so that it can also
deduplicate in-flight work.

:class:`PersistentProofCache` adds a write-through on-disk second tier
(:mod:`repro.core.store`): every stored entry is also appended to a
crash-safe :class:`~repro.core.store.ProofStore`, and a memory miss falls
through to disk before giving up.  Disk hits are promoted into the LRU and
counted separately (:attr:`~ProofCache.disk_hits`), which is what makes the
warm-restart bench row measurable.  Disk failures never propagate out of the
cache: a failed persist is counted and skipped (the memory tier keeps
working), a damaged record is a miss.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.core.config import ProverConfig
from repro.core.faults import DiskFaultPlan
from repro.core.proof import Proof, ProofStep
from repro.core.prover import Prover
from repro.core.result import ProofResult, Verdict
from repro.core.store import ProofStore
from repro.logic.canonical import CanonicalForm, TooSymmetricError, canonicalize
from repro.logic.formula import Entailment
from repro.logic.terms import Const
from repro.semantics.counterexample import Counterexample
from repro.semantics.heap import Heap, NIL_LOC, Stack
from repro.semantics.satisfaction import falsifies_entailment

__all__ = [
    "ProofCache",
    "PersistentProofCache",
    "CachingProver",
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
class _CacheEntry:
    """A memoised verdict with its artifacts in the canonical vocabulary."""

    verdict: Verdict
    proof: Optional[Proof]
    counterexample: Optional[Counterexample]
    statistics: object  # ProverStatistics of the run that produced the entry


class ProofCache:
    """An LRU cache of proof results keyed on canonical fingerprints.

    The cache is a plain in-process object; in the batch engine it lives in
    the coordinating process (workers stay stateless).  ``max_entries``
    bounds memory; the least recently used entry is evicted first.

    Lookups, stores and counter updates are serialised by an internal
    re-entrant lock, so concurrent dispatcher lanes may share one cache.
    The lock also guards the canonical-form memo; canonicalisation itself
    runs outside it.
    Note the sidecar file locks of a persistent second tier are advisory
    *inter-process* locks (fcntl) — they do nothing between threads of one
    process, which is exactly what this lock covers.  Callers needing a
    multi-step atomic read (e.g. a lookup plus a ``disk_hits`` delta) can
    hold :attr:`lock` around the sequence; it is re-entrant.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
        # Entailment -> its form, or None for an opt-out.  Weak keys: an
        # entry lives only while a caller holds an equal entailment.
        self._forms: "weakref.WeakKeyDictionary[Entailment, Optional[CanonicalForm]]" = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0
        self.disk_hits = 0  # subset of ``hits`` answered by the second tier
        self.rejected = 0  # hits whose counterexample failed the request

    @property
    def lock(self) -> "threading.RLock":
        """The cache's re-entrant lock, for callers composing atomic sequences."""
        return self._lock

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

    # -- second-tier hooks -------------------------------------------------
    def _fetch_second_tier(self, key: tuple) -> Optional[_CacheEntry]:
        """A memory miss falls through here; ``None`` means a full miss."""
        return None

    def _persist(self, key: tuple, entry: _CacheEntry) -> None:
        """Write-through hook called after every in-memory store."""

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

        The hit carries the entry's counterexample, renamed and then checked
        against ``entailment``.  One that does not falsify it is *rejected*:
        the hit counts as a miss (and in :attr:`rejected`), the memory entry
        is dropped and ``None`` is returned, so the caller proves the
        entailment afresh and its :meth:`store` replaces the entry.  The hit
        carries no proof: renaming one costs time in its length, so only
        :meth:`answer` does it, for a request that asks for the proof.
        """
        found = self._lookup(entailment, canonical)
        return None if found is None else found[0]

    def _lookup(
        self, entailment: Entailment, canonical: Optional[CanonicalForm]
    ) -> Optional[Tuple[ProofResult, _CacheEntry, bool]]:
        """:meth:`lookup`'s hit with the entry that answered it and whether
        that entry came from the second tier, or ``None`` for a miss."""
        start = time.perf_counter()
        if canonical is None:
            canonical = self.canonical_form(entailment)
        if canonical is None:
            return None
        with self._lock:
            entry = self._entries.get(canonical.key)
            from_disk = entry is None
            if from_disk:
                entry = self._fetch_second_tier(canonical.key)
                if entry is None:
                    self.misses += 1
                    return None
                self.disk_hits += 1
                self._entries[canonical.key] = entry  # promote into the LRU
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
            self._entries.move_to_end(canonical.key)
            self.hits += 1
        # Entries are immutable, so renaming and checking need no lock (a
        # caller that holds it across the call still serialises them).
        counterexample = None
        if entry.counterexample is not None:
            counterexample = rename_counterexample(entry.counterexample, canonical.inverse)
            if not _falsifies(counterexample, entailment):
                with self._lock:
                    self._take_back_hit(from_disk)
                    self.rejected += 1
                    if self._entries.get(canonical.key) is entry:
                        del self._entries[canonical.key]
                return None
        statistics = replace(entry.statistics, elapsed_seconds=time.perf_counter() - start)
        result = ProofResult(
            verdict=entry.verdict,
            entailment=entailment,
            counterexample=counterexample,
            statistics=statistics,
            from_cache=True,
        )
        return result, entry, from_disk

    def _take_back_hit(self, from_disk: bool) -> None:
        """Count a hit that cannot answer its request as a miss (lock held)."""
        self.hits -= 1
        self.disk_hits -= from_disk
        self.misses += 1

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
        renamed into its vocabulary.  A VALID entry stored without a proof
        cannot answer it: the hit counts as a miss (``hits``/``disk_hits``
        are taken back, ``misses`` grows) and ``None`` is returned, so the
        caller proves the entailment and its :meth:`store` replaces the
        entry.
        """
        if not record_proof:
            return self.lookup(entailment, canonical)
        start = time.perf_counter()
        if canonical is None:
            canonical = self.canonical_form(entailment)
            if canonical is None:
                return None
        found = self._lookup(entailment, canonical)
        if found is None:
            return None
        cached, entry, from_disk = found
        if not cached.is_valid:
            return cached
        if entry.proof is None:
            with self._lock:
                self._take_back_hit(from_disk)
            return None
        return replace(
            cached,
            proof=rename_proof(entry.proof, canonical.inverse),
            statistics=replace(cached.statistics, elapsed_seconds=time.perf_counter() - start),
        )

    def store(
        self,
        entailment: Entailment,
        result: ProofResult,
        canonical: Optional[CanonicalForm] = None,
    ) -> bool:
        """Memoise ``result`` under the entailment's fingerprint.

        Returns ``False`` when the entailment is uncacheable.  The proof and
        counterexample are renamed into the canonical vocabulary so any
        alpha-equivalent future query can rename them back into its own.
        """
        if canonical is None:
            canonical = self.canonical_form(entailment)
        if canonical is None:
            return False
        renaming = canonical.renaming
        proof = rename_proof(result.proof, renaming) if result.proof is not None else None
        counterexample = (
            rename_counterexample(result.counterexample, renaming)
            if result.counterexample is not None
            else None
        )
        entry = _CacheEntry(
            verdict=result.verdict,
            proof=proof,
            counterexample=counterexample,
            statistics=result.statistics,
        )
        with self._lock:
            self._entries[canonical.key] = entry
            self._entries.move_to_end(canonical.key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            # Persisting under the lock also serialises the second tier's
            # file handle, which is not thread-safe on its own.
            self._persist(canonical.key, entry)
        return True


class PersistentProofCache(ProofCache):
    """A :class:`ProofCache` backed by an on-disk :class:`ProofStore`.

    Write-through: every memoised entry is also appended to the store, so a
    new coordinator process (or a concurrent one sharing the file) starts
    warm.  Entries evicted from the LRU remain on disk; a later lookup for
    them is a :attr:`disk_hits` hit and re-promotes them.

    The disk tier must never make the prover less reliable than a memory-only
    cache, so every store failure is absorbed: persist errors (ENOSPC, torn
    writes, a retired handle) are counted in :attr:`persist_errors` and the
    entry simply stays memory-only; damaged records read back as misses.
    """

    def __init__(
        self,
        path: str,
        max_entries: int = 4096,
        fault_plan: Optional[DiskFaultPlan] = None,
    ):
        super().__init__(max_entries=max_entries)
        self.disk = ProofStore(path, fault_plan=fault_plan)
        self.persist_errors = 0

    def _fetch_second_tier(self, key: tuple) -> Optional[_CacheEntry]:
        found = self.disk.get(key)
        if found is None:
            return None
        verdict_value, proof, counterexample, statistics = found
        try:
            verdict = Verdict(verdict_value)
        except ValueError:
            return None
        return _CacheEntry(
            verdict=verdict,
            proof=proof,
            counterexample=counterexample,
            statistics=statistics,
        )

    def _persist(self, key: tuple, entry: _CacheEntry) -> None:
        try:
            self.disk.put(
                key,
                entry.verdict.value,
                entry.proof,
                entry.counterexample,
                entry.statistics,
            )
        except OSError:
            self.persist_errors += 1

    def close(self) -> None:
        """Release the store's file handle and lock."""
        self.disk.close()

    def __enter__(self) -> "PersistentProofCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CachingProver:
    """A drop-in ``prove()`` front that consults a :class:`ProofCache` first.

    Misses are proved on the *original* entailment (so an uncached call is
    bit-identical to a bare :class:`Prover`) and then stored canonically.
    """

    def __init__(
        self,
        prover: Optional[Prover] = None,
        cache: Optional[ProofCache] = None,
        config: Optional[ProverConfig] = None,
    ):
        self.prover = prover if prover is not None else Prover(config)
        self.cache = cache if cache is not None else ProofCache()

    def prove(self, entailment: Entailment) -> ProofResult:
        """Decide ``entailment``, answering from the cache when possible."""
        canonical = self.cache.canonical_form(entailment)
        if canonical is not None:
            cached = self.cache.answer(
                entailment, canonical, record_proof=self.prover.config.record_proof
            )
            if cached is not None:
                return cached
        result = self.prover.prove(entailment)
        if canonical is not None:
            self.cache.store(entailment, result, canonical)
        return result
