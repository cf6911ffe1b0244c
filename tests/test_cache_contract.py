"""The proof cache's contract with its callers.

* The canonical-form memo: each live entailment is canonicalised once, equal
  entailments share one form while the first is alive, nothing outlives the
  caller's entailments, and concurrent callers all get the forms a fresh
  :func:`canonicalize` computes.
* The hit contract: a hit carries a proof only when the request asked for
  one (renaming a long proof is the cost of a hit otherwise), and a
  counterexample from the memory or the disk tier, or echoed to an in-batch
  duplicate, is checked against the request before it is returned; one that
  does not falsify the request is rejected and the entailment is proved
  afresh.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import weakref

import pytest

import repro.core.cache as cache_module
from repro.core.batch import BatchProver
from repro.core.cache import ProofCache
from repro.core.config import ProverConfig
from repro.core.prover import Prover
from repro.core.result import ProofResult, Verdict
from repro.fuzz.generator import EntailmentGenerator
from repro.logic.canonical import TooSymmetricError, canonicalize
from repro.logic.formula import Entailment, lseg, neq, pts
from repro.logic.parser import parse_entailment
from repro.logic.terms import make_const
from repro.semantics.counterexample import Counterexample
from repro.semantics.heap import Heap, Stack
from repro.semantics.satisfaction import falsifies_entailment

VALID = "a |-> b * b |-> nil |- lseg(a, nil)"
INVALID = "lseg(x, y) |- next(x, y)"


def _fresh(text: str = VALID) -> Entailment:
    """A new entailment object each call (equal to the others of its text)."""
    return parse_entailment(text)


def _prove(cache: ProofCache, entailment: Entailment, record_proof: bool = False) -> ProofResult:
    """One request through the batch engine, in process, over ``cache``."""
    engine = BatchProver(ProverConfig(record_proof=record_proof), jobs=1, cache=cache)
    (outcome,) = engine.prove_all([entailment])
    return outcome


def _renamed(entailment: Entailment, tag: str) -> Entailment:
    return entailment.rename(
        {
            constant: make_const("{}_{}".format(tag, constant.name))
            for constant in entailment.constants()
            if not constant.is_nil
        }
    )


def _counting_canonicalize(monkeypatch):
    """Patch the cache's canonicaliser with one that counts its calls."""
    calls = []

    def counted(entailment, *args, **kwargs):
        calls.append(entailment)
        return canonicalize(entailment, *args, **kwargs)

    monkeypatch.setattr(cache_module, "canonicalize", counted)
    return calls


# ---------------------------------------------------------------------------
# The canonical-form memo
# ---------------------------------------------------------------------------


class TestCanonicalFormMemo:
    def test_equal_entailments_share_one_form_while_the_first_lives(self, monkeypatch):
        calls = _counting_canonicalize(monkeypatch)
        cache = ProofCache()
        first, second = _fresh(), _fresh()
        assert first == second and first is not second
        form = cache.canonical_form(first)
        assert cache.canonical_form(second) is form
        assert cache.canonical_form(first) is form
        assert len(calls) == 1
        expected = canonicalize(first)
        assert (form.key, dict(form.renaming), dict(form.inverse)) == (
            expected.key,
            dict(expected.renaming),
            dict(expected.inverse),
        )

    def test_form_is_released_once_the_caller_drops_its_entailments(self):
        cache = ProofCache()
        first, second = _fresh(), _fresh()
        form = weakref.ref(cache.canonical_form(first))
        assert cache.canonical_form(second) is form()
        del first, second
        gc.collect()
        assert form() is None

    def test_a_renaming_is_keyed_on_its_own(self, monkeypatch):
        calls = _counting_canonicalize(monkeypatch)
        cache = ProofCache()
        original, renamed = _fresh(), _renamed(_fresh(), "r")
        first, second = cache.canonical_form(original), cache.canonical_form(renamed)
        assert len(calls) == 2
        assert first.key == second.key and dict(first.renaming) != dict(second.renaming)

    def test_uncacheable_counts_every_opt_out_call_but_searches_once(self, monkeypatch):
        searches = []

        def too_symmetric(entailment, budget=None):
            searches.append(entailment)
            raise TooSymmetricError("refinement budget exceeded")

        monkeypatch.setattr(cache_module, "canonicalize", too_symmetric)
        cache = ProofCache()
        symmetric = Entailment.build(lhs=[lseg("a{}".format(i), "b{}".format(i)) for i in range(4)])
        for _ in range(3):
            assert cache.canonical_form(symmetric) is None
        assert cache.canonical_form(_renamed(symmetric, "s")) is None
        assert cache.uncacheable == 4
        assert len(searches) == 2
        assert not _prove(cache, symmetric).from_cache
        assert cache.uncacheable == 5 and len(searches) == 2

    def test_clear_empties_the_memo(self, monkeypatch):
        calls = _counting_canonicalize(monkeypatch)
        cache = ProofCache()
        entailment = _fresh()
        before = cache.canonical_form(entailment)
        cache.clear()
        after = cache.canonical_form(entailment)
        assert len(calls) == 2 and after is not before and after.key == before.key

    def test_concurrent_callers_get_the_forms_of_a_fresh_canonicalize(self):
        texts = [str(case.entailment) for case in EntailmentGenerator(seed=5).cases(24)]
        texts += [VALID, INVALID]
        expected = {}
        for text in texts:
            form = canonicalize(parse_entailment(text))
            expected[text] = (form.key, dict(form.renaming), dict(form.inverse))
        cache = ProofCache()
        # Entailments every thread shares (memo hits) beside fresh copies
        # (new entries, and weak entries dying while other threads read).
        shared = {text: parse_entailment(text) for text in texts[::2]}
        threads_count = 2 * (os.cpu_count() or 1) + 2
        failures = []
        start = threading.Barrier(threads_count, timeout=60)

        def worker(number: int) -> None:
            try:
                start.wait()
                for round_number in range(3):
                    for offset in range(len(texts)):
                        text = texts[(offset + number + round_number) % len(texts)]
                        entailment = shared.get(text) if offset % 2 else None
                        if entailment is None:
                            entailment = parse_entailment(text)
                        form = cache.canonical_form(entailment)
                        got = (form.key, dict(form.renaming), dict(form.inverse))
                        if got != expected[text]:
                            failures.append((number, text))
            except Exception as error:  # asserted on below
                failures.append((number, repr(error)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert cache.uncacheable == 0
        for text, entailment in shared.items():
            form = cache.canonical_form(entailment)
            assert (form.key, dict(form.renaming), dict(form.inverse)) == expected[text]


# ---------------------------------------------------------------------------
# The hit contract
# ---------------------------------------------------------------------------


def _counting_rename_proof(monkeypatch):
    calls = []
    original = cache_module.rename_proof

    def counted(proof, mapping):
        calls.append(proof)
        return original(proof, mapping)

    monkeypatch.setattr(cache_module, "rename_proof", counted)
    return calls


class TestProofOnlyOnRequest:
    """A hit renames its stored proof only when the request asked for one."""

    def _store_with_proof(self, cache: ProofCache) -> None:
        result = _prove(cache, _fresh(), record_proof=True)
        assert result.is_valid and result.proof is not None and not result.from_cache

    def _check(self, cache: ProofCache, monkeypatch) -> None:
        calls = _counting_rename_proof(monkeypatch)
        request = _renamed(_fresh(), "q")
        plain = cache.answer(request, record_proof=False)
        assert plain is not None and plain.from_cache and plain.is_valid
        assert plain.proof is None
        assert calls == []
        asked = cache.answer(request, record_proof=True)
        assert asked.from_cache and asked.proof is not None and asked.proof.is_refutation
        assert len(calls) == 1
        names = {constant.name for step in asked.proof.steps for constant in step.clause.constants()}
        assert names <= {"q_a", "q_b", "nil"}

    def test_memory_tier(self, monkeypatch):
        cache = ProofCache()
        self._store_with_proof(cache)
        self._check(cache, monkeypatch)
        assert (cache.hits, cache.disk_hits) == (2, 0)

    def test_disk_tier(self, tmp_path, monkeypatch):
        path = str(tmp_path / "proofs.slp")
        with ProofCache(path=path) as first:
            self._store_with_proof(first)
        with ProofCache(path=path) as second:
            self._check(second, monkeypatch)
            assert second.disk_hits == 1

    def test_batch_requests_without_proof_get_none(self):
        with BatchProver(ProverConfig(record_proof=True), jobs=1) as engine:
            (proved,) = engine.prove_all([_fresh()])
            assert proved.proof is not None
            (plain,) = engine.prove_all([_renamed(_fresh(), "b")], record_proof=False)
            assert plain.from_cache and plain.proof is None
            (asked,) = engine.prove_all([_renamed(_fresh(), "c")])
            assert asked.from_cache and asked.proof is not None

    def test_a_proofless_disk_entry_does_not_answer_a_proof_request(self, tmp_path):
        path = str(tmp_path / "proofs.slp")
        with ProofCache(path=path) as first:
            _prove(first, _fresh())
        with ProofCache(path=path) as second:
            assert second.answer(_renamed(_fresh(), "q"), record_proof=True) is None
            assert (second.hits, second.misses, second.disk_hits) == (0, 1, 0)

    def test_counterexamples_are_always_renamed(self):
        cache = ProofCache()
        _prove(cache, _fresh(INVALID))
        request = _renamed(_fresh(INVALID), "k")
        hit = cache.answer(request, record_proof=False)
        assert hit.from_cache and hit.is_invalid and hit.proof is None
        cex = hit.counterexample
        assert falsifies_entailment(cex.stack, cex.heap, request)


def _planted(entailment: Entailment) -> ProofResult:
    """An INVALID result whose counterexample falsifies nothing: the empty
    heap satisfies neither side of ``VALID``."""
    stack = Stack({make_const(name): "l{}".format(i) for i, name in enumerate(("a", "b"))})
    cex = Counterexample(stack=stack, heap=Heap({}), description="planted")
    assert not falsifies_entailment(cex.stack, cex.heap, entailment)
    return ProofResult(verdict=Verdict.INVALID, entailment=entailment, counterexample=cex)


class TestCounterexampleCheck:
    """A counterexample from the cache or the store is checked against the request."""

    def _ask_and_check(self, cache: ProofCache) -> None:
        request = _renamed(_fresh(), "w")
        answer = _prove(cache, request)
        assert answer.is_valid and not answer.from_cache
        assert cache.rejected == 1
        assert (cache.hits, cache.misses, cache.disk_hits) == (0, 1, 0)
        # The fresh result replaced the planted entry.
        again = _prove(cache, _renamed(_fresh(), "v"))
        assert again.is_valid and again.from_cache
        assert cache.rejected == 1

    def test_memory_tier(self):
        cache = ProofCache()
        entailment = _fresh()
        cache.store(entailment, _planted(entailment))
        self._ask_and_check(cache)

    def test_disk_tier(self, tmp_path):
        path = str(tmp_path / "proofs.slp")
        with ProofCache(path=path) as first:
            entailment = _fresh()
            first.store(entailment, _planted(entailment))
        with ProofCache(path=path) as second:
            self._ask_and_check(second)
        with ProofCache(path=path) as third:
            hit = third.answer(_fresh())
            assert hit is not None and hit.is_valid and third.disk_hits == 1

    def test_batch_engine_proves_a_rejected_hit(self):
        with BatchProver(ProverConfig(record_proof=False), jobs=1) as engine:
            entailment = _fresh()
            engine.cache.store(entailment, _planted(entailment))
            (answer,) = engine.prove_all([_renamed(entailment, "z")])
            assert answer.is_valid and not answer.from_cache
            assert engine.cache.rejected == 1
            stats = engine.statistics
            assert (stats.cache_hits, stats.cache_misses) == (0, 1)

    def test_a_genuine_counterexample_is_not_rejected(self):
        cache = ProofCache()
        _prove(cache, Entailment.build(lhs=[neq("x", "y"), pts("x", "y")], rhs=[lseg("y", "x")]))
        hit = _prove(cache, Entailment.build(lhs=[neq("u", "v"), pts("u", "v")], rhs=[lseg("v", "u")]))
        assert hit.from_cache and hit.is_invalid
        assert cache.rejected == 0

    def test_an_echo_whose_counterexample_fails_its_duplicate_is_proved(self, monkeypatch):
        """An in-batch duplicate is answered from its leader's entry only
        once the renamed counterexample falsifies the duplicate; otherwise
        it is dispatched and proved on its own."""
        original = Prover.prove
        lies = []

        def lying_once(self, entailment):
            if not lies:
                lies.append(entailment)
                return _planted(entailment)
            return original(self, entailment)

        monkeypatch.setattr(Prover, "prove", lying_once)
        cache = ProofCache()
        with BatchProver(ProverConfig(record_proof=False), jobs=1, cache=cache) as engine:
            leader, duplicate = engine.prove_all([_fresh(), _renamed(_fresh(), "d")])
            stats = engine.statistics
        assert leader.is_invalid and len(lies) == 1
        assert duplicate.is_valid and not duplicate.from_cache
        assert (stats.deduplicated, stats.proved) == (0, 2)
        # The echo moved no cache counter.
        assert (cache.hits, cache.misses, cache.rejected) == (0, 2, 0)


def _free_to_other_threads(lock) -> bool:
    """Can another thread take ``lock`` right now?"""
    taken = []

    def take():
        if lock.acquire(blocking=False):
            lock.release()
            taken.append(True)

    thread = threading.Thread(target=take)
    thread.start()
    thread.join()
    return bool(taken)


@pytest.mark.parametrize("text,record_proof,renamer", [
    (INVALID, False, "rename_counterexample"),
    (VALID, True, "rename_proof"),
], ids=["counterexample", "proof"])
def test_a_hit_is_renamed_outside_the_cache_lock(monkeypatch, text, record_proof, renamer):
    """Renaming (and checking) a hit costs time in its size; other lanes must
    not wait on it."""
    cache = ProofCache()
    engine = BatchProver(ProverConfig(record_proof=record_proof), jobs=1, cache=cache)
    engine.prove_all([_fresh(text)])
    free = []
    original = getattr(cache_module, renamer)

    def probed(artifact, mapping):
        free.append(_free_to_other_threads(cache._lock))
        return original(artifact, mapping)

    monkeypatch.setattr(cache_module, renamer, probed)
    (hit,) = engine.prove_all([_renamed(_fresh(text), "o")])
    assert hit.from_cache
    assert free == [True]


_STORE_WRITER = """
import sys
from repro.core.batch import BatchProver
from repro.core.cache import ProofCache
from repro.core.config import ProverConfig
from repro.logic.parser import parse_entailment
with ProofCache(path=sys.argv[1]) as cache:
    engine = BatchProver(ProverConfig(record_proof=True), jobs=1, cache=cache)
    engine.prove_all([parse_entailment(text) for text in sys.argv[2:]])
"""


def test_a_store_written_under_another_hash_seed_answers_in_the_request_vocabulary(tmp_path):
    """Constants, atoms and clauses cache their hashes, which derive from the
    process's string hashes: read back by a process with another
    ``PYTHONHASHSEED``, stale hashes made renaming miss, and a hit's
    counterexample stack bound ``c1..cn`` instead of the request's names."""
    path = str(tmp_path / "proofs.slp")
    source = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    subprocess.run(
        [sys.executable, "-c", _STORE_WRITER, path, VALID, INVALID], env=env, check=True, timeout=120
    )
    with ProofCache(path=path) as cache:
        request = _renamed(_fresh(INVALID), "k")
        hit = cache.answer(request)
        assert hit is not None and hit.from_cache and hit.is_invalid
        assert set(hit.counterexample.stack) == request.variables()
        assert falsifies_entailment(hit.counterexample.stack, hit.counterexample.heap, request)
        asked = cache.answer(_renamed(_fresh(), "q"), record_proof=True)
        assert asked.from_cache and asked.proof is not None
        names = {constant.name for step in asked.proof.steps for constant in step.clause.constants()}
        assert names <= {"q_a", "q_b", "nil"}
        assert (cache.disk_hits, cache.rejected) == (2, 0)


@pytest.mark.parametrize("record_proof", [False, True])
def test_counts_add_up_to_the_requests(record_proof):
    cache = ProofCache()
    requests = [_fresh(), _renamed(_fresh(), "m"), _fresh(INVALID), _renamed(_fresh(INVALID), "n")]
    for request in requests:
        _prove(cache, request, record_proof)
    assert cache.hits + cache.misses + cache.uncacheable == len(requests)
    assert (cache.hits, cache.misses, cache.rejected) == (2, 2, 0)
