"""``prove()`` runs without the cyclic garbage collector.

Everything one ``Prover.prove`` call builds — the saturation core with its
encoder and index, the model generator, the normalisers' state, the proof
trace — is acyclic, so reference counting frees it when the call returns or
raises.  ``Prover.prove`` therefore pauses the collector for its duration
and re-enables it afterwards only if it was enabled on entry.

The first tests prove inputs under ``gc.DEBUG_SAVEALL`` and require the
collector to find nothing afterwards: under the configuration the benchmarks
and ``slp serve`` run (no proofs), the default one (proofs) and the reference
engine, over the golden-trace inputs (``sll`` and ``dll``, valid and invalid,
so counterexamples are built and verified; folds; example-suite conditions)
plus Table 1 rows, and once for a prove that times out.  The others watch
``gc.isenabled()`` from inside the prove, through the
``normalize_clause_fast`` the prover calls via ``repro.core.prover``.
"""

from __future__ import annotations

import collections
import gc
import threading
from typing import Callable, List

import pytest

import repro.core.prover as prover_module
from repro.benchgen.random_unsat import UnsatParameters, random_unsat_batch
from repro.core.config import ProverConfig
from repro.core.prover import Prover, ProverTimeout
from repro.logic.parser import parse_entailment
from tests.test_prover_golden import INPUTS

CONFIGURATIONS = {
    "no-proofs": ProverConfig(record_proof=False),
    "default": ProverConfig(),
    "reference": ProverConfig().reference(),
}
TABLE1_SAMPLE = [
    entailment
    for variables in (12, 16, 20)
    for entailment in random_unsat_batch(
        UnsatParameters.paper(variables), 4, seed=2000 + variables
    )
]
#: An input that reaches normalisation.
LIST = parse_entailment("x |-> y * y |-> z * z |-> nil |- lseg(x, nil)")
TIMED_OUT = ProverConfig(record_proof=False, max_seconds=1e-9)


def cyclic_garbage(run: Callable[[], None]) -> collections.Counter[str]:
    """Type histogram of what only the cyclic collector frees after ``run()``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_prove_leaves_no_cyclic_garbage(name):
    prover = Prover(CONFIGURATIONS[name])

    def run() -> None:
        for entailment in list(INPUTS.values()) + TABLE1_SAMPLE:
            prover.prove(entailment)

    garbage = cyclic_garbage(run)
    assert not garbage, garbage.most_common(12)


def test_a_timed_out_prove_leaves_no_cyclic_garbage():
    prover = Prover(TIMED_OUT)

    # A plain try/except: a ``pytest.raises`` ExceptionInfo would keep a
    # traceback whose frames form a cycle with this function's locals.
    def run() -> None:
        for entailment in [LIST] + TABLE1_SAMPLE:
            try:
                prover.prove(entailment)
            except ProverTimeout:
                continue
            raise AssertionError("no timeout on {}".format(entailment))

    garbage = cyclic_garbage(run)
    assert not garbage, garbage.most_common(12)


@pytest.fixture
def collector_watch(monkeypatch):
    """``gc.isenabled()`` at every ``normalize_clause_fast`` call, in order;
    restores the collector's state on the way out."""
    seen: List[bool] = []
    fast = prover_module.normalize_clause_fast

    def normalize_clause_fast(clause, model):
        seen.append(gc.isenabled())
        return fast(clause, model)

    monkeypatch.setattr(prover_module, "normalize_clause_fast", normalize_clause_fast)
    enabled = gc.isenabled()
    try:
        yield seen
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()


def test_the_collector_is_paused_inside_prove(collector_watch):
    assert gc.isenabled()
    assert Prover(ProverConfig(record_proof=False)).prove(LIST).is_valid
    assert collector_watch and not any(collector_watch)
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_prove_restores_the_collector_on_every_exit(enabled, collector_watch, monkeypatch):
    if enabled:
        gc.enable()
    else:
        gc.disable()

    assert Prover(ProverConfig(record_proof=False)).prove(LIST).is_valid
    assert gc.isenabled() == enabled

    try:
        Prover(TIMED_OUT).prove(LIST)
    except ProverTimeout:
        pass
    else:
        raise AssertionError("the prove did not time out")
    assert gc.isenabled() == enabled

    def out_of_memory(clause, model):
        raise MemoryError("injected")

    monkeypatch.setattr(prover_module, "normalize_clause_fast", out_of_memory)
    try:
        Prover(ProverConfig(record_proof=False)).prove(LIST)
    except MemoryError:
        pass
    else:
        raise AssertionError("the injected MemoryError did not propagate")
    assert gc.isenabled() == enabled


def test_overlapping_proves_in_threads_leave_the_collector_enabled(monkeypatch):
    """Both threads are inside ``prove()`` at once: each notes the
    collector's state and waits at a barrier on its first normalisation, so
    neither can finish before both have paused the collector."""
    barrier = threading.Barrier(2, timeout=60)
    arrived = set()
    inside: List[bool] = []
    errors: List[BaseException] = []
    fast = prover_module.normalize_clause_fast

    def normalize_clause_fast(clause, model):
        if threading.get_ident() not in arrived:
            arrived.add(threading.get_ident())
            inside.append(gc.isenabled())
            barrier.wait()
        return fast(clause, model)

    def prove() -> None:
        try:
            assert Prover(ProverConfig(record_proof=False)).prove(LIST).is_valid
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)
            barrier.abort()

    monkeypatch.setattr(prover_module, "normalize_clause_fast", normalize_clause_fast)
    assert gc.isenabled()
    threads = [threading.Thread(target=prove) for _ in range(2)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors, errors
        assert inside == [False, False]
        assert gc.isenabled()
    finally:
        gc.enable()
