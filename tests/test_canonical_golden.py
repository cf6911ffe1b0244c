"""Golden fingerprints: canonical keys must never drift.

Persisted proof stores are keyed by :func:`repro.logic.canonical.fingerprint`,
so any change to the canonicaliser that alters a key silently orphans every
entry written before it.  ``golden/canonical_keys.json`` pins the keys of a
fixed input set, recorded with the exhaustive individualisation search that
preceded automorphism pruning (budget 2000):

* the 76 example-suite verification conditions cloned x1..x4
  (``frontend.examples_suite``, ``benchgen.cloning``);
* the regression corpus, ``tests/corpus/*.ent``;
* the first 60 ``near_symmetric`` fuzz cases at seed 1.

Each record is ``[id, text digest, key digest]``; the text digest detects a
generator that drifts, the key digest is ``sha1(repr(key))[:16]``.  An empty
key digest marks an input the exhaustive search gave up on
(:class:`TooSymmetricError`): it must now get a key within the default budget,
and that key must be invariant under alpha-renaming.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Iterator, Tuple

import pytest

from repro.benchgen.cloning import clone_entailment
from repro.frontend.examples_suite import vcs_by_program
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile
from repro.logic.canonical import _DEFAULT_BUDGET, _KEY_VERSION, _Search, fingerprint
from repro.logic.formula import Entailment
from repro.logic.printer import format_entailment
from repro.logic.terms import make_const

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden", "canonical_keys.json")
CLONE_FACTORS = (1, 2, 3, 4)


def digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def golden_inputs() -> Iterator[Tuple[str, Entailment]]:
    """The pinned input set, in a fixed order, with stable ids."""
    for program, vcs in vcs_by_program().items():
        for index, vc in enumerate(vcs):
            for factor in CLONE_FACTORS:
                yield "vc/{}/{}/{}".format(program, index, factor), clone_entailment(
                    vc.entailment, factor
                )
    for entry in load_corpus(os.path.join(HERE, "corpus")):
        yield "corpus/{}".format(entry.name), entry.entailment
    cases = EntailmentGenerator(
        seed=1, profile=GeneratorProfile.only("near_symmetric")
    ).cases(60)
    for number, case in enumerate(cases):
        yield "near_symmetric/{}".format(number), case.entailment


def _renamed(entailment: Entailment, seed: int) -> Entailment:
    """A shuffled alpha-renaming of ``entailment`` onto fresh names."""
    constants = sorted(c for c in entailment.constants() if not c.is_nil)
    targets = list(constants)
    random.Random(seed).shuffle(targets)
    return entailment.rename(
        {c: make_const("g_{}".format(t.name)) for c, t in zip(constants, targets)}
    )


with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)
INPUTS = dict(golden_inputs())
RECORDS = GOLDEN["records"]


def test_golden_file_covers_the_input_set():
    assert GOLDEN["key_version"] == _KEY_VERSION
    assert [record[0] for record in RECORDS] == list(INPUTS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record[0])
def test_golden_key(record):
    name, text_digest, key_digest = record
    entailment = INPUTS[name]
    assert digest(format_entailment(entailment)) == text_digest, "input drift: " + name
    key = fingerprint(entailment)
    if key_digest:
        assert digest(repr(key)) == key_digest
    else:
        # Once an opt-out, now keyed: the key must be a genuine invariant.
        assert fingerprint(_renamed(entailment, seed=len(name))) == key


def test_search_shape_is_pinned():
    """The refinement passes the golden inputs take, in all and at most.

    Keys alone do not pin the search: a change that keeps every key but
    reorders candidates or pruning moves the pass counts, and with them which
    inputs raise :class:`TooSymmetricError` under a small budget.
    """
    passes = []
    for entailment in INPUTS.values():
        search = _Search(entailment, _DEFAULT_BUDGET)
        search.run()
        passes.append(_DEFAULT_BUDGET - search.budget)
    assert (len(passes), sum(passes), max(passes)) == (378, 7204, 84)
