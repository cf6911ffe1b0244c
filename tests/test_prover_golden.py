"""Golden prover traces: the search must not drift.

The spatial rules of the Figure 3 loop (well-formedness, unfolding) are
re-implemented for speed from time to time; such a change must leave every
derivation exactly as it was.  ``golden/prover_traces.json`` pins, per input
of a fixed set, what the prover did with it, recorded with the all-pairs
well-formedness scan and the one-rule-at-a-time unfolding that preceded the
address buckets and the single-rewrite unfolding:

* the regression corpus, ``tests/corpus/*.ent``;
* the 76 example-suite verification conditions cloned x1..x2;
* 20 Table 2 folds per row n = 20, 30, 40
  (``random_fold_batch(FoldParameters.paper(n), 20, seed=12000 + n)``);
* the first 80 ``dll`` fuzz cases at seed 1;
* a handful of hand-written entailments: rules the generated sets reach in
  one theory only (``dll`` W2, U4 and U5) and a few more failed unfoldings.

Each record is ``[id, text digest, verdict, counts, rules, artifact digest]``:

* the counts are the :class:`ProverStatistics` work counters under
  ``record_proof=False`` (iterations, generated clauses, well-formedness
  consequences, unfolding steps, normalisation steps, saturation rounds);
* the rules are the names of every well-formedness consequence and unfolding
  step the prover computed, in first-seen order;
* the artifact digest is ``sha1[:16]`` of ``Proof.format()`` for a valid
  entailment, or of the counterexample's printout and description for an
  invalid one, under the default configuration.

The file is never regenerated to make a change pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Dict, Iterator, List, Tuple

import pytest

import repro.core.prover as prover_module
from repro.benchgen.cloning import clone_entailment
from repro.benchgen.random_fold import FoldParameters, random_fold_batch
from repro.benchgen.random_unsat import UnsatParameters, random_unsat_batch
from repro.core.config import ProverConfig
from repro.core.prover import Prover
from repro.frontend.examples_suite import vcs_by_program
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile
from repro.logic.formula import Entailment
from repro.logic.parser import parse_entailment
from repro.logic.printer import format_entailment
from repro.spatial.theory import theory_of

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden", "prover_traces.json")
CLONE_FACTORS = (1, 2)
FOLD_ROWS = (20, 30, 40)
COUNTS = (
    "iterations",
    "generated_clauses",
    "wellformedness_consequences",
    "unfolding_steps",
    "normalization_steps",
    "saturation_rounds",
)
#: Every rule of each theory's well-formedness and unfolding systems.
_SHARED_RULES = ["W1", "W2", "W3", "W4", "W5", "U1", "U2", "U3", "U4", "U5", "SR"]
SPATIAL_RULES = {
    "sll": frozenset(_SHARED_RULES),
    "dll": frozenset(_SHARED_RULES + ["D1", "D2", "D3", "D4"]),
}

#: Hand-written inputs for rules and failures the generated sets miss.
EXTRA_INPUTS = (
    "next(nil, x) |- false",
    "lseg(nil, x) * next(x, y) |- next(x, y)",
    "x != y /\\ next(x, y) * next(y, z) * lseg(z, w) * lseg(w, nil) |- lseg(x, nil)",
    "x != z /\\ next(x, y) * next(y, z) * next(z, w) |- lseg(x, z) * next(z, w)",
    "x != w /\\ lseg(x, y) * lseg(y, z) * lseg(z, w) * lseg(w, v) "
    "|- lseg(x, w) * lseg(w, v)",
    "next(x, y) * lseg(y, z) * lseg(z, w) |- lseg(x, w)",
    "cell(nil, x, y) |- false",
    "dlseg(x, p, x, q) |- p = q",
    "dlseg(nil, p, y, q) * cell(y, z, nil) |- y = nil",
    "x != z /\\ cell(x, y, nil) * cell(y, z, x) * cell(z, nil, y) "
    "|- dlseg(x, nil, z, y) * cell(z, nil, y)",
    "x != w /\\ y != w /\\ cell(x, y, nil) * dlseg(y, x, w, v) * cell(w, nil, v) "
    "|- dlseg(x, nil, w, v) * cell(w, nil, v)",
    "x != u /\\ y != u /\\ dlseg(x, nil, y, b) * dlseg(y, b, u, c) * cell(u, nil, c) "
    "|- dlseg(x, nil, u, c) * cell(u, nil, c)",
    "x != u /\\ u != v /\\ dlseg(x, nil, y, b) * dlseg(y, b, u, c) * dlseg(u, c, v, d) "
    "|- dlseg(x, nil, u, c) * dlseg(u, c, v, d)",
    "x != nil /\\ dlseg(x, nil, y, b) * dlseg(y, b, nil, c) |- dlseg(x, nil, nil, c)",
    "cell(x, y, nil) * dlseg(y, x, z, b) * dlseg(z, b, w, c) |- dlseg(x, nil, w, c)",
)


def digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def golden_inputs() -> Iterator[Tuple[str, Entailment]]:
    """The pinned input set, in a fixed order, with stable ids."""
    for entry in load_corpus(os.path.join(HERE, "corpus")):
        yield "corpus/{}".format(entry.name), entry.entailment
    for program, vcs in vcs_by_program().items():
        for index, vc in enumerate(vcs):
            for factor in CLONE_FACTORS:
                yield "vc/{}/{}/{}".format(program, index, factor), clone_entailment(
                    vc.entailment, factor
                )
    for variables in FOLD_ROWS:
        folds = random_fold_batch(FoldParameters.paper(variables), 20, seed=12000 + variables)
        for number, entailment in enumerate(folds):
            yield "fold/{}/{}".format(variables, number), entailment
    cases = EntailmentGenerator(seed=1, profile=GeneratorProfile.only("dll")).cases(80)
    for number, case in enumerate(cases):
        yield "dll/{}".format(number), case.entailment
    for number, text in enumerate(EXTRA_INPUTS):
        yield "extra/{}".format(number), parse_entailment(text)


@contextlib.contextmanager
def rules_fired(seen: Dict[str, None]) -> Iterator[None]:
    """Record, in first-seen order, the rule of every consequence and step."""
    well_formedness = prover_module.well_formedness_consequences
    unfold = prover_module.unfold

    def well_formedness_consequences(clause):
        consequences = tuple(well_formedness(clause))
        seen.update((consequence.rule, None) for consequence in consequences)
        return consequences

    def unfolding(positive, negative):
        outcome = unfold(positive, negative)
        seen.update((step.rule, None) for step in outcome.steps)
        return outcome

    prover_module.well_formedness_consequences = well_formedness_consequences
    prover_module.unfold = unfolding
    try:
        yield
    finally:
        prover_module.well_formedness_consequences = well_formedness
        prover_module.unfold = unfold


def trace_record(name: str, entailment: Entailment) -> List[object]:
    """What the prover does with ``entailment``, in the golden file's layout."""
    seen: Dict[str, None] = {}
    with rules_fired(seen):
        counted = Prover(ProverConfig(record_proof=False)).prove(entailment)
    statistics = counted.statistics
    result = Prover().prove(entailment)
    if result.proof is not None:
        artifact = result.proof.format()
    else:
        assert result.counterexample is not None
        artifact = "{}\n{}".format(result.counterexample, result.counterexample.description)
    return [
        name,
        digest(format_entailment(entailment)),
        counted.verdict.value,
        [getattr(statistics, count) for count in COUNTS],
        list(seen),
        digest(artifact),
    ]


with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)
INPUTS = dict(golden_inputs())
RECORDS = GOLDEN["records"]


def test_golden_file_covers_the_input_set():
    assert GOLDEN["counts"] == list(COUNTS)
    assert [record[0] for record in RECORDS] == list(INPUTS)


@pytest.mark.parametrize("theory", sorted(SPATIAL_RULES))
def test_golden_inputs_fire_every_spatial_rule(theory):
    fired = {
        rule
        for record in RECORDS
        if theory_of(INPUTS[record[0]]).name == theory
        for rule in record[4]
    }
    assert SPATIAL_RULES[theory] <= fired, sorted(SPATIAL_RULES[theory] - fired)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record[0])
def test_golden_trace(record):
    assert trace_record(record[0], INPUTS[record[0]]) == record


#: Table 1 rows whose refutations the proof-gap check rebuilds, 40 inputs each.
GAP_CHECK_ROWS = (12, 14, 16, 18, 20)


@pytest.mark.parametrize("reference", [False, True], ids=["default", "reference"])
def test_every_refutation_rebuilds_without_a_gap(reference):
    """``ProofTrace.build_refutation`` raises on a clause with no recorded
    derivation or on a cycle; no valid input here may hit one, under either
    engine."""
    prover = Prover(ProverConfig().reference() if reference else ProverConfig())
    inputs = list(INPUTS.values())
    for variables in GAP_CHECK_ROWS:
        inputs.extend(
            random_unsat_batch(UnsatParameters.paper(variables), 40, seed=1000 + variables)
        )
    for entailment in inputs:
        result = prover.prove(entailment)
        assert result.proof is None or result.proof.is_refutation
