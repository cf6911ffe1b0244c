"""Properties of the entailment canonicaliser (alpha-equivalence fingerprints).

The proof cache is only sound if the fingerprint is a *complete* invariant of
alpha-equivalence: invariant under constant renaming and conjunct reordering
(so equivalent queries hit), and collision-free across genuinely different
problems (so a hit never returns a wrong verdict).  These tests pin both
directions, plus the bookkeeping (the kept renaming is a bijection realising
the canonical representative).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.benchgen.cloning import clone_entailment
from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile
from repro.logic.canonical import (
    TooSymmetricError,
    canonical_entailment,
    canonicalize,
    fingerprint,
)
from repro.logic.formula import Entailment, eq, lseg, neq, pts
from repro.logic.terms import make_const
from tests.conftest import make_random_entailment

SLOW = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _alpha_rename(entailment: Entailment, rng: random.Random, prefix: str = "ren"):
    """A random alpha-renaming: a bijection to fresh names, fixing nil."""
    constants = sorted(c for c in entailment.constants() if not c.is_nil)
    shuffled = list(constants)
    rng.shuffle(shuffled)
    return {
        original: make_const("{}_{}".format(prefix, fresh.name))
        for original, fresh in zip(constants, shuffled)
    }


def _shuffle_conjuncts(entailment: Entailment, rng: random.Random) -> Entailment:
    """Permute the pure conjunct tuples (spatial formulas sort themselves)."""
    lhs = list(entailment.lhs_pure)
    rhs = list(entailment.rhs_pure)
    rng.shuffle(lhs)
    rng.shuffle(rhs)
    return Entailment(tuple(lhs), entailment.lhs_spatial, tuple(rhs), entailment.rhs_spatial)


@SLOW
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_fingerprint_invariant_under_renaming_and_reordering(seed):
    rng = random.Random(seed)
    entailment = make_random_entailment(rng, n_vars=5)
    twisted = _shuffle_conjuncts(entailment.rename(_alpha_rename(entailment, rng)), rng)
    assert fingerprint(entailment) == fingerprint(twisted)
    assert canonical_entailment(entailment) == canonical_entailment(twisted)


def _assert_renaming_realises_the_representative(entailment: Entailment) -> None:
    form = canonicalize(entailment)
    constants = {c for c in entailment.constants() if not c.is_nil}
    # The kept renaming is a bijection over exactly the entailment's variables.
    assert set(form.renaming) == constants
    assert len(set(form.renaming.values())) == len(constants)
    assert {form.inverse[v]: v for v in form.inverse} == dict(form.renaming)
    # Applying it yields the canonical representative (up to conjunct order).
    renamed = entailment.rename(dict(form.renaming))
    canonical = canonical_entailment(entailment)
    assert sorted(map(str, renamed.lhs_pure)) == sorted(map(str, canonical.lhs_pure))
    assert renamed.lhs_spatial == canonical.lhs_spatial
    assert sorted(map(str, renamed.rhs_pure)) == sorted(map(str, canonical.rhs_pure))
    assert renamed.rhs_spatial == canonical.rhs_spatial


@SLOW
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_renaming_realises_the_canonical_representative(seed):
    rng = random.Random(seed)
    _assert_renaming_realises_the_representative(make_random_entailment(rng, n_vars=5))


@SLOW
@given(st.integers(min_value=0, max_value=2 ** 30), st.integers(min_value=0, max_value=2 ** 30))
def test_fingerprint_equality_implies_alpha_equivalence(seed_a, seed_b):
    # Completeness: distinct problems must not collide.  Equal fingerprints
    # must mean equal canonical representatives, i.e. the entailments really
    # are renamings of each other.
    a = make_random_entailment(random.Random(seed_a), n_vars=4)
    b = make_random_entailment(random.Random(seed_b), n_vars=4)
    if fingerprint(a) == fingerprint(b):
        assert canonical_entailment(a) == canonical_entailment(b)
    else:
        assert canonical_entailment(a) != canonical_entailment(b)


def test_nil_is_never_identified_with_a_variable():
    # Regression: the fingerprint must record which node is nil, otherwise
    # `x != nil |- false` (valid? no — satisfiable lhs) and `x != y |- false`
    # would share a cache slot despite not being renamings of each other.
    with_nil = Entailment.build(lhs=[neq("x", "nil")])
    without_nil = Entailment.build(lhs=[neq("x", "y")])
    assert fingerprint(with_nil) != fingerprint(without_nil)


def test_distinguishes_structure_not_names():
    a = Entailment.build(lhs=[pts("x", "y"), lseg("y", "nil")], rhs=[lseg("x", "nil")])
    b = Entailment.build(lhs=[pts("q", "p"), lseg("p", "nil")], rhs=[lseg("q", "nil")])
    c = Entailment.build(lhs=[lseg("x", "y"), lseg("y", "nil")], rhs=[lseg("x", "nil")])
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)


def test_multiplicities_are_preserved():
    once = Entailment.build(lhs=[pts("x", "y")])
    twice = Entailment.build(lhs=[pts("x", "y"), pts("x", "y")])
    assert fingerprint(once) != fingerprint(twice)


def test_polarity_and_side_matter():
    assert fingerprint(Entailment.build(lhs=[eq("x", "y")])) != fingerprint(
        Entailment.build(lhs=[neq("x", "y")])
    )
    assert fingerprint(Entailment.build(lhs=[eq("x", "y")])) != fingerprint(
        Entailment.build(rhs=[eq("x", "y")])
    )


def test_empty_entailment_is_canonicalisable():
    empty = Entailment.build()
    assert fingerprint(empty) == fingerprint(empty)
    assert canonicalize(empty).renaming == {}


NEAR_SYMMETRIC = EntailmentGenerator(seed=7, profile=GeneratorProfile.only("near_symmetric"))


def _cloned(seed: int) -> Entailment:
    """A small random entailment cloned x2..x6: its copies can be permuted."""
    rng = random.Random(seed)
    base = make_random_entailment(rng, n_vars=rng.randint(2, 3))
    return clone_entailment(base, rng.randint(2, 6))


#: Inputs with non-trivial automorphisms, where the search has to prune.
SYMMETRIC = st.one_of(
    st.integers(min_value=0, max_value=2 ** 30).map(_cloned),
    st.integers(min_value=0, max_value=10 ** 6).map(
        lambda index: NEAR_SYMMETRIC.case(index).entailment
    ),
)


def _twisted(entailment: Entailment, rng: random.Random) -> Entailment:
    """A random alpha-renaming with its pure conjuncts shuffled."""
    return _shuffle_conjuncts(entailment.rename(_alpha_rename(entailment, rng)), rng)


def _rewired(entailment: Entailment, rng: random.Random) -> Entailment:
    """One argument of one conjunct redirected to another of the constants:
    usually a different problem, now and then a renaming of the same one."""
    sides = [
        list(entailment.lhs_pure) + list(entailment.lhs_spatial),
        list(entailment.rhs_pure) + list(entailment.rhs_spatial),
    ]
    nonempty = [items for items in sides if items]
    if not nonempty:
        return entailment
    side = rng.choice(nonempty)
    position = rng.randrange(len(side))
    item = side[position]
    source = rng.choice(sorted(item.constants()))
    target = rng.choice(sorted(entailment.constants()))
    side[position] = item.substitute({source: target})
    return Entailment.build(lhs=sides[0], rhs=sides[1])


@SLOW
@given(SYMMETRIC, st.integers(min_value=0, max_value=2 ** 30))
def test_symmetric_fingerprint_invariant_under_renaming_and_reordering(entailment, seed):
    # Pruning skips subtrees an automorphism maps onto explored ones; if it
    # ever skipped the minimal leaf, some renaming would get another key.
    twisted = _twisted(entailment, random.Random(seed))
    assert fingerprint(entailment) == fingerprint(twisted)
    assert canonical_entailment(entailment) == canonical_entailment(twisted)


@SLOW
@given(SYMMETRIC)
def test_symmetric_renaming_realises_the_canonical_representative(entailment):
    _assert_renaming_realises_the_representative(entailment)


@SLOW
@given(SYMMETRIC, st.integers(min_value=0, max_value=2 ** 30))
def test_symmetric_fingerprints_equal_exactly_when_representatives_are(entailment, seed):
    # Near misses: the same symmetric input with one conjunct rewired (or
    # not), under fresh names.
    rng = random.Random(seed)
    other = _twisted(_rewired(entailment, rng) if rng.random() < 0.5 else entailment, rng)
    same_key = fingerprint(entailment) == fingerprint(other)
    assert same_key == (canonical_entailment(entailment) == canonical_entailment(other))


def _disjoint_segments(count: int) -> Entailment:
    return Entailment.build(lhs=[lseg("a{}".format(i), "b{}".format(i)) for i in range(count)])


def test_pathologically_symmetric_inputs_opt_out():
    # Eight disjoint, indistinguishable segments: an exhaustive search has
    # 8! leaves.  Pruned by automorphisms it needs a few dozen passes, so the
    # input gets a key, and one that does not change under renaming.
    big = _disjoint_segments(8)
    key = fingerprint(big)
    rng = random.Random(5)
    assert fingerprint(big.rename(_alpha_rename(big, rng))) == key
    # The budget still bounds the search: an explicit small one opts out.
    with pytest.raises(TooSymmetricError):
        fingerprint(big, budget=20)
    # Small symmetric inputs stay within any reasonable budget.
    small = _disjoint_segments(2)
    renamed = small.rename(_alpha_rename(small, rng))
    assert fingerprint(small, budget=20) == fingerprint(renamed, budget=20)


#: Canonicalises symmetric inputs, with the default budget and with budgets
#: of 20, 50 and 100 passes, and prints the outcomes as JSON.  In the clones
#: every tied class is one orbit, so any candidate order costs the same; in
#: disjoint cycles of different lengths, which refinement cannot tell apart,
#: a tied class mixes orbits and the order moves the pass count.
_CANONICALISE = """
import json
from repro.benchgen.cloning import clone_entailment
from repro.frontend.examples_suite import vcs_by_program
from repro.logic.canonical import TooSymmetricError, fingerprint
from repro.logic.formula import Entailment, lseg, pts


def cycle(atom, prefix, length):
    return [atom(prefix + str(i), prefix + str((i + 1) % length)) for i in range(length)]


inputs = {
    "8 segments": Entailment.build(
        lhs=[lseg("a{}".format(i), "b{}".format(i)) for i in range(8)]
    ),
    "vc x6": clone_entailment(vcs_by_program()["list_dispose_two"][0].entailment, 6),
    "cycles 4, 4, 8": Entailment.build(
        lhs=cycle(pts, "a", 4) + cycle(pts, "b", 4) + cycle(pts, "c", 8)
    ),
    "cycles 6, 3, 3": Entailment.build(
        lhs=cycle(lseg, "h", 6) + cycle(lseg, "t", 3) + cycle(lseg, "u", 3)
    ),
}
report = {}
for name, entailment in inputs.items():
    outcomes = [repr(fingerprint(entailment))]
    for budget in (20, 50, 100):
        try:
            fingerprint(entailment, budget=budget)
            outcomes.append("keyed")
        except TooSymmetricError:
            outcomes.append("too symmetric")
    report[name] = outcomes
print(json.dumps(report))
"""


def _canonicalise_in_subprocess(hash_seed: str) -> dict:
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    environment = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source)
    completed = subprocess.run(
        [sys.executable, "-c", _CANONICALISE],
        env=environment,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(completed.stdout)


def test_keys_and_budget_verdicts_do_not_depend_on_hash_order():
    # With pruning the pass count depends on the order candidates are tried
    # in; trying them in name order makes it (and so whether a budget is
    # exceeded) the same in every interpreter, whatever its set order.
    first = _canonicalise_in_subprocess("1")
    second = _canonicalise_in_subprocess("2")
    assert first == second
    for outcomes in first.values():
        # The budgets straddle each search's pass count.
        assert set(outcomes[1:]) == {"keyed", "too symmetric"}
