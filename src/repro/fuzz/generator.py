"""A seeded, weight-configurable entailment generator for the fuzzing subsystem.

The two benchmark distributions in :mod:`repro.benchgen` (the paper's Table 1
and Table 2 families) are deliberately narrow: they exist to reproduce the
evaluation, not to explore the input space.  This module unifies them under a
single :class:`EntailmentGenerator` and adds the shapes the benchmark
distributions never produce:

* ``mixed`` — small arbitrary entailments (spatial atoms plus pure literals on
  both sides), the workhorse distribution of the cross-validation tests;
* ``fold`` — the Table 2 folding family (valid-leaning, exercises unfolding);
* ``unsat`` — a Table 1 style family rescaled to small variable counts
  (``Pi /\\ Sigma |- false``, exercises saturation and well-formedness);
* ``alias_heavy`` — long equality chains collapsing a large variable pool onto
  a small heap, so normalisation (rules N1/N3) has real rewriting to do;
* ``diseq_chain`` — disequality chains over a ``next``/``lseg`` path with a
  folded right-hand side, the shape where U3-U5 side conditions matter;
* ``near_symmetric`` — disjoint copies of one identical gadget, the inputs
  on which :mod:`repro.logic.canonical`'s individualisation search has to
  prune by automorphisms to stay within its budget.

Determinism is the load-bearing property: instance ``i`` of a campaign with
seed ``s`` is drawn from ``random.Random("slp-fuzz:s:i")`` and therefore never
depends on how many instances were drawn before it, on the platform, or on
``PYTHONHASHSEED``.  Shrinking and replay rely on this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.benchgen.random_fold import FoldParameters, random_fold_entailment
from repro.logic.atoms import SpatialAtom
from repro.logic.formula import Entailment, dcell, dlseg, eq, lseg, neq, pts
from repro.logic.terms import NIL, Const, variable_pool

__all__ = [
    "GeneratorProfile",
    "EntailmentGenerator",
    "FuzzCase",
    "STRATEGIES",
    "DEFAULT_WEIGHTS",
]


#: Default mixture over the named strategies.  ``mixed`` dominates because it
#: covers the broadest slice of the input space; the specialised families keep
#: smaller but non-negligible shares so every subsystem is stressed in any
#: few-hundred-instance campaign.
DEFAULT_WEIGHTS: Mapping[str, float] = {
    "mixed": 0.34,
    "fold": 0.13,
    "unsat": 0.13,
    "alias_heavy": 0.11,
    "diseq_chain": 0.11,
    "near_symmetric": 0.06,
    "dll": 0.12,
}


@dataclass(frozen=True)
class GeneratorProfile:
    """Tunable knobs of the generator.

    Attributes
    ----------
    min_variables, max_variables:
        Inclusive range for the number of program variables per instance.
        Small by default: the differential driver cross-checks against the
        exponential enumeration oracle whenever an instance fits its bound.
    max_spatial, max_pure:
        Per-side caps on spatial atoms and pure literals for the ``mixed``
        family.
    p_next:
        Probability that a ``fold`` family atom is ``next`` rather than
        ``lseg`` (the Table 2 ``pnext`` parameter).
    weights:
        Mixture over the strategy names in :data:`STRATEGIES`.  Strategies
        with weight 0 are never drawn; unknown names are rejected eagerly.
    """

    min_variables: int = 3
    max_variables: int = 6
    max_spatial: int = 4
    max_pure: int = 3
    p_next: float = 0.55
    weights: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def __post_init__(self) -> None:
        if self.min_variables < 2:
            raise ValueError("the generator needs at least two program variables")
        if self.max_variables < self.min_variables:
            raise ValueError("max_variables must be at least min_variables")
        unknown = set(self.weights) - set(STRATEGIES)
        if unknown:
            raise ValueError("unknown strategies: {}".format(", ".join(sorted(unknown))))
        if not any(weight > 0 for weight in self.weights.values()):
            raise ValueError("at least one strategy needs positive weight")

    def with_weights(self, **weights: float) -> "GeneratorProfile":
        """A copy with some strategy weights replaced (others kept)."""
        merged = dict(self.weights)
        merged.update(weights)
        return replace(self, weights=merged)

    @classmethod
    def only(cls, strategy: str, **kwargs) -> "GeneratorProfile":
        """A profile that draws exclusively from one named strategy."""
        return cls(weights={strategy: 1.0}, **kwargs)


@dataclass(frozen=True)
class FuzzCase:
    """One generated instance: the entailment plus its provenance."""

    index: int
    strategy: str
    entailment: Entailment


# ---------------------------------------------------------------------------
# Strategy implementations.  Each takes (rng, profile) and returns an
# entailment; they must draw all randomness from the supplied rng.
# ---------------------------------------------------------------------------


def _pool(rng: random.Random, profile: GeneratorProfile) -> List[Const]:
    return list(variable_pool(rng.randint(profile.min_variables, profile.max_variables)))


def _random_pure(rng: random.Random, pool: List[Const]):
    left = rng.choice(pool)
    right = rng.choice(pool + [NIL])
    return neq(left, right) if rng.random() < 0.6 else eq(left, right)


def _mixed(rng: random.Random, profile: GeneratorProfile) -> Entailment:
    """Arbitrary small entailments: spatial atoms and pure literals everywhere."""
    pool = _pool(rng, profile)

    def spatial_atom() -> SpatialAtom:
        source = rng.choice(pool)
        target = rng.choice(pool + [NIL])
        return pts(source, target) if rng.random() < 0.5 else lseg(source, target)

    lhs: list = [spatial_atom() for _ in range(rng.randint(0, profile.max_spatial))]
    rhs: list = [spatial_atom() for _ in range(rng.randint(0, profile.max_spatial - 1))]
    for _ in range(rng.randint(0, profile.max_pure)):
        (lhs if rng.random() < 0.7 else rhs).append(_random_pure(rng, pool))
    return Entailment.build(lhs=lhs, rhs=rhs)


def _fold(rng: random.Random, profile: GeneratorProfile) -> Entailment:
    """The Table 2 folding family (lhs permutation heap, rhs folded segments)."""
    variables = rng.randint(max(2, profile.min_variables), profile.max_variables)
    return random_fold_entailment(
        FoldParameters(variables=variables, p_next=profile.p_next), rng
    )


def _unsat(rng: random.Random, profile: GeneratorProfile) -> Entailment:
    """Table 1 rescaled to small n: dense lseg graph plus disequalities |- false."""
    pool = _pool(rng, profile)
    count = len(pool)
    p_lseg = min(0.9, 1.4 / count)
    p_neq = min(0.9, 1.8 / count)
    conjuncts: list = []
    for i, source in enumerate(pool):
        for j, target in enumerate(pool):
            if i != j and rng.random() < p_lseg:
                conjuncts.append(lseg(source, target))
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < p_neq:
                conjuncts.append(neq(pool[i], pool[j]))
    return Entailment.with_false_rhs(conjuncts)


def _alias_heavy(rng: random.Random, profile: GeneratorProfile) -> Entailment:
    """A small heap described through a thick haze of aliases.

    A handful of *heap* variables carry the spatial atoms; the rest of the
    pool is chained onto them with equalities, and the right-hand side is
    written in terms of the aliases, so the prover can only succeed by
    rewriting both sides to normal form first.
    """
    pool = _pool(rng, profile)
    rng.shuffle(pool)
    core_size = max(2, len(pool) // 2)
    core, aliases = pool[:core_size], pool[core_size:]

    # alias -> the core (or earlier alias) variable it collapses onto.
    canonical: Dict[Const, Const] = {v: v for v in core}
    lhs: list = []
    bound: List[Const] = list(core)
    for alias in aliases:
        partner = rng.choice(bound)
        lhs.append(eq(alias, partner))
        canonical[alias] = canonical[partner]
        bound.append(alias)

    def blur(variable: Const) -> Const:
        """Some name from ``variable``'s alias class (often not the representative)."""
        if variable not in canonical:  # nil has no aliases
            return variable
        options = [v for v, rep in canonical.items() if rep == canonical[variable]]
        return rng.choice(options)

    # A simple chain over the core, ending at nil or at a core variable.
    chain = list(core)
    rng.shuffle(chain)
    tail = NIL if rng.random() < 0.6 else rng.choice(chain)
    targets = chain[1:] + [tail]
    rhs: list = []
    for source, target in zip(chain, targets):
        atom = pts if rng.random() < 0.6 else lseg
        lhs.append(atom(blur(source), blur(target)))
        rhs.append(lseg(blur(source), blur(target)))
    if rng.random() < 0.5 and tail is NIL:
        # The folded form of the whole chain; valid when every link is a cell.
        rhs = [lseg(blur(chain[0]), NIL)]
    return Entailment.build(lhs=lhs, rhs=rhs)


def _diseq_chain(rng: random.Random, profile: GeneratorProfile) -> Entailment:
    """A path with pairwise/chained disequalities, folded on the right.

    ``lseg`` links make the fold's validity hinge on the disequalities (an
    ``lseg`` that cannot be empty behaves like a nonempty run), which is
    exactly the territory of the U3-U5 side conditions and of the
    well-formedness rules.
    """
    pool = _pool(rng, profile)
    rng.shuffle(pool)
    tail = NIL if rng.random() < 0.5 else pool[-1]
    path = pool if tail is NIL else pool[:-1]
    if not path:
        path, tail = [pool[0]], NIL

    lhs: list = []
    targets = path[1:] + [tail]
    for source, target in zip(path, targets):
        atom = pts if rng.random() < profile.p_next else lseg
        lhs.append(atom(source, target))
    # Disequalities: a chain along the path, plus a few random extra pairs.
    everyone = path + [tail] if tail is not NIL else path
    for source, target in zip(path, targets):
        if rng.random() < 0.7:
            lhs.append(neq(source, target))
    for _ in range(rng.randint(0, 2)):
        first, second = rng.sample(everyone, 2) if len(everyone) >= 2 else (path[0], path[0])
        if first != second:
            lhs.append(neq(first, second))

    # Fold a random prefix of the path into one segment.
    cut = rng.randint(1, len(path))
    stop = targets[cut - 1]
    rhs: list = [lseg(path[0], stop)]
    for source, target in zip(path[cut:], targets[cut:]):
        rhs.append(lseg(source, target))
    return Entailment.build(lhs=lhs, rhs=rhs)


def _near_symmetric(rng: random.Random, profile: GeneratorProfile) -> Entailment:
    """Disjoint copies of one identical gadget: maximal structural symmetry.

    Colour refinement cannot separate the copies (every variable looks the
    same), so canonicalisation must individualise.  An exhaustive search
    would try every order of the copies (k! leaves, past the refinement
    budget from about six copies); pruned by the automorphisms that permute
    the copies, it keys every instance in a few dozen passes.  The
    entailment itself stays easy for the prover — the stress is aimed at the
    batch layer's fingerprinting.
    """
    copies = rng.randint(2, 7)
    gadget = rng.choice(("two_cycle", "self_loop", "pair_to_nil"))
    lhs: list = []
    rhs: list = []
    for i in range(copies):
        a = "s{}a".format(i)
        b = "s{}b".format(i)
        if gadget == "two_cycle":
            lhs += [lseg(a, b), lseg(b, a)]
            rhs += [lseg(a, a)]
        elif gadget == "self_loop":
            lhs += [pts(a, a)]
            rhs += [lseg(a, b), lseg(b, a)]
        else:  # pair_to_nil
            lhs += [pts(a, b), pts(b, NIL)]
            rhs += [lseg(a, NIL)]
    return Entailment.build(lhs=lhs, rhs=rhs)


def _dll(rng: random.Random, profile: GeneratorProfile) -> Entailment:
    """Doubly-linked entailments over ``cell``/``dlseg`` atoms.

    Variable counts honour the profile bounds but lean hard on the smallest
    allowed sizes: two-field heaps multiply the enumeration oracle's search
    space, so only two-variable dll instances fit its default budget — for
    maximal oracle coverage campaign the family with ``--min-vars 2``.
    Three sub-shapes:

    * ``fold`` — a backlinked chain of cells on the left, a random contiguous
      run folded into one ``dlseg`` on the right (valid unless a perturbation
      corrupts a ``prev``/back argument);
    * ``mixed`` — arbitrary small ``cell``/``dlseg`` conjunctions plus pure
      literals on both sides;
    * ``clash`` — shapes aimed at the well-formedness rules: shared
      addresses and the degenerate ``dlseg`` argument patterns (``py = nil``,
      ``py = y``, ``x = y`` with ``px != py``), often with a ``false``
      right-hand side.
    """
    lowest = max(2, profile.min_variables)
    highest = max(lowest, profile.max_variables)
    # Lean hard on the smallest allowed sizes: two-variable instances are the
    # ones the enumeration oracle can decide exhaustively.
    sizes = list(range(lowest, min(highest, lowest + 2) + 1))
    count = rng.choices(sizes, weights=(0.55, 0.35, 0.10)[: len(sizes)], k=1)[0]
    pool = list(variable_pool(count))
    shape = rng.choices(("fold", "mixed", "clash"), weights=(0.5, 0.35, 0.15), k=1)[0]

    def anywhere() -> Const:
        return rng.choice(pool + [NIL])

    if shape == "mixed":
        def atom() -> SpatialAtom:
            source = rng.choice(pool)
            if rng.random() < 0.55:
                return dcell(source, anywhere(), anywhere())
            return dlseg(source, anywhere(), anywhere(), anywhere())

        lhs: list = [atom() for _ in range(rng.randint(0, 3))]
        rhs: list = [atom() for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(0, profile.max_pure)):
            (lhs if rng.random() < 0.7 else rhs).append(_random_pure(rng, pool))
        return Entailment.build(lhs=lhs, rhs=rhs)

    if shape == "clash":
        source = rng.choice(pool)
        gadget = rng.choice(("shared_address", "nil_back", "end_back", "empty_mismatch"))
        lhs = []
        if gadget == "shared_address":
            lhs = [dcell(source, anywhere(), anywhere())]
            lhs.append(
                dcell(source, anywhere(), anywhere())
                if rng.random() < 0.5
                else dlseg(source, anywhere(), anywhere(), anywhere())
            )
        elif gadget == "nil_back":
            lhs = [dlseg(source, anywhere(), anywhere(), NIL), neq(source, anywhere())]
        elif gadget == "end_back":
            end = anywhere()
            lhs = [dlseg(source, anywhere(), end, end), neq(source, end)]
        else:  # empty_mismatch: x = y but px != py
            px, py = rng.choice(pool), NIL
            lhs = [dlseg(source, px, source, py), neq(px, py)]
        if rng.random() < 0.6:
            return Entailment.with_false_rhs(lhs)
        return Entailment.build(lhs=lhs, rhs=[dlseg(source, anywhere(), anywhere(), anywhere())])

    # fold: a backlinked chain with a folded right-hand side.
    rng.shuffle(pool)
    length = rng.randint(1, len(pool))
    chain = pool[:length]
    tail = NIL if rng.random() < 0.7 else rng.choice(pool)
    first_prev = NIL if rng.random() < 0.7 else rng.choice(pool)
    nexts = chain[1:] + [tail]
    prevs = [first_prev] + chain[:-1]
    lhs = [dcell(chain[i], nexts[i], prevs[i]) for i in range(length)]
    # Occasionally present one link as the equivalent one-cell segment.
    if rng.random() < 0.3:
        i = rng.randrange(length)
        lhs[i] = dlseg(chain[i], prevs[i], nexts[i], chain[i])
    # Fold the run [start..stop] into a single segment on the right.
    start = rng.randrange(length)
    stop = rng.randrange(start, length)
    rhs = [dcell(chain[i], nexts[i], prevs[i]) for i in range(start)]
    rhs.append(dlseg(chain[start], prevs[start], nexts[stop], chain[stop]))
    rhs.extend(dcell(chain[i], nexts[i], prevs[i]) for i in range(stop + 1, length))
    # Perturb an argument sometimes, flipping the instance towards invalid.
    if rng.random() < 0.35:
        victim = rng.randrange(len(rhs))
        atom = rhs[victim]
        if atom.kind == "dlseg":
            rhs[victim] = dlseg(atom.source, anywhere(), atom.target, anywhere())
        else:
            rhs[victim] = dcell(atom.source, anywhere(), anywhere())
    if rng.random() < 0.3:
        lhs.append(_random_pure(rng, pool))
    return Entailment.build(lhs=lhs, rhs=rhs)


STRATEGIES: Mapping[str, Callable[[random.Random, GeneratorProfile], Entailment]] = {
    "mixed": _mixed,
    "fold": _fold,
    "unsat": _unsat,
    "alias_heavy": _alias_heavy,
    "diseq_chain": _diseq_chain,
    "near_symmetric": _near_symmetric,
    "dll": _dll,
}


class EntailmentGenerator:
    """Draw reproducible fuzzing instances from a weighted strategy mixture."""

    def __init__(self, seed: int = 0, profile: Optional[GeneratorProfile] = None):
        self.seed = seed
        self.profile = profile if profile is not None else GeneratorProfile()
        names = sorted(name for name, weight in self.profile.weights.items() if weight > 0)
        self._names: Tuple[str, ...] = tuple(names)
        self._weights = [self.profile.weights[name] for name in names]

    def _rng_for(self, index: int) -> random.Random:
        # String seeding hashes via SHA-512 in CPython: stable across runs,
        # platforms and PYTHONHASHSEED, unlike hash() based mixing.
        return random.Random("slp-fuzz:{}:{}".format(self.seed, index))

    def case(self, index: int) -> FuzzCase:
        """The ``index``-th instance of this seed (independent of history)."""
        rng = self._rng_for(index)
        strategy = rng.choices(self._names, weights=self._weights, k=1)[0]
        entailment = STRATEGIES[strategy](rng, self.profile)
        return FuzzCase(index=index, strategy=strategy, entailment=entailment)

    def cases(self, count: int, start: int = 0) -> List[FuzzCase]:
        """Instances ``start .. start+count-1``."""
        return [self.case(index) for index in range(start, start + count)]

    def entailments(self, count: int, start: int = 0) -> List[Entailment]:
        """Just the entailments of :meth:`cases` (for callers without provenance needs)."""
        return [case.entailment for case in self.cases(count, start)]
