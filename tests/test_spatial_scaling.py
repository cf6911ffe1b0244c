"""The per-round spatial rules stay linear in the formula, or better.

Well-formedness and unfolding run in every round of the Figure 3 loop on the
normalised left-hand formula, so a pass that is quadratic in ``|Sigma|``
dominates long chains.  These guards count work rather than time, so they
are deterministic: as a chain grows from 500 to 4000 cells,

* ``well_formedness_consequences`` makes a bounded number of constant
  comparisons and hashes per atom (the all-pairs scan made ``n / 2``),
* ``unfold`` builds the same small number of spatial formulas per call (the
  one-rule-at-a-time rewrite built two per U-step), and
* a round of normalisation plus well-formedness, against a model that moves
  one constant's normal form per round, substitutes, re-files and pairs the
  same few atoms whatever the chain's length (a normaliser without state
  across rounds substitutes every atom every round).

Sizes are checked smallest first, so a quadratic implementation fails on the
first, cheapest one.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import pytest

from repro.logic.atoms import DllCell, DllSegment, EqAtom, ListSegment, PointsTo, SpatialFormula
from repro.logic.clauses import Clause
from repro.logic.ordering import default_order
from repro.logic.terms import NIL, Const, make_const
from repro.spatial.normalization import normalize_clause_fast
from repro.spatial.theory import get_theory
from repro.spatial.unfolding import unfold
from repro.spatial.wellformedness import well_formedness_consequences
from repro.superposition.model import EqualityModel, GeneratingClause
from repro.superposition.rewrite import RewriteRelation

SIZES = (500, 1000, 2000, 4000)


def sll_chain(cells: int) -> Tuple[Clause, Clause]:
    """``next(x0, x1) * ... * next(x{n-1}, nil)`` against ``lseg(x0, nil)``."""
    names = [make_const("x{}".format(index)) for index in range(cells)] + [NIL]
    positive = SpatialFormula(PointsTo(names[i], names[i + 1]) for i in range(cells))
    negative = SpatialFormula([ListSegment(names[0], NIL)])
    return Clause.positive_spatial(positive), Clause.negative_spatial(negative)


def dll_chain(cells: int) -> Tuple[Clause, Clause]:
    """Cells ``x0 .. x{n-1}`` linked both ways against one ``dlseg``."""
    names = [NIL] + [make_const("x{}".format(index)) for index in range(cells)] + [NIL]
    positive = SpatialFormula(
        DllCell(names[i], names[i + 1], names[i - 1]) for i in range(1, cells + 1)
    )
    negative = SpatialFormula([DllSegment(names[1], NIL, NIL, names[cells])])
    return Clause.positive_spatial(positive), Clause.negative_spatial(negative)


CHAINS = {"sll": sll_chain, "dll": dll_chain}


def counting(monkeypatch, owner: type, name: str, tally: List[int]) -> None:
    original: Callable = getattr(owner, name)

    def counted(*args, **kwargs):
        tally[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("theory", sorted(CHAINS))
def test_wellformedness_compares_constants_a_bounded_number_of_times_per_atom(
    theory, monkeypatch
):
    for cells in SIZES:
        positive, _ = CHAINS[theory](cells)
        tally = [0]
        with monkeypatch.context() as patch:
            counting(patch, Const, "__eq__", tally)
            counting(patch, Const, "__hash__", tally)
            consequences = well_formedness_consequences(positive)
        assert consequences == []
        assert tally[0] <= 4 * cells, (cells, tally[0])


@pytest.mark.parametrize("theory", sorted(CHAINS))
def test_unfold_builds_a_constant_number_of_formulas(theory, monkeypatch):
    built = []
    for cells in SIZES:
        positive, negative = CHAINS[theory](cells)
        tally = [0]
        with monkeypatch.context() as patch:
            counting(patch, SpatialFormula, "__init__", tally)
            outcome = unfold(positive, negative)
        built.append(tally[0])
        assert tally[0] <= 3, (cells, tally[0])
        assert outcome.success and outcome.step_count == cells + 1
    assert len(set(built)) == 1, built


#: Rounds of the inner loop the incremental guard runs after the first.
ROUNDS = 8


def sliding_edge(names: List[Const], round_number: int) -> EqualityModel:
    """The model whose one edge rewrites ``x_r`` to ``x_{r+1}`` in round ``r``.

    From one round to the next, ``x_{r-1}`` goes back to being its own
    normal form and ``x_r`` gets a new one.
    """
    source, target = names[round_number], names[round_number + 1]
    equation = EqAtom(source, target)
    generator = GeneratingClause(
        clause=Clause.pure(delta=[equation]),
        equation=equation,
        leftover_gamma=frozenset(),
        leftover_delta=frozenset(),
    )
    return EqualityModel(
        relation=RewriteRelation({source: target}),
        generators={(source, target): generator},
        order=default_order(names[round_number : round_number + 2]),
    )


@pytest.mark.parametrize("theory", sorted(CHAINS))
def test_a_round_costs_what_the_model_moved(theory, monkeypatch):
    atom_types = {"sll": PointsTo, "dll": DllCell}
    theory_type = type(get_theory(theory))
    per_size = []
    for cells in SIZES:
        positive, _ = CHAINS[theory](cells)
        names = [make_const("x{}".format(index)) for index in range(cells)]
        normalized, _ = normalize_clause_fast(positive, sliding_edge(names, 1))
        assert len(well_formedness_consequences(normalized)) == 1
        substituted, filed, paired = [0], [0], [0]
        with monkeypatch.context() as patch:
            counting(patch, atom_types[theory], "substitute", substituted)
            # The hooks of the incremental design (absent from a normaliser
            # without them: those rounds fail on the substitutions).
            for name, tally in (("allocation_anchors", filed), ("pair_consequence", paired)):
                original = getattr(theory_type, name, None)
                if original is not None:
                    counting(patch, theory_type, name, tally)
            for round_number in range(2, 2 + ROUNDS):
                normalized, steps = normalize_clause_fast(
                    positive, sliding_edge(names, round_number)
                )
                assert steps == 1
                assert len(well_formedness_consequences(normalized)) == 1
        per_round = (substituted[0] / ROUNDS, filed[0] / ROUNDS, paired[0] / ROUNDS)
        assert per_round[0] <= 6 and per_round[1] <= 12 and per_round[2] <= 1, (cells, per_round)
        per_size.append(per_round)
    assert len(set(per_size)) == 1, per_size
