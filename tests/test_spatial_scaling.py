"""The per-round spatial rules stay linear in the formula.

Well-formedness and unfolding run in every round of the Figure 3 loop on the
normalised left-hand formula, so a pass that is quadratic in ``|Sigma|``
dominates long chains.  These guards count work rather than time, so they
are deterministic: as a chain grows from 500 to 4000 cells,

* ``well_formedness_consequences`` makes a bounded number of constant
  comparisons and hashes per atom (the all-pairs scan made ``n / 2``), and
* ``unfold`` builds the same small number of spatial formulas per call (the
  one-rule-at-a-time rewrite built two per U-step).

Sizes are checked smallest first, so a quadratic implementation fails on the
first, cheapest one.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import pytest

from repro.logic.atoms import DllCell, DllSegment, ListSegment, PointsTo, SpatialFormula
from repro.logic.clauses import Clause
from repro.logic.terms import NIL, Const, make_const
from repro.spatial.unfolding import unfold
from repro.spatial.wellformedness import well_formedness_consequences

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
