"""The bucketed well-formedness pairing against an all-pairs oracle.

Both theories find their pairwise conflicts (W3-W5, and D4 for ``dll``) by
filing allocation anchors in buckets per location
(:class:`repro.spatial.wellformedness.AnchorIndex`; the same pairing over
plain positions is :func:`~repro.spatial.wellformedness.colliding_anchors`).
The scan that preceded it compared every pair of atoms; it is kept here,
verbatim in behaviour, as the oracle: on formulas built to collide —
several atoms per address, exact duplicates, ``nil`` addresses, trivial
segments, ``dll`` back cells landing on heads — the consequence lists must
agree element by element and in order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from hypothesis import given
from hypothesis import strategies as st

from repro.logic.atoms import (
    DllCell,
    DllSegment,
    EqAtom,
    ListSegment,
    PointsTo,
    SpatialAtom,
    SpatialFormula,
)
from repro.logic.clauses import Clause
from repro.logic.terms import NIL, Const, make_const
from repro.spatial.wellformedness import (
    WellFormednessConsequence,
    colliding_anchors,
    consequence_emitter,
    well_formedness_consequences,
)

# ---------------------------------------------------------------------------
# The oracle: the all-pairs scans.
# ---------------------------------------------------------------------------


def all_pairs(anchor_lists: Sequence[Sequence[Const]]) -> List[Tuple[int, int, int, int]]:
    return [
        (i, j, ki, kj)
        for i in range(len(anchor_lists))
        for j in range(i + 1, len(anchor_lists))
        for ki, first in enumerate(anchor_lists[i])
        for kj, second in enumerate(anchor_lists[j])
        if first == second and not first.is_nil
    ]


def reference_sll(clause: Clause) -> List[WellFormednessConsequence]:
    sigma = clause.spatial
    assert sigma is not None
    consequences: List[WellFormednessConsequence] = []
    emit = consequence_emitter(clause, consequences)
    atoms = list(sigma)
    for atom in atoms:
        if not atom.address.is_nil:
            continue
        if isinstance(atom, PointsTo):
            emit("W1", (), (atom,))
        elif isinstance(atom, ListSegment) and not atom.is_trivial:
            emit("W2", (EqAtom(atom.target, NIL),), (atom,))
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            first, second = atoms[i], atoms[j]
            if first.address != second.address or first.address.is_nil:
                continue
            first_is_next = isinstance(first, PointsTo)
            second_is_next = isinstance(second, PointsTo)
            if first_is_next and second_is_next:
                emit("W3", (), (first, second))
            elif first_is_next and not second_is_next:
                emit("W4", (EqAtom(second.source, second.target),), (first, second))
            elif not first_is_next and second_is_next:
                emit("W4", (EqAtom(first.source, first.target),), (second, first))
            else:
                emit(
                    "W5",
                    (EqAtom(first.source, first.target), EqAtom(second.source, second.target)),
                    (first, second),
                )
    return consequences


def reference_dll(clause: Clause) -> List[WellFormednessConsequence]:
    sigma = clause.spatial
    assert sigma is not None
    consequences: List[WellFormednessConsequence] = []
    emit = consequence_emitter(clause, consequences)
    atoms = list(sigma)
    for atom in atoms:
        if isinstance(atom, DllCell):
            if atom.address.is_nil:
                emit("W1", (), (atom,))
            continue
        assert isinstance(atom, DllSegment)
        if atom.is_trivial:
            continue
        if atom.source == atom.target:
            emit("D1", (EqAtom(atom.prev, atom.back),), (atom,))
            continue
        emptiness = EqAtom(atom.source, atom.target)
        if atom.address.is_nil:
            emit("W2", (emptiness,), (atom,))
        if atom.back.is_nil:
            emit("D2", (emptiness,), (atom,))
        if atom.back == atom.target:
            emit("D3", (emptiness,), (atom,))

    def anchors(atom: SpatialAtom) -> List[Tuple[Const, Optional[EqAtom], str]]:
        if isinstance(atom, DllCell):
            return [(atom.source, None, "head")]
        assert isinstance(atom, DllSegment)
        if atom.is_trivial or atom.source == atom.target:
            return []
        emptiness = EqAtom(atom.source, atom.target)
        result = [(atom.source, emptiness, "head")]
        if atom.back != atom.source:
            result.append((atom.back, emptiness, "back"))
        return result

    anchor_lists = [anchors(atom) for atom in atoms]
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            for loc_i, escape_i, role_i in anchor_lists[i]:
                for loc_j, escape_j, role_j in anchor_lists[j]:
                    if loc_i != loc_j or loc_i.is_nil:
                        continue
                    if role_i == "head" and role_j == "head":
                        if escape_i is None and escape_j is None:
                            rule = "W3"
                        elif escape_i is None or escape_j is None:
                            rule = "W4"
                        else:
                            rule = "W5"
                    else:
                        rule = "D4"
                    extra = tuple(
                        dict.fromkeys(e for e in (escape_i, escape_j) if e is not None)
                    )
                    emit(rule, extra, (atoms[i], atoms[j]))
    return consequences


# ---------------------------------------------------------------------------
# Formulas built to collide.
# ---------------------------------------------------------------------------

#: A small vocabulary (nil included) so that addresses collide often.
POOL = [make_const(name) for name in ("a", "b", "c", "d")] + [NIL]
constants = st.sampled_from(POOL)
pure_atoms = st.builds(EqAtom, constants, constants)

sll_atoms = st.one_of(
    st.builds(PointsTo, constants, constants),
    st.builds(ListSegment, constants, constants),
)
dll_atoms = st.one_of(
    st.builds(DllCell, constants, constants, constants),
    st.builds(DllSegment, constants, constants, constants, constants),
)


@st.composite
def colliding_formulas(draw, atoms):
    """Atoms over a tiny vocabulary, some of them duplicated exactly."""
    base = draw(st.lists(atoms, max_size=9))
    if base:
        indices = draw(st.lists(st.integers(0, len(base) - 1), max_size=3))
        base += [base[index] for index in indices]
    return base


@st.composite
def dll_formulas_with_backs_on_heads(draw):
    """``dll`` formulas whose segments' back cells are other atoms' heads."""
    base = draw(colliding_formulas(dll_atoms))
    heads = [atom.source for atom in base] or POOL
    backs = draw(st.lists(st.sampled_from(heads), min_size=1, max_size=3))
    for back in backs:
        source, prev, target = draw(st.tuples(constants, constants, constants))
        base.append(DllSegment(source, prev, target, back))
    return base


def positive_clause(atoms, gamma=(), delta=()) -> Clause:
    return Clause.positive_spatial(SpatialFormula(atoms), gamma, delta)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(st.lists(st.lists(constants, max_size=3), max_size=10))
def test_colliding_anchors_is_the_all_pairs_scan(anchor_lists):
    assert list(colliding_anchors(anchor_lists)) == all_pairs(anchor_lists)


@given(
    colliding_formulas(sll_atoms),
    st.lists(pure_atoms, max_size=2),
    st.lists(pure_atoms, max_size=2),
)
def test_sll_consequences_match_the_oracle(atoms, gamma, delta):
    clause = positive_clause(atoms, gamma, delta)
    assert well_formedness_consequences(clause) == reference_sll(clause)


@given(colliding_formulas(dll_atoms), st.lists(pure_atoms, max_size=2))
def test_dll_consequences_match_the_oracle(atoms, delta):
    clause = positive_clause(atoms, (), delta)
    assert well_formedness_consequences(clause) == reference_dll(clause)


@given(dll_formulas_with_backs_on_heads())
def test_dll_back_cells_on_heads_match_the_oracle(atoms):
    clause = positive_clause(atoms)
    assert well_formedness_consequences(clause) == reference_dll(clause)


# ---------------------------------------------------------------------------
# Pinned collisions (independent of what hypothesis happens to draw)
# ---------------------------------------------------------------------------


def test_three_atoms_at_one_address_and_duplicates():
    a, b, c = (make_const(name) for name in "abc")
    atoms = [
        PointsTo(a, b),
        ListSegment(a, c),
        PointsTo(a, b),  # an exact duplicate
        ListSegment(a, a),  # trivial, still paired by the sll scan
        ListSegment(NIL, b),  # nil address: W2, never paired
        PointsTo(NIL, c),
        ListSegment(b, c),
    ]
    clause = positive_clause(atoms)
    consequences = well_formedness_consequences(clause)
    assert consequences == reference_sll(clause)
    rules = [consequence.rule for consequence in consequences]
    assert rules.count("W3") == 1 and rules.count("W1") == 1 and rules.count("W2") == 1
    assert len([rule for rule in rules if rule in ("W3", "W4", "W5")]) == 6  # 4 atoms at a


def test_dll_back_cell_on_a_head_and_on_another_back():
    x, y, z, p, q = (make_const(name) for name in ("x", "y", "z", "p", "q"))
    atoms = [
        DllCell(y, z, x),
        DllSegment(x, p, z, y),  # back y lands on the cell's head
        DllSegment(q, p, z, y),  # a second back cell at y
        DllSegment(y, x, q, y),  # one-cell segment: its back is its head
    ]
    clause = positive_clause(atoms)
    consequences = well_formedness_consequences(clause)
    assert consequences == reference_dll(clause)
    assert "D4" in [consequence.rule for consequence in consequences]
