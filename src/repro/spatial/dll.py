"""The doubly-linked spatial theory: ``cell(x, n, p)`` and ``dlseg(x, px, y, py)``.

This is the first predicate family beyond the paper's fragment, instantiated
through the :class:`~repro.spatial.theory.SpatialTheory` interface.  A heap
cell has two pointer fields (``next``, ``prev``); the segment predicate is

    dlseg(x, px, y, py)  =  (x = y /\\ px = py /\\ emp)
                         \\/ (exists u. cell(x, u, px) * dlseg(u, x, y, py))

so ``px`` is what the first cell's ``prev`` field points to and ``py`` is the
*last cell* of the segment.  The family keeps the fragment's no-search
forced-path property: a heap is a partial function, so the cells a ``dlseg``
atom may own are found by walking ``next`` pointers from ``x`` while checking
the ``prev`` backlinks — there is never a choice point.

Consequences of the definition that drive the rule systems below:

* a non-empty segment owns ``x`` and ``py`` (they coincide exactly for
  one-cell segments), and its end ``y`` is *not* owned, so ``py != y`` and
  ``py != nil`` whenever the segment is non-empty;
* ``dlseg(x, px, x, py)`` with ``px != py`` is unsatisfiable unless
  ``px = py`` holds (rule D1);
* the candidate model realises every non-empty segment with the fewest cells
  its arguments allow: one cell ``x -> (y, px)`` when ``py = x``, otherwise
  the two cells ``x -> (py, px)`` and ``py -> (y, x)``.  The back cell is a
  second *allocation anchor*, which is what the D-rules below track.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.logic.atoms import (
    DllCell,
    DllSegment,
    EqAtom,
    SpatialAtom,
    SpatialFormula,
)
from repro.logic.clauses import Clause
from repro.logic.terms import NIL, Const
from repro.semantics.heap import Heap, Loc, NIL_LOC, Stack, fresh_location
from repro.spatial.theory import PredicateSignature, SpatialTheory, register_theory
from repro.spatial.unfolding import (
    UnfoldingMove,
    UnfoldingOutcome,
    address_map,
    dangling_segment,
    mismatch,
    resolve_spatial,
    unclaimed_cells_mismatch,
)


def _back_map(sigma: SpatialFormula) -> Dict[Const, DllSegment]:
    """Map the *back* cell of every two-cell segment to its atom.

    Only segments whose back differs from their head contribute — a one-cell
    segment's back IS its address and lives in the address map.
    """
    backs: Dict[Const, DllSegment] = {}
    for atom in sigma:
        if isinstance(atom, DllSegment) and not atom.is_trivial and atom.back != atom.source:
            if atom.back in backs:
                raise ValueError(
                    "unfolding requires a well-formed positive formula; "
                    "back cell {} occurs twice".format(atom.back)
                )
            backs[atom.back] = atom
    return backs


def _stretch_failure(segment: DllSegment, demanded: SpatialAtom) -> UnfoldingOutcome:
    """The case-(b) failure: the RHS pins down cells inside a stretchable segment."""
    return UnfoldingOutcome(
        success=False,
        failure_kind="next_expects_cell",
        failure_edge=(segment.source, segment.target),
        failure_atom=segment,
        failure_detail=(
            "{} pins down cells but the left-hand side only guarantees the "
            "stretchable segment {}".format(demanded, segment)
        ),
    )


class DoublyLinkedTheory(SpatialTheory):
    """Two-field cells and doubly-linked segments."""

    name = "dll"
    description = "two-field cells cell(x, n, p) and doubly-linked segments dlseg(x, px, y, py)"
    cell_fields = 2
    signatures = (
        PredicateSignature(
            name="cell",
            kind="cell",
            arity=3,
            constructor=DllCell,
            doc="a single two-field cell at x with next = n and prev = p",
        ),
        PredicateSignature(
            name="dlseg",
            kind="segment",
            arity=4,
            constructor=DllSegment,
            doc="a possibly empty doubly-linked segment from x to y; the first "
            "cell's prev is px and the last cell is py",
        ),
    )

    # -- classification ----------------------------------------------------
    def is_segment(self, atom: SpatialAtom) -> bool:
        return isinstance(atom, DllSegment)

    # -- well-formedness ----------------------------------------------------
    # The W1-W5 analogues plus the back-anchor rules D1-D4:
    #
    # * W1 ``cell(nil, n, p)``: derive ``Gamma -> Delta``.
    # * W2 ``dlseg(nil, px, y, py)`` (non-trivial, ``nil != y``): the segment
    #   must be empty; derive ``Gamma -> y = nil, Delta``.
    # * D1 ``dlseg(x, px, x, py)`` with ``px != py``: only the empty segment
    #   fits; derive ``Gamma -> px = py, Delta``.
    # * D2 ``dlseg(x, px, y, nil)`` (``x != y``): a non-empty segment's last
    #   cell cannot be ``nil``; derive ``Gamma -> x = y, Delta``.
    # * D3 ``dlseg(x, px, y, y)`` (``x != y``): the last cell is owned but the
    #   end is not; derive ``Gamma -> x = y, Delta``.
    # * W3/W4/W5/D4 two allocation anchors coincide: every atom that cannot
    #   be empty there contributes a contradiction, every segment its
    #   emptiness equation to ``Delta`` (W3: cell/cell, W4: cell/segment, W5:
    #   segment/segment, all on addresses, mirroring the singly-linked names;
    #   D4: any collision involving a back anchor).
    def allocation_anchors(self, atom: SpatialAtom) -> Tuple[Const, ...]:
        """The head, plus the back cell of a two-cell segment (index 1).

        A trivial segment, or one whose ends coincide, is forced empty and
        allocates nothing.
        """
        if isinstance(atom, DllCell):
            return (atom.source,)
        assert isinstance(atom, DllSegment)
        if atom.source == atom.target:
            return ()
        if atom.back != atom.source:
            return (atom.source, atom.back)
        return (atom.source,)

    def atom_consequences(self, atom: SpatialAtom) -> Tuple[Tuple[str, Tuple[EqAtom, ...]], ...]:
        if isinstance(atom, DllCell):
            return (("W1", ()),) if atom.source.is_nil else ()
        assert isinstance(atom, DllSegment)
        if atom.is_trivial:
            return ()
        if atom.source == atom.target:
            # Non-trivial with equal ends: prev != back, so only the empty
            # segment fits and it forces the prev/back equation.
            return (("D1", (EqAtom(atom.prev, atom.back),)),)
        emptiness = (EqAtom(atom.source, atom.target),)
        rules = []
        if atom.source.is_nil:
            rules.append(("W2", emptiness))
        if atom.back.is_nil:
            rules.append(("D2", emptiness))
        if atom.back == atom.target:
            rules.append(("D3", emptiness))
        return tuple(rules)

    def pair_consequence(
        self, first: SpatialAtom, second: SpatialAtom, k_first: int, k_second: int
    ) -> Tuple[str, Tuple[EqAtom, ...], Tuple[SpatialAtom, ...]]:
        # A segment gives its cells up through its emptiness equation.
        escape_first = (
            EqAtom(first.source, first.target) if isinstance(first, DllSegment) else None
        )
        escape_second = (
            EqAtom(second.source, second.target) if isinstance(second, DllSegment) else None
        )
        if k_first or k_second:
            rule = "D4"
        elif escape_first is None and escape_second is None:
            rule = "W3"
        elif escape_first is None or escape_second is None:
            rule = "W4"
        else:
            rule = "W5"
        extra = tuple(
            dict.fromkeys(escape for escape in (escape_first, escape_second) if escape is not None)
        )
        return rule, extra, (first, second)

    # -- unfolding ----------------------------------------------------------
    def unfold(self, positive: Clause, negative: Clause) -> UnfoldingOutcome:
        sigma = positive.spatial
        sigma_neg = negative.spatial
        assert sigma is not None and sigma_neg is not None

        addresses = address_map(sigma)
        backs = _back_map(sigma)
        claimed: Dict[Const, bool] = {address: False for address in addresses}

        # ------------------------------------------------------------------
        # Phase 1: matching.  For every atom of Sigma', the forced sequence of
        # Sigma atoms whose realisation it must cover — walking next pointers,
        # checking prev backlinks and the demanded segment's last cell.
        # ------------------------------------------------------------------
        matches: List[Tuple[SpatialAtom, List[SpatialAtom]]] = []
        for demanded in sigma_neg:
            if demanded.is_trivial:
                continue
            if isinstance(demanded, DllCell):
                piece = addresses.get(demanded.source)
                if piece is None:
                    if demanded.source in backs:
                        return _stretch_failure(backs[demanded.source], demanded)
                    return mismatch(
                        "no cell at {} storing ({}, {})".format(
                            demanded.source, demanded.target, demanded.prev
                        )
                    )
                if claimed[piece.address]:
                    return mismatch("cell at {} needed twice".format(piece.address))
                if isinstance(piece, DllCell):
                    if piece.target != demanded.target or piece.prev != demanded.prev:
                        return mismatch(
                            "no cell at {} storing ({}, {})".format(
                                demanded.source, demanded.target, demanded.prev
                            )
                        )
                    claimed[piece.address] = True
                    matches.append((demanded, [piece]))
                    continue
                assert isinstance(piece, DllSegment)
                if piece.back != piece.source:
                    # A two-cell segment can always grow an interior cell, so a
                    # single-cell demand on its head never holds in all models.
                    return _stretch_failure(piece, demanded)
                # One-cell segment dlseg(x, px, y, x): exactly cell(x, y, px).
                if piece.target != demanded.target or piece.prev != demanded.prev:
                    return mismatch(
                        "no cell at {} storing ({}, {})".format(
                            demanded.source, demanded.target, demanded.prev
                        )
                    )
                claimed[piece.address] = True
                matches.append((demanded, [piece]))
                continue

            assert isinstance(demanded, DllSegment)
            if demanded.source == demanded.target:
                # Non-trivial with equal ends: the demanded segment must be
                # empty, which requires prev = back — false in the candidate
                # model, whose distinct constants denote distinct locations.
                return mismatch(
                    "the empty segment demanded by {} requires {} = {}".format(
                        demanded, demanded.prev, demanded.back
                    )
                )
            chain: List[SpatialAtom] = []
            current = demanded.source
            expected_prev = demanded.prev
            last_cell: Optional[Const] = None
            visited = {current}
            while current != demanded.target:
                piece = addresses.get(current)
                if piece is None:
                    if current in backs:
                        return _stretch_failure(backs[current], demanded)
                    return mismatch(
                        "the path demanded by {} dangles at {}".format(demanded, current)
                    )
                if claimed[piece.address]:
                    return mismatch(
                        "the path demanded by {} reuses the cell at {}".format(demanded, current)
                    )
                if isinstance(piece, DllCell):
                    if piece.prev != expected_prev:
                        return mismatch(
                            "the cell {} backlinks to {} but the path demanded by {} "
                            "expects prev {}".format(piece, piece.prev, demanded, expected_prev)
                        )
                    last_cell = piece.source
                    next_stop = piece.target
                else:
                    assert isinstance(piece, DllSegment)
                    if piece.prev != expected_prev:
                        return mismatch(
                            "the segment {} backlinks to {} but the path demanded by {} "
                            "expects prev {}".format(piece, piece.prev, demanded, expected_prev)
                        )
                    if piece.target != demanded.target and piece.back == demanded.target:
                        # The demanded segment would end on the piece's interior
                        # back cell — impossible in a stretched model.
                        return _stretch_failure(piece, demanded)
                    last_cell = piece.back
                    next_stop = piece.target
                claimed[piece.address] = True
                chain.append(piece)
                expected_prev = last_cell
                current = next_stop
                if current in visited and current != demanded.target:
                    return mismatch(
                        "the path demanded by {} runs into a cycle at {}".format(
                            demanded, current
                        )
                    )
                visited.add(current)
            if last_cell != demanded.back:
                return mismatch(
                    "the path demanded by {} ends with the cell {} but the segment's "
                    "last cell should be {}".format(demanded, last_cell, demanded.back)
                )
            matches.append((demanded, chain))

        uncovered = unclaimed_cells_mismatch(claimed)
        if uncovered is not None:
            return uncovered

        # ------------------------------------------------------------------
        # Phase 2: rewriting.  Replay the matching as U-rule moves on the
        # negative formula, accumulating side conditions in Delta'.
        # ------------------------------------------------------------------
        moves: List[UnfoldingMove] = []

        for demanded, chain in matches:
            if isinstance(demanded, DllCell):
                (piece,) = chain
                if isinstance(piece, DllCell):
                    # Exact match with a cell atom: nothing to rewrite.
                    continue
                # U1 (cell form): fold the demanded cell into the one-cell
                # segment; sound unless the segment's ends coincide.
                moves.append(
                    UnfoldingMove(
                        "U1",
                        demanded,
                        (piece,),
                        EqAtom(piece.source, piece.target),
                        "fold the cell {} into the one-cell segment {}",
                        (demanded, piece),
                    )
                )
                continue

            assert isinstance(demanded, DllSegment)
            remaining = demanded
            for index, piece in enumerate(chain):
                is_last = index == len(chain) - 1
                if is_last:
                    if isinstance(piece, DllSegment):
                        # The final piece is literally the remaining segment.
                        break
                    # U1: the final piece is the cell cell(x, y, px).
                    moves.append(
                        UnfoldingMove(
                            "U1",
                            remaining,
                            (piece,),
                            EqAtom(piece.source, demanded.target),
                            "fold the final cell {} into {}",
                            (piece, remaining),
                        )
                    )
                    break

                if isinstance(piece, DllCell):
                    front, front_last = piece, piece.source
                    rule: str = "U2"
                    side: Optional[EqAtom] = EqAtom(piece.source, demanded.target)
                    template = "peel {} off {}"
                    subjects: Tuple[object, ...] = (piece, remaining)
                elif piece.back == piece.source:
                    # U2 (segment form): a one-cell segment peels like a cell;
                    # its interior is exactly its head, escaped by x = y.
                    front, front_last = piece, piece.back
                    rule, side = "U2", EqAtom(piece.source, demanded.target)
                    template = "peel the one-cell segment {} off {}"
                    subjects = (piece, remaining)
                else:
                    # U3/U4/U5: split at a two-cell segment; the demanded end
                    # must be provably outside the piece.
                    front, front_last = piece, piece.back
                    target = demanded.target
                    if target.is_nil:
                        rule, side = "U3", None
                    else:
                        anchor = addresses.get(target)
                        if anchor is None and target in backs:
                            anchor = backs[target]
                        if anchor is None:
                            return dangling_segment(
                                negative, positive, moves, demanded, piece, target
                            )
                        if isinstance(anchor, DllCell):
                            rule, side = "U4", None
                        else:
                            rule, side = "U5", EqAtom(anchor.source, anchor.target)
                    template, subjects = "split {} at {}", (remaining, piece.target)

                peeled = DllSegment(
                    piece.target, front_last, demanded.target, demanded.back
                )
                moves.append(
                    UnfoldingMove(rule, remaining, (front, peeled), side, template, subjects)
                )
                remaining = peeled

        # Phase 3: spatial resolution (shared across theories).
        return resolve_spatial(positive, negative, moves)

    # -- candidate model -----------------------------------------------------
    def model_heap_cells(
        self, locate: Callable[[Const], Loc], positive: Clause
    ) -> Dict[Loc, object]:
        sigma = positive.spatial
        assert sigma is not None
        cells: Dict[Loc, Tuple[Loc, Loc]] = {}

        def store(address: Loc, value: Tuple[Loc, Loc], atom: SpatialAtom) -> None:
            if address == NIL_LOC:
                raise ValueError("atom {} allocates the nil location".format(atom))
            if address in cells:
                raise ValueError(
                    "two atoms allocate the location {} — the formula is not "
                    "well-formed".format(address)
                )
            cells[address] = value

        for atom in sigma:
            if atom.is_trivial:
                continue
            if isinstance(atom, DllCell):
                store(locate(atom.source), (locate(atom.target), locate(atom.prev)), atom)
                continue
            assert isinstance(atom, DllSegment)
            head, prev = locate(atom.source), locate(atom.prev)
            end, back = locate(atom.target), locate(atom.back)
            if back == head:
                store(head, (end, prev), atom)
            else:
                store(head, (back, prev), atom)
                store(back, (end, head), atom)
        return cells

    # -- exact satisfaction ---------------------------------------------------
    def satisfies_spatial(self, stack: Stack, heap: Heap, sigma: SpatialFormula) -> bool:
        claimed: Set[Loc] = set()

        for atom in sigma:
            if isinstance(atom, DllCell):
                source = stack.evaluate(atom.source)
                if source == NIL_LOC:
                    return False
                if heap.lookup(source) != (
                    stack.evaluate(atom.target),
                    stack.evaluate(atom.prev),
                ):
                    return False
                if source in claimed:
                    return False
                claimed.add(source)
                continue

            assert isinstance(atom, DllSegment)
            source = stack.evaluate(atom.source)
            prev = stack.evaluate(atom.prev)
            target = stack.evaluate(atom.target)
            back = stack.evaluate(atom.back)
            if source == target:
                if prev != back:
                    return False
                continue  # the empty segment owns no cells
            current = source
            expected_prev = prev
            last: Optional[Loc] = None
            visited: Set[Loc] = set()
            while current != target:
                if current == NIL_LOC:
                    return False
                if current in visited:
                    return False  # a cycle that never reaches the target
                visited.add(current)
                value = heap.lookup(current)
                if not isinstance(value, tuple) or len(value) != 2:
                    return False
                next_loc, prev_loc = value
                if prev_loc != expected_prev:
                    return False
                if current in claimed:
                    return False
                claimed.add(current)
                last = current
                expected_prev = current
                current = next_loc
            if last != back:
                return False

        return claimed == heap.domain()

    # -- counterexample tweaks -------------------------------------------------
    def counterexample_candidates(
        self,
        locate: Callable[[Const], Loc],
        base_cells: Dict[Loc, object],
        outcome: Optional[UnfoldingOutcome],
    ) -> List[Tuple[Dict[Loc, object], str]]:
        candidates: List[Tuple[Dict[Loc, object], str]] = []
        if outcome is None or not isinstance(outcome.failure_atom, DllSegment):
            return candidates
        segment = outcome.failure_atom
        head, prev = locate(segment.source), locate(segment.prev)
        end, back = locate(segment.target), locate(segment.back)

        def used_locations() -> List[Loc]:
            used: List[Loc] = list(base_cells) + [NIL_LOC]
            for value in base_cells.values():
                used.extend(value if isinstance(value, tuple) else [value])
            return used

        if outcome.failure_kind == "next_expects_cell" and back != head:
            middle = fresh_location(used_locations())
            stretched = dict(base_cells)
            stretched[head] = (middle, prev)
            stretched[middle] = (back, head)
            stretched[back] = (end, middle)
            candidates.append(
                (
                    stretched,
                    "the segment {} stretched through a fresh cell".format(segment),
                )
            )

        if outcome.failure_kind == "dangling_segment" and back != head:
            assert outcome.failure_target is not None
            via = locate(outcome.failure_target)
            rerouted = dict(base_cells)
            rerouted[head] = (via, prev)
            rerouted[via] = (back, head)
            rerouted[back] = (end, via)
            candidates.append(
                (
                    rerouted,
                    "the segment {} re-routed through {}".format(
                        segment, outcome.failure_target
                    ),
                )
            )

        return candidates

    # -- generator hooks -------------------------------------------------------
    def frame_atom(self, source: Const, pool: List[Const], rng: random.Random) -> SpatialAtom:
        target = rng.choice(pool + [NIL]) if pool else NIL
        prev = rng.choice(pool + [NIL]) if pool else NIL
        return DllCell(source, target, prev)

    def empty_segment_atom(
        self, anchor: Const, pool: List[Const], rng: random.Random
    ) -> SpatialAtom:
        prev = rng.choice(pool + [NIL]) if pool else NIL
        return DllSegment(anchor, prev, anchor, prev)


#: The registered singleton.
THEORY = register_theory(DoublyLinkedTheory())
