"""The builtin singly-linked spatial theory: ``next(x, y)`` and ``lseg(x, y)``.

This is the paper's fragment, routed through the :class:`SpatialTheory`
interface.  The rule implementations are the original ones — well-formedness
W1–W5, the forced-path unfolding U1–U5/SR, the single-cell candidate-model
realisation of Definition 4.1 and the Lemma 4.4 counterexample tweaks — and
their behaviour is pinned byte-identical by the tier-1 suite, the
index-equivalence oracle and the fuzz corpus.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.logic.atoms import (
    EqAtom,
    ListSegment,
    PointsTo,
    SpatialAtom,
    SpatialFormula,
)
from repro.logic.clauses import Clause
from repro.logic.terms import NIL, Const
from repro.semantics.heap import Heap, Loc, NIL_LOC, Stack, fresh_location
from repro.spatial.graph import spatial_graph
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


class SinglyLinkedTheory(SpatialTheory):
    """The ``next``/``lseg`` fragment of Berdine, Calcagno and O'Hearn."""

    name = "sll"
    description = "singly-linked cells next(x, y) and acyclic segments lseg(x, y)"
    cell_fields = 1
    signatures = (
        PredicateSignature(
            name="next",
            kind="cell",
            arity=2,
            constructor=PointsTo,
            doc="a single cell at x storing y",
        ),
        PredicateSignature(
            name="lseg",
            kind="segment",
            arity=2,
            constructor=ListSegment,
            doc="a possibly empty acyclic list segment from x to y",
        ),
    )

    # -- classification ----------------------------------------------------
    def is_segment(self, atom: SpatialAtom) -> bool:
        return isinstance(atom, ListSegment)

    # -- well-formedness (W1-W5, Figure 1) ---------------------------------
    # Every atom's one anchor is its address (the default); see
    # :mod:`repro.spatial.wellformedness` for how the rules are paired.
    def atom_consequences(self, atom: SpatialAtom) -> Tuple[Tuple[str, Tuple[EqAtom, ...]], ...]:
        # W1 / W2: nil used as an address.
        if not atom.source.is_nil:
            return ()
        if isinstance(atom, PointsTo):
            return (("W1", ()),)
        if atom.is_trivial:
            return ()
        return (("W2", (EqAtom(atom.target, NIL),)),)

    def pair_consequence(
        self, first: SpatialAtom, second: SpatialAtom, k_first: int, k_second: int
    ) -> Tuple[str, Tuple[EqAtom, ...], Tuple[SpatialAtom, ...]]:
        # W3 / W4 / W5: two atoms sharing the same address.
        first_is_next = isinstance(first, PointsTo)
        second_is_next = isinstance(second, PointsTo)
        if first_is_next and second_is_next:
            return "W3", (), (first, second)
        if first_is_next:
            return "W4", (EqAtom(second.source, second.target),), (first, second)
        if second_is_next:
            return "W4", (EqAtom(first.source, first.target),), (second, first)
        return (
            "W5",
            (EqAtom(first.source, first.target), EqAtom(second.source, second.target)),
            (first, second),
        )

    # -- unfolding (U1-U5 and SR, Figure 1 / Lemma 4.4) --------------------
    def unfold(self, positive: Clause, negative: Clause) -> UnfoldingOutcome:
        sigma = positive.spatial
        sigma_neg = negative.spatial
        assert sigma is not None and sigma_neg is not None

        addresses = address_map(sigma)
        claimed: Dict[Const, bool] = {address: False for address in addresses}

        # ------------------------------------------------------------------
        # Phase 1: matching.  Determine, for every atom of Sigma', the forced
        # sequence of Sigma atoms whose graph it must cover.  Any failure here
        # means the graph of Sigma itself falsifies Sigma' ("mismatch"), except
        # for the next-vs-lseg clash which is the paper's case (b).
        # ------------------------------------------------------------------
        matches: List[Tuple[SpatialAtom, List[SpatialAtom]]] = []
        for demanded in sigma_neg:
            if demanded.is_trivial:
                continue
            if isinstance(demanded, PointsTo):
                cell = addresses.get(demanded.source)
                if cell is None or cell.target != demanded.target:
                    return mismatch(
                        "no cell at {} pointing to {}".format(demanded.source, demanded.target)
                    )
                if claimed[cell.address]:
                    return mismatch("cell at {} needed twice".format(cell.address))
                if isinstance(cell, ListSegment):
                    return UnfoldingOutcome(
                        success=False,
                        failure_kind="next_expects_cell",
                        failure_edge=(cell.source, cell.target),
                        failure_atom=cell,
                        failure_detail=(
                            "{} demands a single cell but the left-hand side only "
                            "guarantees the segment {}".format(demanded, cell)
                        ),
                    )
                claimed[cell.address] = True
                matches.append((demanded, [cell]))
            else:  # a non-trivial list segment lseg(x, z)
                chain: List[SpatialAtom] = []
                current = demanded.source
                visited = {current}
                while current != demanded.target:
                    cell = addresses.get(current)
                    if cell is None:
                        return mismatch(
                            "the path demanded by {} dangles at {}".format(demanded, current)
                        )
                    if claimed[cell.address]:
                        return mismatch(
                            "the path demanded by {} reuses the cell at {}".format(
                                demanded, current
                            )
                        )
                    claimed[cell.address] = True
                    chain.append(cell)
                    current = cell.target
                    if current in visited and current != demanded.target:
                        return mismatch(
                            "the path demanded by {} runs into a cycle at {}".format(
                                demanded, current
                            )
                        )
                    visited.add(current)
                matches.append((demanded, chain))

        uncovered = unclaimed_cells_mismatch(claimed)
        if uncovered is not None:
            return uncovered

        # ------------------------------------------------------------------
        # Phase 2: rewriting.  Replay the matching as a sequence of U-rule
        # moves on the negative formula, accumulating side conditions.
        # ------------------------------------------------------------------
        moves: List[UnfoldingMove] = []

        for demanded, chain in matches:
            if isinstance(demanded, PointsTo):
                # Exact match with a next atom: nothing to rewrite.
                continue

            remaining = demanded  # the lseg atom still to be unfolded
            for index, cell in enumerate(chain):
                is_last = index == len(chain) - 1
                if is_last:
                    if isinstance(cell, ListSegment):
                        # The final piece is literally the remaining segment.
                        break
                    # U1: the final piece is a cell next(x, z).
                    moves.append(
                        UnfoldingMove(
                            "U1",
                            remaining,
                            (cell,),
                            EqAtom(cell.source, demanded.target),
                            "fold the final cell {} into {}",
                            (cell, remaining),
                        )
                    )
                    break

                peeled = ListSegment(cell.target, demanded.target)
                if isinstance(cell, PointsTo):
                    # U2: peel a cell off the front of the segment.
                    moves.append(
                        UnfoldingMove(
                            "U2",
                            remaining,
                            (cell, peeled),
                            EqAtom(cell.source, demanded.target),
                            "peel {} off {}",
                            (cell, remaining),
                        )
                    )
                else:
                    target = demanded.target
                    if target.is_nil:
                        rule, side = "U3", None
                    else:
                        anchor = addresses.get(target)
                        if anchor is None:
                            return dangling_segment(
                                negative, positive, moves, demanded, cell, target
                            )
                        if isinstance(anchor, PointsTo):
                            rule, side = "U4", None
                        else:
                            rule, side = "U5", EqAtom(anchor.source, anchor.target)
                    moves.append(
                        UnfoldingMove(
                            rule,
                            remaining,
                            (cell, peeled),
                            side,
                            "split {} at {}",
                            (remaining, cell.target),
                        )
                    )
                remaining = peeled

        # Phase 3: spatial resolution (shared across theories).
        return resolve_spatial(positive, negative, moves)

    # -- candidate model (Definition 4.1) ----------------------------------
    def model_heap_cells(
        self, locate: Callable[[Const], Loc], positive: Clause
    ) -> Dict[Loc, object]:
        sigma = positive.spatial
        assert sigma is not None
        graph = spatial_graph(sigma, strict=True)
        return {locate(source): locate(target) for source, target in graph.items()}

    # -- exact satisfaction -------------------------------------------------
    def satisfies_spatial(self, stack: Stack, heap: Heap, sigma: SpatialFormula) -> bool:
        claimed: Set[Loc] = set()

        for atom in sigma:
            source = stack.evaluate(atom.source)
            target = stack.evaluate(atom.target)

            if isinstance(atom, PointsTo):
                if source == NIL_LOC:
                    return False
                if heap.lookup(source) != target:
                    return False
                if source in claimed:
                    return False
                claimed.add(source)
                continue

            assert isinstance(atom, ListSegment)
            if source == target:
                continue  # the empty segment owns no cells
            current = source
            visited: Set[Loc] = set()
            while current != target:
                if current == NIL_LOC:
                    return False
                if current in visited:
                    return False  # a cycle that never reaches the target
                visited.add(current)
                value = heap.lookup(current)
                if value is None:
                    return False
                if current in claimed:
                    return False
                claimed.add(current)
                current = value

        return claimed == heap.domain()

    # -- counterexample tweaks (Lemma 4.4) ----------------------------------
    def counterexample_candidates(
        self,
        locate: Callable[[Const], Loc],
        base_cells: Dict[Loc, object],
        outcome: Optional[UnfoldingOutcome],
    ) -> List[Tuple[Dict[Loc, object], str]]:
        candidates: List[Tuple[Dict[Loc, object], str]] = []

        if outcome is not None and outcome.failure_kind == "next_expects_cell":
            assert outcome.failure_edge is not None
            source, target = outcome.failure_edge
            source_loc = locate(source)
            target_loc = locate(target)
            used = list(base_cells) + list(base_cells.values()) + [NIL_LOC]
            middle = fresh_location(used)
            stretched = dict(base_cells)
            stretched[source_loc] = middle
            stretched[middle] = target_loc
            candidates.append(
                (
                    stretched,
                    "the segment lseg({}, {}) stretched into two cells".format(source, target),
                )
            )

        if outcome is not None and outcome.failure_kind == "dangling_segment":
            assert outcome.failure_edge is not None and outcome.failure_target is not None
            source, target = outcome.failure_edge
            via = outcome.failure_target
            source_loc = locate(source)
            target_loc = locate(target)
            via_loc = locate(via)
            rerouted = dict(base_cells)
            rerouted[source_loc] = via_loc
            rerouted[via_loc] = target_loc
            candidates.append(
                (
                    rerouted,
                    "the segment lseg({}, {}) re-routed through {}".format(source, target, via),
                )
            )

        return candidates

    # -- generator hooks -----------------------------------------------------
    def frame_atom(self, source: Const, pool: List[Const], rng: random.Random) -> SpatialAtom:
        target = rng.choice(pool + [NIL]) if pool else NIL
        return (
            PointsTo(source, target) if rng.random() < 0.6 else ListSegment(source, target)
        )

    def empty_segment_atom(
        self, anchor: Const, pool: List[Const], rng: random.Random
    ) -> SpatialAtom:
        return ListSegment(anchor, anchor)


#: The registered singleton.
THEORY = register_theory(SinglyLinkedTheory())
