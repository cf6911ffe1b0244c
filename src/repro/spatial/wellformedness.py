"""Well-formedness rules: unsatisfiable heap shapes become pure clauses.

A positive spatial clause ``Gamma -> Delta, Sigma`` asserts a heap shape; the
well-formedness rules detect shapes that cannot be realised by any heap and
turn them into *pure* clauses.  Which shapes those are is theory specific —
the rules belong to the :class:`~repro.spatial.theory.SpatialTheory` owning
the formula's predicates — but they all follow the same scheme: an allocated
address that is ``nil`` or claimed twice forces the involved segments to be
empty (their emptiness equations are added to ``Delta``) or, when no segment
can absorb the conflict, yields the plain clause ``Gamma -> Delta``.

For the builtin singly-linked theory these are the paper's rules W1–W5
(Figure 1):

* **W1** ``next(nil, y)`` occurs in ``Sigma``: no heap has a cell at ``nil``;
  derive ``Gamma -> Delta``.
* **W2** ``lseg(nil, y)`` occurs: the segment must be empty; derive
  ``Gamma -> y = nil, Delta``.
* **W3** two ``next`` atoms share an address: impossible; derive
  ``Gamma -> Delta``.
* **W4** ``next(x, y)`` and ``lseg(x, z)`` share the address ``x``: the
  segment must be empty; derive ``Gamma -> x = z, Delta``.
* **W5** ``lseg(x, y)`` and ``lseg(x, z)`` share the address ``x``: one of the
  two segments must be empty; derive ``Gamma -> x = y, x = z, Delta``.

The doubly-linked rules (W1–W5 analogues plus the back-anchor rules D1–D4)
live in :mod:`repro.spatial.dll`.

Like normalisation, computing these consequences involves no search, and it
takes time linear in ``Sigma`` plus the number of conflicts found: one pass
over the atoms for the per-atom rules (W1, W2 and the ``dll`` D1-D3), and for
the pairwise rules one pass that files every *allocation anchor* (an
address, or a ``dll`` segment's back cell) in a bucket per location, see
:func:`colliding_anchors`.  Only atoms sharing a bucket are ever compared, so
a well-formed formula costs one dictionary insert per anchor instead of a
test per pair of atoms.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.logic.atoms import SpatialAtom
from repro.logic.clauses import Clause
from repro.logic.terms import NIL_NAME, Const
from repro.spatial.theory import theory_of


@dataclass(frozen=True)
class WellFormednessConsequence:
    """A pure clause derived by one of the well-formedness rules."""

    rule: str
    conclusion: Clause
    premise: Clause
    offending: Tuple[SpatialAtom, ...]

    def __str__(self) -> str:
        return "[{}] {}".format(self.rule, self.conclusion)


def consequence_emitter(clause: Clause, consequences: List[WellFormednessConsequence]):
    """An ``emit(rule, extra_delta, offending)`` closure appending consequences.

    Shared by the theories' rule implementations: the conclusion is always the
    premise's pure part with the rule's extra equalities added to ``Delta``.
    """

    def emit(rule, extra_delta, offending) -> None:
        conclusion = Clause.pure(clause.gamma, clause.delta | frozenset(extra_delta))
        consequences.append(
            WellFormednessConsequence(
                rule=rule, conclusion=conclusion, premise=clause, offending=tuple(offending)
            )
        )

    return emit


def colliding_anchors(
    anchor_lists: Sequence[Sequence[Const]],
) -> Iterator[Tuple[int, int, int, int]]:
    """Every pair of anchors of two different atoms at one non-nil location.

    ``anchor_lists[i]`` holds the locations the formula's ``i``-th atom
    allocates (its allocation anchors).  The result is one ``(i, j, ki, kj)``
    per colliding pair — anchor ``ki`` of atom ``i`` and anchor ``kj`` of
    atom ``j`` name the same location, ``i < j`` — in the order of the
    all-pairs scan ``for i < j, for ki, for kj``, which is the order the
    consequences have always come out in.  Locations named ``nil`` are
    skipped (the per-atom rules own them); duplicate atoms and three or more
    anchors at one location pair up exactly as in the scan.

    Every anchor is filed in a bucket per location name (constants compare
    by name) and paired with the later entries of its bucket; an atom's
    partners from different buckets are merged by ``(j, ki, kj)``.  The cost
    is linear in the anchors plus the colliding pairs, where the scan paid
    for every pair of atoms.
    """
    buckets: Dict[str, List[Tuple[int, int]]] = {}
    filed = 0
    for i, anchors in enumerate(anchor_lists):
        for k, location in enumerate(anchors):
            name = location.name
            if name == NIL_NAME:
                continue
            filed += 1
            bucket = buckets.get(name)
            if bucket is None:
                buckets[name] = [(i, k)]
            else:
                bucket.append((i, k))
    if len(buckets) == filed:
        return  # every location is allocated once: nothing collides

    # Second pass in (i, k) order: an anchor's entry is the next unvisited
    # one of its bucket, and its partners are the entries after it.
    visited: Dict[str, int] = {}
    for i, anchors in enumerate(anchor_lists):
        streams: List[Iterator[Tuple[int, int, int, int]]] = []
        for k, location in enumerate(anchors):
            bucket = buckets.get(location.name)
            if bucket is None or len(bucket) == 1:
                continue
            position = visited.get(location.name, 0) + 1
            visited[location.name] = position
            if position < len(bucket):
                streams.append(_partners(i, k, bucket, position))
        if streams:
            yield from streams[0] if len(streams) == 1 else heapq.merge(*streams)


def _partners(
    i: int, k: int, bucket: List[Tuple[int, int]], start: int
) -> Iterator[Tuple[int, int, int, int]]:
    """Anchor ``k`` of atom ``i`` paired with ``bucket[start:]``, other atoms only."""
    for j, kj in bucket[start:]:
        if j != i:
            yield i, j, k, kj


def well_formedness_consequences(clause: Clause) -> List[WellFormednessConsequence]:
    """All pure clauses derivable from a positive spatial clause.

    The input must be a positive spatial clause; the consequences are pure
    clauses sharing the input's ``Gamma``/``Delta`` with the extra equalities
    mandated by each rule of the owning theory.
    """
    if not clause.is_positive_spatial:
        raise ValueError("well-formedness rules apply to positive spatial clauses only")
    return theory_of(clause).well_formedness_consequences(clause)
