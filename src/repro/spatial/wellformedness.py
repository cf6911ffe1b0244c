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

Like normalisation, computing these consequences involves no search.  Every
theory states its rules through three hooks: the per-atom rules an atom
fires on its own (W1, W2 and the ``dll`` D1–D3), the *allocation anchors* of
an atom (the locations it allocates: its address, and a ``dll`` segment's
back cell), and the rule for two atoms whose anchors name one location.  An
:class:`AnchorIndex` files every anchor in a bucket per location and keeps
the atoms that fire a per-atom rule, so only atoms sharing a bucket are
ever compared.

The buckets survive the rounds of Figure 3's inner loop.  The normaliser
(:mod:`repro.spatial.normalization`) owns the index of the normalised
positive clause and re-files only the atoms the round's model moved, so a
round costs what the model changed, not the size of ``Sigma``.  A clause
without such an index (a caller outside the prover's loop) gets one built
from scratch; both paths emit the same consequences in the same order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.logic.atoms import SpatialAtom
from repro.logic.clauses import Clause
from repro.logic.terms import NIL_NAME, Const
from repro.spatial.theory import SpatialTheory, theory_of


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

    The conclusion is always the premise's pure part with the rule's extra
    equalities added to ``Delta``.
    """

    def emit(rule, extra_delta, offending) -> None:
        conclusion = Clause.pure(clause.gamma, clause.delta | frozenset(extra_delta))
        consequences.append(
            WellFormednessConsequence(
                rule=rule, conclusion=conclusion, premise=clause, offending=tuple(offending)
            )
        )

    return emit


def _bucket_pairs(entries: List[Tuple[int, int]]) -> Iterator[Tuple[int, int, int, int]]:
    """Every pair of one bucket's ``(atom position, anchor index)`` entries.

    One ``(i, j, ki, kj)`` per pair of entries of two different atoms, with
    ``i < j``; two anchors of one atom never pair.
    """
    entries.sort()
    for a, (i, ki) in enumerate(entries):
        for j, kj in entries[a + 1:]:
            if j != i:
                yield i, j, ki, kj


def colliding_anchors(
    anchor_lists: Sequence[Sequence[Const]],
) -> Iterator[Tuple[int, int, int, int]]:
    """Every pair of anchors of two different atoms at one non-nil location.

    ``anchor_lists[i]`` holds the locations the ``i``-th atom allocates.  The
    result is one ``(i, j, ki, kj)`` per colliding pair — anchor ``ki`` of
    atom ``i`` and anchor ``kj`` of atom ``j`` name the same location,
    ``i < j`` — in the order of the all-pairs scan ``for i < j, for ki, for
    kj``.  Locations named ``nil`` are skipped (the per-atom rules own them);
    duplicate atoms and three or more anchors at one location pair up exactly
    as in the scan.  This is the pairing :class:`AnchorIndex` performs, over
    plain positions.
    """
    buckets: Dict[str, List[Tuple[int, int]]] = {}
    for i, anchors in enumerate(anchor_lists):
        for k, location in enumerate(anchors):
            if location.name != NIL_NAME:
                buckets.setdefault(location.name, []).append((i, k))
    pairs = [
        pair for entries in buckets.values() if len(entries) > 1 for pair in _bucket_pairs(entries)
    ]
    pairs.sort()
    return iter(pairs)


class AnchorIndex:
    """A formula's allocation anchors by location, and its per-atom triggers.

    The index holds a multiset of atoms.  :meth:`add` and :meth:`remove` file
    and unfile one atom: its anchors go to a bucket per location name
    (``nil`` excluded), and, when it fires per-atom rules, the atom goes to
    the triggers with its multiplicity.  Locations holding two or more
    anchors are kept in :attr:`colliding`, so emitting the consequences
    touches only the triggers and the colliding buckets.  The index keeps the
    rules its triggers and its colliding pairs fire, so a round that emits
    them again rebuilds only the conclusions, whose ``Gamma``/``Delta``
    change from one round to the next.
    """

    __slots__ = ("theory", "buckets", "colliding", "triggered", "pair_rules")

    def __init__(self, theory: SpatialTheory, atoms: Iterable[SpatialAtom] = ()):
        self.theory = theory
        #: location name -> the ``(atom, anchor index)`` entries filed there.
        self.buckets: Dict[str, List[Tuple[SpatialAtom, int]]] = {}
        #: location names whose bucket holds two or more entries.
        self.colliding: Set[str] = set()
        #: sort key -> ``[atom, its per-atom rules, multiplicity]``.
        self.triggered: Dict[Tuple[str, ...], list] = {}
        #: ``(key_i, key_j, ki, kj)`` -> the theory's rule for that pair.
        self.pair_rules: Dict[tuple, tuple] = {}
        for atom in atoms:
            self.add(atom)

    def add(self, atom: SpatialAtom) -> None:
        """File one occurrence of ``atom``."""
        buckets = self.buckets
        for k, location in enumerate(self.theory.allocation_anchors(atom)):
            name = location.name
            if name == NIL_NAME:
                continue
            bucket = buckets.get(name)
            if bucket is None:
                buckets[name] = [(atom, k)]
            else:
                bucket.append((atom, k))
                self.colliding.add(name)
        rules = self.theory.atom_consequences(atom)
        if rules:
            entry = self.triggered.get(atom.sort_key)
            if entry is None:
                self.triggered[atom.sort_key] = [atom, rules, 1]
            else:
                entry[2] += 1

    def remove(self, atom: SpatialAtom) -> None:
        """Unfile one occurrence of ``atom`` (which must be filed)."""
        buckets = self.buckets
        for k, location in enumerate(self.theory.allocation_anchors(atom)):
            name = location.name
            if name == NIL_NAME:
                continue
            bucket = buckets[name]
            bucket.remove((atom, k))
            if not bucket:
                del buckets[name]
            elif len(bucket) == 1:
                self.colliding.discard(name)
        entry = self.triggered.get(atom.sort_key)
        if entry is not None:
            entry[2] -= 1
            if not entry[2]:
                del self.triggered[atom.sort_key]

    def consequences(
        self, clause: Clause, keys: Sequence[Tuple[str, ...]]
    ) -> List[WellFormednessConsequence]:
        """The consequences of ``clause``, whose atoms are the index's.

        ``keys`` are the sort keys of ``clause``'s atoms, in order; they give
        each filed atom its position.  Per-atom rules come first, in atom
        order, then the pairwise rules in the all-pairs ``(i, j, ki, kj)``
        order of :func:`colliding_anchors`.
        """
        consequences: List[WellFormednessConsequence] = []
        if not self.triggered and not self.colliding:
            return consequences
        emit = consequence_emitter(clause, consequences)
        for key in sorted(self.triggered):
            atom, rules, count = self.triggered[key]
            for _ in range(count):
                for rule, extra in rules:
                    emit(rule, extra, (atom,))
        if self.colliding:
            pairs: List[Tuple[int, int, int, int]] = []
            for name in self.colliding:
                # Equal atoms sit side by side from their key's first
                # position on; each occurrence files one entry here.
                seen: Dict[Tuple[str, ...], int] = {}
                entries = []
                for atom, k in self.buckets[name]:
                    key = atom.sort_key
                    occurrence = seen.get(key, 0)
                    seen[key] = occurrence + 1
                    entries.append((bisect_left(keys, key) + occurrence, k))
                pairs.extend(_bucket_pairs(entries))
            pairs.sort()
            atoms = clause.spatial.atoms  # type: ignore[union-attr]
            pair_rules = self.pair_rules
            for i, j, ki, kj in pairs:
                first, second = atoms[i], atoms[j]
                memo = (first.sort_key, second.sort_key, ki, kj)
                found = pair_rules.get(memo)
                if found is None:
                    found = pair_rules[memo] = self.theory.pair_consequence(first, second, ki, kj)
                emit(*found)
        return consequences


def well_formedness_consequences(clause: Clause) -> List[WellFormednessConsequence]:
    """All pure clauses derivable from a positive spatial clause.

    The input must be a positive spatial clause; the consequences are pure
    clauses sharing the input's ``Gamma``/``Delta`` with the extra equalities
    mandated by each rule of the owning theory.  The current output of a
    normaliser is answered from the normaliser's surviving buckets; any other
    clause gets an index built for it.
    """
    if not clause.is_positive_spatial:
        raise ValueError("well-formedness rules apply to positive spatial clauses only")
    normalizer = clause.__dict__.get("_normalizer")
    if normalizer is not None:
        surviving = normalizer.anchor_index(clause)
        if surviving is not None:
            index, keys = surviving
            return index.consequences(clause, keys)
    atoms = clause.spatial.atoms  # type: ignore[union-attr]
    index = AnchorIndex(theory_of(clause), atoms)
    return index.consequences(clause, [atom.sort_key for atom in atoms])
