"""The dense integer clause kernel of the saturation core.

The pure fragment is ground equational logic over a small, per-problem
constant vocabulary — exactly the setting where SMT-style solvers win by
trading symbolic objects for dense integers.  This module is that trade for
the saturation engine: everything inside the given-clause loop becomes
arithmetic and small-int dictionary traffic, and symbolic ``Clause`` objects
exist only at the engine boundary.

Representation
--------------

* **Constants** are interned per problem to dense ids assigned in *ascending
  term order* (``nil`` is id 0), seeded from
  :meth:`~repro.logic.ordering.TermOrder.known_constants`.  Because the id
  order realises the precedence, ``TermOrder.greater(a, b)`` compiles to
  ``id(a) > id(b)``.
* **Atoms** are packed into one int ``(big << 16) | small`` with
  ``big >= small`` in id order.  Orientation (``orient``) is two shifts,
  triviality is ``big == small``, and — because the positive-literal measure
  ``{x, y}`` compares exactly like the descending pair ``(x, y)`` — the
  *positive literal ordering is integer comparison of atom codes*.  The same
  holds for negative literals among themselves (their measure
  ``{x, x, y, y}`` is pair comparison doubled), which is all the kernel ever
  needs: maximality questions only arise inside ``delta``.
* **Clauses** are pairs of ascending-sorted tuples of atom codes, interned
  per engine into :class:`IntClause` records that precompute everything the
  loop reads per visit: literal frozensets and feature bitmasks for
  subsumption, the productive (strictly maximal, orientable) equation, the
  leftover ``delta`` of a production, and the canonical presentation order of
  both sides.

Equivalence
-----------

The kernel derives **byte-identical clauses in identical order**, with
identical derivation records, to the reference engine
(``ProverConfig.reference()``, the symbolic loop of
:class:`~repro.superposition.saturation.SaturationEngine` with
``use_kernel=False``).  Three facts carry the pin:

1. id order realises the term order, so all ordering-gated side conditions
   (orientation, strict maximality, production) agree literal-for-literal;
2. inference *emission* order is canonical on both sides — the calculus
   iterates ``sorted_gamma()``/``sorted_delta()`` and the kernel iterates the
   precomputed presentation-ranked tuples, which sort identically because
   presentation ranks are order-isomorphic to the atom sort keys;
3. the passive queue orders by ``(weight, tick)`` only, and ticks are handed
   out in the same enqueue sequence.

``tests/test_kernel.py`` pins all of this over the equivalence corpus, plus
a hypothesis round-trip property for the encoding itself.
"""

from __future__ import annotations

import heapq
import itertools
import time
from bisect import bisect_left
from collections.abc import Mapping as _MappingBase
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.logic.atoms import EqAtom
from repro.logic.clauses import Clause
from repro.logic.intern import intern_atom
from repro.logic.ordering import TermOrder
from repro.logic.terms import Const

__all__ = [
    "SHIFT",
    "DenseEncoder",
    "IntClause",
    "IntClauseIndex",
    "IntSaturationCore",
]

#: Bits reserved for the smaller side of an atom code.  2**16 constants per
#: problem is far beyond anything the fragment produces (Table 1 tops out
#: near two dozen); the encoder raises if a problem ever exceeds it.
SHIFT = 16
_MASK = (1 << SHIFT) - 1

#: Tag bit distinguishing a ``delta``-side owner key from a ``gamma``-side
#: one in the forward-subsumption index (atom codes fit in 2*SHIFT bits).
_FWD_DELTA = 1 << (2 * SHIFT)

#: Width of the literal feature bitmasks (a prime keeps the ``code % width``
#: buckets well spread for the arithmetic progressions atom codes form).
_FEATURE_BITS = 61

#: Active-clause count below which maintaining index buckets costs more than
#: the linear scans they replace.  The engine starts with plain scans and
#: bulk-activates the index the first time the active set reaches this size;
#: on the Table 1 n=12 row the crossover is what turns the index from a small
#: loss into a win (see PERFORMANCE.md, "Adaptive index activation").  Read
#: at engine construction, so a test can move it without a config field.
ADAPTIVE_INDEX_THRESHOLD = 24


class IntClause:
    """One interned dense clause: sorted code tuples plus precomputed features.

    Instances are unique per (engine, ``gamma``, ``delta``) — the encoder's
    intern table guarantees it — so identity comparison *is* clause equality
    and the engine stores its per-clause state (``seen``/``in_active``/
    ``in_passive``) as plain attributes instead of set memberships.
    """

    __slots__ = (
        "gamma",
        "delta",
        "gamma_set",
        "delta_set",
        "gmask",
        "dmask",
        "weight",
        "is_empty",
        "is_tautology",
        "production",
        "rest_delta",
        "rest_set",
        "gamma_pres",
        "delta_pres",
        "sort_key",
        "fwd_key",
        "cmask",
        "ordinal",
        "seen",
        "in_active",
        "in_passive",
        "decoded",
    )

    gamma: Tuple[int, ...]
    delta: Tuple[int, ...]
    production: Optional[Tuple[int, int, int]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "IntClause(gamma={}, delta={})".format(self.gamma, self.delta)


def _trivial(code: int) -> bool:
    return (code >> SHIFT) == (code & _MASK)


def _pack(a: int, b: int) -> int:
    """The canonical atom code for the unordered id pair ``{a, b}``."""
    if a >= b:
        return (a << SHIFT) | b
    return (b << SHIFT) | a


#: Shared empty literal set — a large fraction of clauses have an empty side.
_EMPTY_SET: frozenset = frozenset()


def _sets_of(clause: IntClause) -> Tuple[frozenset, frozenset]:
    """The clause's literal frozensets (lazy, memoised).

    Only the subsumption checks read these, and most enqueued clauses die
    (tautology, subsumed, never popped) before ever being queried, so the
    sets are not worth building in ``_fill``.
    """
    gs = clause.gamma_set
    if gs is None:
        gs = frozenset(clause.gamma) if clause.gamma else _EMPTY_SET
        clause.gamma_set = gs
        clause.delta_set = frozenset(clause.delta) if clause.delta else _EMPTY_SET
    return gs, clause.delta_set


def _cmask_of(clause: IntClause) -> int:
    """The clause's constant bitmask — bit ``i`` set iff id ``i`` occurs.

    Lazy and memoised like the other derived fields (reset on an encoder
    rebuild, where ids change meaning).  The model generator re-verifies a
    clause when this mask meets the mask of constants whose normal form
    moved.
    """
    mask = clause.cmask
    if mask is None:
        mask = 0
        for code in clause.gamma:
            mask |= (1 << (code >> SHIFT)) | (1 << (code & _MASK))
        for code in clause.delta:
            mask |= (1 << (code >> SHIFT)) | (1 << (code & _MASK))
        clause.cmask = mask
    return mask


class DenseEncoder:
    """Per-problem dense interning of constants, atoms and clauses.

    Parameters
    ----------
    order:
        The problem's term ordering; its ranked constants seed the id space.

    ``rebuilds`` counts the renumberings a late-registered constant has
    forced (see :meth:`register_constants`).  The owning engine compares it
    after every :meth:`encode_clause` and refreshes its id-keyed state (index
    buckets) when it moved.  The encoder holds no reference back to its
    owner, so the per-problem state stays acyclic and is freed by reference
    counting as soon as the engine is dropped.
    """

    def __init__(self, order: TermOrder):
        self._order = order
        #: Renumberings so far; the owning engine polls it.
        self.rebuilds = 0
        self._consts: List[Const] = []
        self._const_id: Dict[Const, int] = {}
        #: Per-id rank of the constant's *name* in plain string order — the
        #: presentation order ``EqAtom.sort_key`` realises.  Kept alongside
        #: the term-order ids so canonical iteration order is integer sorting.
        self._name_rank: List[int] = []
        self._atom_code: Dict[EqAtom, int] = {}
        self._atom_of: Dict[int, EqAtom] = {}
        self._pres: Dict[int, int] = {}
        self._clauses: Dict[Tuple[int, ...], IntClause] = {}
        self._clause_of: Dict[Clause, IntClause] = {}
        self._ordinal = itertools.count()
        self._seed(order.known_constants())

    # -- vocabulary ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._consts)

    def constants(self) -> Tuple[Const, ...]:
        """The vocabulary in id order (ascending term order)."""
        return tuple(self._consts)

    def const_id(self, constant: Const) -> int:
        """The dense id of a registered constant."""
        return self._const_id[constant]

    def const_of(self, identifier: int) -> Const:
        """The constant a dense id denotes (inverse of :meth:`const_id`)."""
        return self._consts[identifier]

    def _seed(self, constants: Iterable[Const]) -> None:
        self._consts = list(constants)
        if len(self._consts) > _MASK:
            raise ValueError(
                "the dense kernel supports at most {} constants per problem".format(_MASK)
            )
        self._const_id = {c: i for i, c in enumerate(self._consts)}
        by_name = sorted(range(len(self._consts)), key=lambda i: self._consts[i].name)
        self._name_rank = [0] * len(self._consts)
        for rank, index in enumerate(by_name):
            self._name_rank[index] = rank

    def register_constants(self, constants: Iterable[Const]) -> None:
        """Make sure every given constant has a dense id.

        Appending preserves both invariants (id order = term order, name-rank
        order = name order) only when the newcomer sorts above everything
        already registered on *both* orders; otherwise the whole id space is
        renumbered and every interned object is re-encoded in place.  In the
        prover's flow the vocabulary is fully known at engine construction
        (``default_order`` ranks every constant of the entailment), so the
        rebuild path only ever triggers for direct engine use.
        """
        fresh = [c for c in constants if c not in self._const_id]
        if not fresh:
            return
        fresh.sort(key=self._order.key)
        key = self._order.key
        monotone = True
        if self._consts:
            last_key = key(self._consts[-1])
            last_name = max(c.name for c in self._consts)
            for constant in fresh:
                if key(constant) <= last_key or constant.name <= last_name:
                    monotone = False
                    break
                last_key = key(constant)
                last_name = constant.name
        if monotone:
            for constant in fresh:
                self._const_id[constant] = len(self._consts)
                self._consts.append(constant)
                self._name_rank.append(len(self._name_rank))
            if len(self._consts) > _MASK:
                raise ValueError(
                    "the dense kernel supports at most {} constants per problem".format(
                        _MASK
                    )
                )
            return
        self._rebuild(fresh)

    def _rebuild(self, fresh: List[Const]) -> None:
        old_consts = self._consts
        self._seed(sorted(old_consts + fresh, key=self._order.key))
        remap = [self._const_id[c] for c in old_consts]
        # Atom- and clause-level caches are keyed by codes, which just
        # changed meaning: re-encode every interned object *in place* so all
        # references held by the engine (active list, passive heap,
        # derivation records) stay valid.
        self._atom_code = {}
        self._atom_of = {}
        self._pres = {}
        clauses = list(self._clauses.values())
        self._clauses = {}
        for clause in clauses:
            gamma = tuple(
                sorted(
                    _pack(remap[code >> SHIFT], remap[code & _MASK])
                    for code in clause.gamma
                )
            )
            delta = tuple(
                sorted(
                    _pack(remap[code >> SHIFT], remap[code & _MASK])
                    for code in clause.delta
                )
            )
            self._fill(clause, gamma, delta)
            self._clauses[(gamma, delta)] = clause
        self.rebuilds += 1

    # -- atoms ---------------------------------------------------------------
    def atom_code(self, atom: EqAtom) -> int:
        """The packed code of an equality atom (its constants must be registered)."""
        code = self._atom_code.get(atom)
        if code is None:
            code = _pack(self._const_id[atom.left], self._const_id[atom.right])
            self._atom_code[atom] = code
            self._atom_of.setdefault(code, atom)
        return code

    def atom_of(self, code: int) -> EqAtom:
        """The interned :class:`EqAtom` a code denotes."""
        atom = self._atom_of.get(code)
        if atom is None:
            atom = intern_atom(self._consts[code >> SHIFT], self._consts[code & _MASK])
            self._atom_of[code] = atom
        return atom

    def pres_key(self, code: int) -> int:
        """The packed presentation rank of an atom code.

        Sorting codes by this key is exactly sorting the decoded atoms by
        ``EqAtom.sort_key``: the key is the name-rank pair in the atom's
        canonical presentation order (``nil`` last, otherwise by name).
        """
        key = self._pres.get(code)
        if key is None:
            big, small = code >> SHIFT, code & _MASK
            nb, ns = self._name_rank[big], self._name_rank[small]
            if small == 0 and big != 0:
                # nil (id 0) is presented last regardless of its name rank.
                key = (nb << SHIFT) | ns
            elif nb <= ns:
                key = (nb << SHIFT) | ns
            else:
                key = (ns << SHIFT) | nb
            self._pres[code] = key
        return key

    # -- clauses -------------------------------------------------------------
    def intern(self, gamma: Tuple[int, ...], delta: Tuple[int, ...]) -> IntClause:
        """The unique :class:`IntClause` for two ascending-sorted code tuples."""
        key = (gamma, delta)
        clause = self._clauses.get(key)
        if clause is None:
            clause = IntClause()
            self._fill(clause, gamma, delta)
            clause.ordinal = next(self._ordinal)
            clause.seen = False
            clause.in_active = False
            clause.in_passive = False
            clause.decoded = None
            self._clauses[key] = clause
        return clause

    def _fill(self, clause: IntClause, gamma: Tuple[int, ...], delta: Tuple[int, ...]) -> None:
        """(Re)compute every derived field from the code tuples."""
        clause.gamma = gamma
        clause.delta = delta
        # Literal frozensets serve only the subsumption checks; fill them
        # lazily (see ``_sets_of``) — most enqueued clauses never get there.
        clause.gamma_set = None
        clause.delta_set = None
        # The clause's owner key in the forward-subsumption index: its
        # minimal literal (tuples are ascending), gamma side preferred.
        if gamma:
            clause.fwd_key = gamma[0]
        elif delta:
            clause.fwd_key = _FWD_DELTA | delta[0]
        else:
            clause.fwd_key = -1
        # Feature bitmasks serve only the pre-index linear subsumption scans;
        # fill them lazily (see ``_masks_of``) so the indexed steady state
        # never pays for them.
        clause.gmask = None
        clause.dmask = None
        clause.weight = len(gamma) + len(delta)
        clause.is_empty = not gamma and not delta
        tautology = False
        for code in delta:
            if (code >> SHIFT) == (code & _MASK):
                tautology = True
                break
        if not tautology and gamma and delta:
            # Both tuples are ascending, so disjointness is a two-pointer
            # walk — no set allocation on this per-distinct-clause path.
            i = j = 0
            len_g, len_d = len(gamma), len(delta)
            while i < len_g and j < len_d:
                a, b = gamma[i], delta[j]
                if a == b:
                    tautology = True
                    break
                if a < b:
                    i += 1
                else:
                    j += 1
        clause.is_tautology = tautology
        clause.production = None
        clause.rest_delta = ()
        # Lazy cache over the production remainder.
        clause.rest_set = None
        if not gamma and delta:
            # delta is ascending in atom-code order, which *is* the positive
            # literal ordering, so the last code is the maximal equation; it
            # is strictly maximal because distinct atoms have distinct codes.
            top = delta[-1]
            big, small = top >> SHIFT, top & _MASK
            if big != small:
                clause.production = (big, small, top)
                clause.rest_delta = delta[:-1]
        # Presentation-ordered views and the clause sort key are only needed
        # once a clause actually participates in an inference / reaches the
        # model generator; most enqueued clauses are discarded (tautology,
        # subsumed) before that, so they are filled lazily (see
        # ``gamma_pres_of``/``delta_pres_of``/``sort_key_of``).
        clause.gamma_pres = None
        clause.delta_pres = None
        clause.sort_key = None
        # The id-derived mask changes meaning on a rebuild, so it is reset
        # here (lazy like the rest; see ``_cmask_of``).
        clause.cmask = None

    def gamma_pres_of(self, clause: IntClause) -> Tuple[int, ...]:
        """``gamma`` in canonical presentation order (lazy, memoised)."""
        pres = clause.gamma_pres
        if pres is None:
            pres = tuple(sorted(clause.gamma, key=self.pres_key))
            clause.gamma_pres = pres
        return pres

    def delta_pres_of(self, clause: IntClause) -> Tuple[int, ...]:
        """``delta`` in canonical presentation order (lazy, memoised)."""
        pres = clause.delta_pres
        if pres is None:
            pres = tuple(sorted(clause.delta, key=self.pres_key))
            clause.delta_pres = pres
        return pres

    @staticmethod
    def sort_key_of(clause: IntClause) -> Tuple[int, ...]:
        """The clause's measuring multiset as a tuple of packed literal ints.

        Each literal becomes ``(big << 17) | (negative << 16) | small`` —
        exactly the literal ordering (a negative literal outranks the
        positive literal over the same atom, everything else is decided by
        the oriented sides) — and the clause key is the descending sort.
        Comparing two such tuples reproduces
        :meth:`~repro.logic.ordering.TermOrder.clause_sort_key`'s multiset
        extension verbatim, including the injectivity the incremental model
        generator relies on, at integer-compare cost.
        """
        key = clause.sort_key
        if key is None:
            literals = [
                (code >> SHIFT << (SHIFT + 1)) | (1 << SHIFT) | (code & _MASK)
                for code in clause.gamma
            ]
            literals.extend(
                (code >> SHIFT << (SHIFT + 1)) | (code & _MASK)
                for code in clause.delta
            )
            literals.sort(reverse=True)
            key = tuple(literals)
            clause.sort_key = key
        return key

    def encode_clause(self, clause: Clause) -> IntClause:
        """The dense form of a pure clause (faithful — no simplification)."""
        encoded = self._clause_of.get(clause)
        if encoded is not None:
            return encoded
        atom_code = self.atom_code
        try:
            gamma = tuple(sorted(atom_code(atom) for atom in clause.gamma))
            delta = tuple(sorted(atom_code(atom) for atom in clause.delta))
        except KeyError:
            # A constant outside the vocabulary.  Registering it may renumber
            # every id, so encode again from scratch afterwards.
            self.register_constants(clause.constants())
            return self.encode_clause(clause)
        encoded = self.intern(gamma, delta)
        if encoded.decoded is None:
            encoded.decoded = clause
        self._clause_of[clause] = encoded
        return encoded

    def lookup_clause(self, clause: Clause) -> Optional[IntClause]:
        """The dense form of ``clause`` if it is already interned, else ``None``.

        Never mutates the encoder — safe for read-only mapping views.
        """
        hit = self._clause_of.get(clause)
        if hit is not None:
            return hit
        const_id = self._const_id
        try:
            gamma = tuple(
                sorted(
                    _pack(const_id[atom.left], const_id[atom.right])
                    for atom in clause.gamma
                )
            )
            delta = tuple(
                sorted(
                    _pack(const_id[atom.left], const_id[atom.right])
                    for atom in clause.delta
                )
            )
        except KeyError:
            return None
        return self._clauses.get((gamma, delta))

    def decode(self, clause: IntClause) -> Clause:
        """The symbolic :class:`Clause` a dense clause denotes (memoised).

        The memo lives on the :class:`IntClause` — per engine, per problem —
        so decoded clauses die with the encoder instead of accumulating in a
        process-global table across a long-lived batch or fuzzing run.
        """
        decoded = clause.decoded
        if decoded is None:
            atom_of = self.atom_of
            decoded = Clause(
                frozenset(atom_of(code) for code in clause.gamma),
                frozenset(atom_of(code) for code in clause.delta),
                None,
                True,
            )
            clause.decoded = decoded
        return decoded


class IntClauseIndex:
    """Occurrence maps over the active set, answering the loop's three queries.

    The given-clause loop asks three questions of the active set for every
    given clause, and the unindexed answers are all linear scans:

    * **forward subsumption** — is the given clause subsumed by an active one?
    * **backward subsumption** — which active clauses does the given one
      subsume?
    * **inference-partner selection** — which active clauses can take part in
      a superposition inference with the given clause at all?

    The fragment is ground, so subsumption is literal-set inclusion, which
    admits a literal-occurrence index.  A clause ``C`` that subsumes ``D`` has
    all of its literals inside ``D``.  So forward candidates are found through
    ``D``'s literals, and backward candidates all lie in the bucket of any
    single literal of ``C`` (the smallest bucket is scanned).

    Partner selection uses the shape of the inference rules.  An inference
    between a rewriting premise (strictly maximal equation ``big = small``, no
    selected literals) and a partner exists only when ``big`` occurs at a
    rewritable position of the partner: in a selected (negative) literal, or
    in the partner's own strictly maximal equation.  Three occurrence maps
    capture exactly these positions:

    * ``_gamma_occ`` — constant id -> actives with a ``gamma`` atom
      mentioning it;
    * ``_maxeq_occ`` — constant id -> productive actives whose maximal
      equation mentions it;
    * ``_productive_by_big`` — constant id -> productive actives whose
      oriented maximal equation has that constant as its larger side.

    The candidates are a superset of the pairs the inference rules fire on
    (the rules re-check every side condition) and come back in activation
    order, so the engine derives exactly the inferences of a full scan, in
    the same order, skipping only provably fruitless pairs.

    Buckets are keyed by the clause's intern ordinal, and the production
    facts come precomputed off the :class:`IntClause`.
    """

    def __init__(self) -> None:
        self._tick = itertools.count()
        self._seq: Dict[int, int] = {}
        self._neg_occ: Dict[int, Dict[int, IntClause]] = {}
        self._pos_occ: Dict[int, Dict[int, IntClause]] = {}
        #: Forward-subsumption buckets: each clause appears under exactly ONE
        #: key — its minimal literal (``fwd_key``).  A subsumer's literals
        #: all occur in the query, so its owner literal is a query literal:
        #: scanning the query's owner buckets visits every possible subsumer
        #: exactly once, where the occurrence buckets would re-check a
        #: candidate once per shared literal.
        self._fwd_occ: Dict[int, Dict[int, IntClause]] = {}
        self._gamma_occ: Dict[int, Dict[int, IntClause]] = {}
        self._maxeq_occ: Dict[int, Dict[int, IntClause]] = {}
        self._productive_by_big: Dict[int, Dict[int, IntClause]] = {}

    def __len__(self) -> int:
        return len(self._seq)

    def add(self, clause: IntClause) -> None:
        key = clause.ordinal
        if key in self._seq:
            return
        self._seq[key] = next(self._tick)
        for code in clause.gamma:
            self._neg_occ.setdefault(code, {})[key] = clause
            self._gamma_occ.setdefault(code >> SHIFT, {})[key] = clause
            self._gamma_occ.setdefault(code & _MASK, {})[key] = clause
        for code in clause.delta:
            self._pos_occ.setdefault(code, {})[key] = clause
        fwd = clause.fwd_key
        if fwd >= 0:
            self._fwd_occ.setdefault(fwd, {})[key] = clause
        production = clause.production
        if production is not None:
            big, small, equation = production
            self._productive_by_big.setdefault(big, {})[key] = clause
            self._maxeq_occ.setdefault(big, {})[key] = clause
            if small != big:
                self._maxeq_occ.setdefault(small, {})[key] = clause

    def remove(self, clause: IntClause) -> None:
        key = clause.ordinal
        if self._seq.pop(key, None) is None:
            return
        for code in clause.gamma:
            self._discard(self._neg_occ, code, key)
            self._discard(self._gamma_occ, code >> SHIFT, key)
            self._discard(self._gamma_occ, code & _MASK, key)
        for code in clause.delta:
            self._discard(self._pos_occ, code, key)
        fwd = clause.fwd_key
        if fwd >= 0:
            self._discard(self._fwd_occ, fwd, key)
        production = clause.production
        if production is not None:
            big, small, _ = production
            self._discard(self._productive_by_big, big, key)
            self._discard(self._maxeq_occ, big, key)
            if small != big:
                self._discard(self._maxeq_occ, small, key)

    @staticmethod
    def _discard(index: Dict[int, Dict[int, IntClause]], index_key: int, clause_key: int) -> None:
        bucket = index.get(index_key)
        if bucket is not None:
            bucket.pop(clause_key, None)
            if not bucket:
                del index[index_key]

    # -- queries -------------------------------------------------------------
    def is_subsumed(self, clause: IntClause) -> bool:
        # Forward queries go through the single-owner buckets (see
        # ``_fwd_occ``): a subsumer's minimal literal is one of the query's
        # literals, so the query's owner buckets cover every candidate and
        # each candidate is tested at most once.  No bitmask prefilter here:
        # every candidate already shares a literal with the query, so the
        # C-level subset checks on small int frozensets beat an extra pair
        # of mask tests (measured; the masks stay on the pre-index linear
        # path, where candidates are arbitrary).
        fwd_occ = self._fwd_occ
        gamma_set, delta_set = _sets_of(clause)
        for code in clause.gamma:
            bucket = fwd_occ.get(code)
            if not bucket:
                continue
            for candidate in bucket.values():
                cg = candidate.gamma_set
                if cg is None:
                    cg, cd = _sets_of(candidate)
                else:
                    cd = candidate.delta_set
                if cg <= gamma_set and cd <= delta_set:
                    return True
        # A delta-owned candidate has an empty ``gamma`` (its owner literal
        # would otherwise be a gamma atom), so only ``delta`` is compared.
        for code in clause.delta:
            bucket = fwd_occ.get(_FWD_DELTA | code)
            if not bucket:
                continue
            for candidate in bucket.values():
                cd = candidate.delta_set
                if cd is None:
                    cd = _sets_of(candidate)[1]
                if cd <= delta_set:
                    return True
        return False

    def subsumed_by(self, clause: IntClause) -> List[IntClause]:
        smallest: Optional[Dict[int, IntClause]] = None
        for codes, occ in (
            (clause.gamma, self._neg_occ),
            (clause.delta, self._pos_occ),
        ):
            for code in codes:
                bucket = occ.get(code)
                if bucket is None:
                    return []
                if smallest is None or len(bucket) < len(smallest):
                    smallest = bucket
        if smallest is None:
            return []
        gamma_set, delta_set = _sets_of(clause)
        victims: List[IntClause] = []
        for candidate in smallest.values():
            cg = candidate.gamma_set
            if cg is None:
                cg, cd = _sets_of(candidate)
            else:
                cd = candidate.delta_set
            if gamma_set <= cg and delta_set <= cd:
                victims.append(candidate)
        return victims

    def inference_partners(self, given: IntClause) -> List[IntClause]:
        candidates: Dict[int, IntClause] = {}
        production = given.production
        if production is not None:
            big = production[0]
            bucket = self._gamma_occ.get(big)
            if bucket:
                candidates.update(bucket)
            bucket = self._maxeq_occ.get(big)
            if bucket:
                candidates.update(bucket)
        relevant: Iterable[int]
        if given.gamma:
            relevant_set: Set[int] = set()
            for code in given.gamma:
                relevant_set.add(code >> SHIFT)
                relevant_set.add(code & _MASK)
            relevant = relevant_set
        elif production is not None:
            equation = production[2]
            relevant = (equation >> SHIFT, equation & _MASK)
        else:
            relevant = ()
        for constant in relevant:
            bucket = self._productive_by_big.get(constant)
            if bucket:
                candidates.update(bucket)
        candidates.pop(given.ordinal, None)
        # Sort the ordinals alone (a C-level key lookup per element) instead
        # of building (sequence, clause) pairs to sort.
        getter = self._seq.__getitem__
        return [candidates[key] for key in sorted(candidates, key=getter)]


class _DerivationView(_MappingBase):
    """Read-only ``Clause -> Inference`` view over the dense derivation record.

    Decoding happens lazily, per access: the proof-recording path walks the
    mapping exactly once, so materialising symbolic :class:`Inference`
    objects per generated clause would tax the hot path for nothing.  (A core
    built with ``record_derivations=False`` keeps no record, and the view is
    empty.)
    """

    __slots__ = ("_core",)

    def __init__(self, core: "IntSaturationCore"):
        self._core = core

    def __len__(self) -> int:
        return len(self._core._derivations)

    def __iter__(self) -> Iterator[Clause]:
        decode = self._core._encoder.decode
        for clause in self._core._derivations:
            yield decode(clause)

    def __getitem__(self, clause: Clause):
        encoded = self._core._encoder.lookup_clause(clause)
        if encoded is None or encoded not in self._core._derivations:
            raise KeyError(clause)
        return self._core._inference_of(encoded)

    def items(self):
        inference_of = self._core._inference_of
        decode = self._core._encoder.decode
        return [
            (decode(clause), inference_of(clause)) for clause in self._core._derivations
        ]


class IntSaturationCore:
    """The given-clause loop over dense clauses: the production engine.

    This is the kernel-side twin of the reference loop in
    :class:`~repro.superposition.saturation.SaturationEngine` — same public
    surface, same algorithm, dense representation.  The engine facade
    delegates here by default; all inputs and outputs are symbolic
    :class:`Clause` objects, encoded/decoded at this boundary.

    ``record_derivations`` keeps the ``(rule, premises)`` record of every
    derived clause, which only proof reconstruction reads; without it
    :attr:`derivations` stays empty and the search is otherwise identical.
    """

    def __init__(self, order: TermOrder, max_clauses: int, record_derivations: bool = True):
        self.order = order
        self.max_clauses = max_clauses
        self._record_derivations = record_derivations
        self._encoder = DenseEncoder(order)
        #: ``self._encoder.rebuilds`` as of the last :meth:`_handle_rebuild`.
        self._rebuilds_seen = 0
        self._index = IntClauseIndex()
        self._index_live = False
        self._index_threshold = ADAPTIVE_INDEX_THRESHOLD
        self._active: List[IntClause] = []
        #: Min-heap of ``(packed key, clause)`` — the key is
        #: ``(weight << 40) | tick``, which orders exactly like the
        #: ``(weight, tick)`` pair (ticks are far below 2**40) while keeping
        #: heap sift comparisons single int compares.  Ticks are unique, so
        #: the clause itself is never compared.
        self._passive: List[Tuple[int, IntClause]] = []
        self._tick = itertools.count()
        #: Net membership changes of the known set (active + queued passive)
        #: since the last :meth:`drain_known_changes_raw`: clause -> +1/-1.
        self._known_delta: Dict[IntClause, int] = {}
        self._derivations: Dict[IntClause, Tuple[str, Tuple[IntClause, ...]]] = {}
        self._refuted = False
        self._generated = 0
        #: Absolute ``time.perf_counter()`` instant after which :meth:`saturate`
        #: raises ``DeadlineExceeded`` (checked before every given clause).
        #: Armed by ``SaturationEngine.set_deadline``; ``None`` disables.
        self.deadline: Optional[float] = None
        self._change_feed_consumed = False

    # -- public surface (mirrors SaturationEngine) --------------------------
    @property
    def refuted(self) -> bool:
        return self._refuted

    @property
    def generated_count(self) -> int:
        return self._generated

    @property
    def derivations(self) -> Mapping[Clause, object]:
        return _DerivationView(self)

    @property
    def encoder(self) -> DenseEncoder:
        """The engine's per-problem encoder (the model generator's boundary)."""
        return self._encoder

    def dense_core(self) -> "IntSaturationCore":
        """This core — the model generator pairs with it directly."""
        return self

    def add_clauses(self, clauses: Iterable[Clause]) -> None:
        for clause in clauses:
            if not clause.is_pure:
                raise ValueError("the saturation engine only accepts pure clauses")
            encoded = self._encode(clause)
            simplified = self._simplify(encoded)
            if simplified is encoded:
                self._enqueue(encoded, None)
            else:
                self._enqueue(simplified, "equality-resolution", encoded)

    def saturate(self, max_given: Optional[int] = None):
        from repro.superposition.saturation import DeadlineExceeded, SaturationResult

        processed = 0
        passive = self._passive
        heappop = heapq.heappop
        known = self._known_delta
        infer_within = self._infer_within
        infer_between = self._infer_between
        is_subsumed_by_active = self._is_subsumed_by_active
        deadline = self.deadline
        clock = time.perf_counter
        while passive and not self._refuted:
            if max_given is not None and processed >= max_given:
                break
            if deadline is not None and clock() > deadline:
                raise DeadlineExceeded("saturation ran past its wall-clock deadline")
            # Pop the lightest passive clause.  An entry whose clause has
            # left the passive set is skipped and does not count as given.
            given = heappop(passive)[1]
            if not given.in_passive:
                continue
            given.in_passive = False
            processed += 1
            if given.is_tautology:
                continue
            # ``_mark_known(given, -1)``, inlined (hot path).
            net = known.get(given, 0) - 1
            if net:
                known[given] = net
            else:
                known.pop(given, None)
            if given.is_empty:
                self._register_active(given)
                self._refuted = True
                break
            if self._index_live:
                if self._index.is_subsumed(given):
                    continue
            elif is_subsumed_by_active(given):
                continue
            self._remove_subsumed_active(given)
            self._register_active(given)

            # Conclusions are enqueued as they are emitted — the emission
            # sequence is exactly the symbolic engine's collect-then-enqueue
            # sequence, and inference generation is side-effect free, so
            # stopping at a refutation mid-stream leaves identical state.
            given_productive = given.production is not None
            infer_within(given)
            if self._refuted:
                continue
            if self._index_live:
                partners: Iterable[IntClause] = self._index.inference_partners(given)
            else:
                partners = [other for other in self._active if other is not given]
            for other in partners:
                if given_productive:
                    infer_between(given, other)
                if other.production is not None:
                    infer_between(other, given)
                if self._refuted:
                    break
            if given_productive and not self._refuted:
                infer_between(given, given)

        # Snapshot the active list now; the result's ``clauses`` then decodes
        # lazily but observes this round's state even if the engine keeps
        # saturating afterwards (matching the symbolic engine's eager tuple).
        active_snapshot = list(self._active)
        decode = self._encoder.decode

        return SaturationResult.lazy(
            lambda: tuple(decode(clause) for clause in active_snapshot),
            refuted=self._refuted,
            derivations=_DerivationView(self),
            complete=not self._passive or self._refuted,
        )

    def known_pure_clauses(self) -> Tuple[Clause, ...]:
        decode = self._encoder.decode
        active = [decode(clause) for clause in self._active]
        passive = [
            decode(clause) for _, clause in self._passive if clause.in_passive
        ]
        return tuple(active) + tuple(passive)

    def drain_known_changes_raw(self) -> Tuple[List[IntClause], List[IntClause]]:
        """The net ``(added, removed)`` known-set changes since the last drain.

        The model generator's feed, as bare :class:`IntClause` records: no
        decoding, no key materialisation — the consumer orders clauses by
        :meth:`DenseEncoder.sort_key_of` on demand and symbolic objects are
        built only at the model boundary.  The first drain reports the entire
        current known set as additions.  Destructive — the change log is
        cleared — so the feed supports one consumer: the
        ``IncrementalModelGenerator`` the prover pairs with this engine.
        Once it has been drained, a renumbering of the dense ids is refused
        (see :meth:`_handle_rebuild`).
        """
        self._change_feed_consumed = True
        added: List[IntClause] = []
        removed: List[IntClause] = []
        for clause, net in self._known_delta.items():
            if net > 0:
                added.append(clause)
            elif net < 0:
                removed.append(clause)
        self._known_delta.clear()
        return added, removed

    def clauses(self) -> Tuple[Clause, ...]:
        decode = self._encoder.decode
        return tuple(decode(clause) for clause in self._active)

    def is_known(self, clause: Clause) -> bool:
        encoded = self._simplify(self._encode(clause))
        if encoded.is_tautology:
            return True
        if encoded.seen:
            return True
        return self._is_subsumed_by_active(encoded)

    # -- inference rules (dense twins of SuperpositionCalculus) --------------
    def _infer_within(self, given: IntClause) -> None:
        """Equality factoring (conclusions enqueued directly).

        The symbolic rule iterates candidates in sort-key order and only the
        clause's (strictly) maximal equation survives its maximality check —
        positive keys are distinct per atom — so the dense form starts from
        the precomputed production and walks the other equations in
        presentation order.
        """
        production = given.production
        if production is None or given.gamma:
            return
        big, small, top = production
        rest = given.rest_delta
        for second in self._encoder.delta_pres_of(given):
            if second == top:
                continue
            b2, s2 = second >> SHIFT, second & _MASK
            if b2 == s2:
                continue
            if b2 == big:
                other = s2
            elif s2 == big:
                other = b2
            else:
                continue
            code = _pack(small, other)
            gamma: Tuple[int, ...] = () if (code >> SHIFT) == (code & _MASK) else (code,)
            self._enqueue(self._encoder.intern(gamma, rest), "equality-factoring", given)
            if self._refuted:
                return

    def _infer_between(self, left: IntClause, right: IntClause) -> None:
        """Superposition left/right with ``left`` as the rewriting premise.

        Conclusions are enqueued directly, in emission order.
        """
        production = left.production
        if production is None:
            return
        big, small, _ = production
        left_rest = left.rest_delta
        intern = self._encoder.intern
        # Roughly half the conclusions have been interned already; probing
        # the intern table directly skips a call frame on that hot half, and
        # a conclusion that was both interned and enqueued before is a
        # complete no-op in ``_enqueue`` (the ``seen`` early-return precedes
        # the generated counter) — so skip the call outright.
        interned_get = self._encoder._clauses.get
        enqueue = self._enqueue
        if right.gamma:
            delta: Optional[Tuple[int, ...]] = None
            for target in self._encoder.gamma_pres_of(right):
                b, s = target >> SHIFT, target & _MASK
                if b != big and s != big:
                    continue
                if delta is None:
                    # The consequent is the same for every rewritten target;
                    # build it once per premise pair, from the memoised
                    # frozensets of both sides.
                    if left_rest:
                        rest_set = left.rest_set
                        if rest_set is None:
                            rest_set = frozenset(left_rest)
                            left.rest_set = rest_set
                        _, rds = _sets_of(right)
                        delta = tuple(sorted(rest_set | rds))
                    else:
                        delta = right.delta
                # Activated clauses carry no trivial antecedent atoms (they
                # passed ``_simplify`` at enqueue), so the rewritten target is
                # the only atom equality resolution could drop here.  ``gamma``
                # is already ascending, so the conclusion's antecedent is a
                # splice — drop the target, insert the rewritten code in
                # place — done with bisect positions and C-level tuple
                # slices, not a set round-trip through ``sorted``.
                right_gamma = right.gamma
                position = bisect_left(right_gamma, target)
                stripped = right_gamma[:position] + right_gamma[position + 1 :]
                lo = small if b == big else b
                hi = small if s == big else s
                if lo == hi:
                    gamma_codes = stripped
                else:
                    code = (lo << SHIFT) | hi if lo >= hi else (hi << SHIFT) | lo
                    slot = bisect_left(stripped, code)
                    if slot < len(stripped) and stripped[slot] == code:
                        gamma_codes = stripped
                    else:
                        gamma_codes = stripped[:slot] + (code,) + stripped[slot:]
                conclusion = interned_get((gamma_codes, delta))
                if conclusion is None:
                    conclusion = intern(gamma_codes, delta)
                elif conclusion.seen:
                    continue
                enqueue(conclusion, "superposition-left", left, right)
                if self._refuted:
                    return
            return
        right_production = right.production
        if right_production is None:
            return
        target = right_production[2]
        b, s = target >> SHIFT, target & _MASK
        if b != big and s != big:
            return
        code = _pack(small if b == big else b, small if s == big else s)
        delta_codes = set(left_rest)
        delta_codes.update(right.rest_delta)
        delta_codes.add(code)
        self._enqueue(
            intern((), tuple(sorted(delta_codes))), "superposition-right", left, right
        )

    # -- engine internals ----------------------------------------------------
    def _simplify(self, clause: IntClause) -> IntClause:
        """Equality resolution: drop trivial antecedent atoms."""
        for code in clause.gamma:
            if _trivial(code):
                break
        else:
            return clause
        gamma = tuple(code for code in clause.gamma if not _trivial(code))
        return self._encoder.intern(gamma, clause.delta)

    def _enqueue(
        self,
        clause: IntClause,
        rule: Optional[str],
        first: Optional[IntClause] = None,
        second: Optional[IntClause] = None,
    ) -> None:
        """Queue a new clause derived by ``rule`` from ``first`` (and ``second``).

        The premises come as two arguments, so no tuple is built unless a
        derivation record is kept.  ``rule`` is ``None`` for an input clause.
        """
        if clause.seen:
            return
        clause.seen = True
        self._generated += 1
        if self._generated > self.max_clauses:
            from repro.superposition.saturation import SaturationLimitError

            raise SaturationLimitError(
                "saturation exceeded the budget of {} clauses".format(self.max_clauses)
            )
        if rule is not None and self._record_derivations:
            self._derivations[clause] = (
                rule,
                (first,) if second is None else (first, second),
            )
        if clause.is_empty:
            self._register_active(clause)
            self._refuted = True
            return
        heapq.heappush(
            self._passive, ((clause.weight << 40) | next(self._tick), clause)
        )
        clause.in_passive = True
        if not clause.is_tautology:
            # ``_mark_known(clause, 1)``, inlined on the per-generated-clause
            # hot path (see that method for the tautology rationale).
            known = self._known_delta
            net = known.get(clause, 0) + 1
            if net:
                known[clause] = net
            else:
                known.pop(clause, None)

    def _mark_known(self, clause: IntClause, delta: int) -> None:
        # Tautologies never reach the model generator (it would discard them
        # on arrival), so they are kept out of the change feed;
        # known_pure_clauses still reports them for the one-shot path, whose
        # validation loop does its own filtering.
        if clause.is_tautology:
            return
        net = self._known_delta.get(clause, 0) + delta
        if net:
            self._known_delta[clause] = net
        else:
            self._known_delta.pop(clause, None)

    def _register_active(self, clause: IntClause) -> None:
        if clause.in_active:
            return
        clause.in_active = True
        self._mark_known(clause, 1)
        self._active.append(clause)
        if not clause.is_empty:
            if self._index_live:
                self._index.add(clause)
            elif len(self._active) >= self._index_threshold:
                # Adaptive activation: the first time the active set is
                # large enough for bucket lookups to beat linear scans,
                # index everything accumulated so far and stay indexed.
                for active in self._active:
                    if not active.is_empty:
                        self._index.add(active)
                self._index_live = True

    @staticmethod
    def _masks_of(clause: IntClause) -> Tuple[int, int]:
        """The clause's literal feature bitmasks (lazy, memoised).

        One bit per literal hashed into a fixed-width word, per side; a
        subsumer's mask must be a submask of the subsumee's.  Used to prune
        the linear subsumption scans that run before the index goes live
        (candidates there share no literal a priori, unlike bucket hits).
        """
        gmask = clause.gmask
        if gmask is None:
            gmask = 0
            for code in clause.gamma:
                gmask |= 1 << (code % _FEATURE_BITS)
            dmask = 0
            for code in clause.delta:
                dmask |= 1 << (code % _FEATURE_BITS)
            clause.gmask = gmask
            clause.dmask = dmask
        return gmask, clause.dmask

    def _is_subsumed_by_active(self, clause: IntClause) -> bool:
        if self._index_live:
            return self._index.is_subsumed(clause)
        gamma_set, delta_set = _sets_of(clause)
        gmask, dmask = self._masks_of(clause)
        masks_of = self._masks_of
        for active in self._active:
            agmask, admask = masks_of(active)
            if agmask & ~gmask == 0 and admask & ~dmask == 0:
                ags, ads = _sets_of(active)
                if ags <= gamma_set and ads <= delta_set:
                    return True
        return False

    def _remove_subsumed_active(self, clause: IntClause) -> None:
        if self._index_live:
            victims = self._index.subsumed_by(clause)
            if victims:
                for victim in victims:
                    self._index.remove(victim)
                    victim.in_active = False
                    self._mark_known(victim, -1)
                self._active = [active for active in self._active if active.in_active]
            return
        gamma_set, delta_set = _sets_of(clause)
        victims = []
        for active in self._active:
            ags, ads = _sets_of(active)
            if gamma_set <= ags and delta_set <= ads:
                victims.append(active)
        if victims:
            for victim in victims:
                victim.in_active = False
                self._mark_known(victim, -1)
            self._active = [active for active in self._active if active.in_active]

    def _inference_of(self, clause: IntClause):
        from repro.superposition.calculus import Inference

        rule, premises = self._derivations[clause]
        decode = self._encoder.decode
        return Inference(
            conclusion=decode(clause),
            rule=rule,
            premises=tuple(decode(premise) for premise in premises),
        )

    def _encode(self, clause: Clause) -> IntClause:
        """Encode ``clause``; refresh id-keyed state if that renumbered ids.

        ``encode_clause`` is the only caller of ``register_constants``, so
        checking the encoder's ``rebuilds`` counter here sees every
        renumbering.
        """
        encoded = self._encoder.encode_clause(clause)
        if self._encoder.rebuilds != self._rebuilds_seen:
            self._handle_rebuild()
        return encoded

    def _handle_rebuild(self) -> None:
        """Refresh id-keyed engine state after the encoder renumbered ids."""
        self._rebuilds_seen = self._encoder.rebuilds
        if self._change_feed_consumed:
            # Dense sort keys already handed to a change-feed consumer would
            # silently stop agreeing with post-renumbering keys.  The prover
            # flow can never get here (the vocabulary is fixed at engine
            # construction); direct engine users must add late constants
            # before pairing a model generator.
            raise RuntimeError(
                "dense ids were renumbered after the known-change feed was "
                "consumed; register all constants before the first drain"
            )
        if self._index_live:
            self._index = IntClauseIndex()
            for active in self._active:
                if not active.is_empty:
                    self._index.add(active)
