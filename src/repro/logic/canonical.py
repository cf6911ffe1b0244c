"""Canonical forms of entailments up to alpha-equivalence.

Two entailments that differ only in the names of their program variables (and
in the order of their pure or spatial conjuncts) are the *same* proving
problem: validity, proofs and counterexamples all transport along the
renaming.  The batch layer exploits this by memoising verdicts under a
canonical form, so it needs a fingerprint with two properties:

* **invariance** — renaming the variables (any bijection fixing ``nil``) or
  permuting conjuncts must not change the fingerprint;
* **completeness** — two entailments with the same fingerprint must actually
  be renamings of each other, otherwise a cache hit could return a wrong
  verdict.

Both are obtained by computing a canonical *labelling*: a deterministic total
order on the entailment's constants that depends only on the structure around
them, never on their names.  The entailment re-expressed in terms of the
positions in that order (:func:`CanonicalForm.key`) is then a complete
invariant — equal keys literally describe the same renamed entailment.

The labelling uses the standard colour-refinement / individualisation scheme
from graph canonicalisation:

1. view constants as nodes and atom occurrences as labelled (multi-)edges —
   ``x != y`` on the left-hand side links ``x`` and ``y`` with the label
   ``("pure", "lhs", "neq")``, ``lseg(x, y)`` on the right links them with
   ``("spatial", "rhs", "lseg")`` plus a source/target role, and so on;
2. start from the trivial colouring (``nil`` alone in its own class — it is
   never renamed) and refine: a constant's new colour is its old colour plus
   the multiset of (edge label, neighbour colour) pairs over its occurrences.
   Refinement is isomorphism-invariant, so renamings get the same colours;
3. if refinement leaves ties (a colour class with several constants), branch:
   individualise each member of the first tied class in turn (in name
   order), re-refine, recurse; the key is the lexicographically smallest
   fully ordered encoding over all leaves of this search tree.  Taking the
   minimum over *all* members keeps the result independent of the names;
4. prune by automorphisms (the scheme of nauty, McKay & Piperno 2014).  Two
   leaves with equal encodings define an automorphism: a renaming that maps
   the entailment onto itself.  A tied candidate that an automorphism fixing
   the node's individualised constants maps onto an already explored sibling
   roots a subtree with the same encodings, so it is skipped; and when an
   automorphism maps a leaf's whole path onto an earlier leaf's, the rest of
   the subtree where the two paths diverge is skipped too.  Pruning only
   drops leaves whose encodings were already seen, so the minimum, and with
   it every key, is exactly that of the exhaustive search.

Refinement runs over integers: constants are numbered in name order and each
edge label is replaced by its rank among the entailment's labels.  That
relabelling preserves every comparison, so colour ids, pass counts and keys
are those of refining over the labels themselves.

Entailments in this fragment are small (tens of constants), but not rarely
symmetric: the paper's Table 3 clones a verification condition into k
renamed-apart copies, which any permutation of the copies maps onto
themselves.  Without pruning such inputs cost k! leaves; with it, about k per
level of the search.  A refinement budget still bounds the search; an input
that exhausts it opts out of caching via :class:`TooSymmetricError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.logic.formula import Entailment
from repro.logic.terms import NIL, Const, make_const

__all__ = [
    "CanonicalForm",
    "TooSymmetricError",
    "canonicalize",
    "fingerprint",
    "canonical_entailment",
]

#: Version tag embedded in every fingerprint so that persisted keys from an
#: older encoding can never alias keys of a newer one.
_KEY_VERSION = "slp-canon-1"

#: Prefix of the canonical variable names ``c1, c2, ...``.
_CANONICAL_PREFIX = "c"

#: Default ceiling on colour-refinement passes across all branches of the
#: pruned individualisation search.  Generous: a non-degenerate entailment
#: needs a handful of passes in total, a VC cloned x4 well under a hundred.
_DEFAULT_BUDGET = 2000


class TooSymmetricError(RuntimeError):
    """The individualisation search exceeded its refinement budget.

    With automorphism pruning the default budget is rarely reached: a small
    explicit ``budget=``, or an input whose ties refinement cannot split and
    whose automorphisms the search does not find early, triggers it.  Callers
    treat such inputs as uncacheable rather than searching on.
    """


#: An edge label: (group, side, kind, role).  All four components are strings
#: so that labels — and everything built from them — sort without mixed-type
#: comparisons.
_Label = Tuple[str, str, str, str]

#: A fingerprint (see :meth:`_Search.encode`).
_Key = Tuple

#: The sort key of name order, read at C level.
_NAME = attrgetter("name")


class _Leaf(NamedTuple):
    """A leaf of the search tree: its encoding, colouring and individualised path."""

    key: _Key
    colours: List[int]
    path: List[int]


class _Search:
    """Individualisation-refinement over integer-numbered constants, pruned by
    the automorphisms its own leaves reveal, with one pass budget for the
    whole search."""

    def __init__(self, entailment: Entailment, budget: int):
        self.budget = budget
        # Name order: it fixes the order in which tied candidates are tried,
        # and with it the pass count, in every interpreter.
        constants = entailment.constants()
        self.constants = sorted(constants, key=_NAME)
        self.has_nil = NIL in constants
        ids = dict(zip(self.constants, range(len(self.constants))))
        # Every atom occurrence as labelled, directed edges ``(from, to)``
        # between constant ids (a loop for degenerate ``x = x`` /
        # ``lseg(x, x)`` atoms, which refinement handles naturally), and the
        # atoms themselves over ids, for the encoding.  The order of the arcs
        # under one label is immaterial: refinement sorts each neighbourhood.
        arcs: Dict[_Label, List[Tuple[int, int]]] = {}
        self.pure_sides: List[List[Tuple[int, int, int]]] = []
        #: Per side: binary atoms as ``(kind, a, b)``, wider ones as
        #: ``(kind, arguments)``.
        self.spatial_sides: List[Tuple[list, list]] = []
        for side, literals in (("lhs", entailment.lhs_pure), ("rhs", entailment.rhs_pure)):
            encoded = []
            ends: Tuple[list, list] = ([], [])  # disequalities', equalities' arcs
            for literal in literals:
                atom = literal.atom
                positive = int(literal.positive)
                i, j = ids[atom.left], ids[atom.right]
                encoded.append((positive, i, j))
                ends[positive].extend(((i, j), (j, i)))
            self.pure_sides.append(encoded)
            for positive, kind in ((1, "eq"), (0, "neq")):
                if ends[positive]:
                    arcs["pure", side, kind, "end"] = ends[positive]
        for side, sigma in (("lhs", entailment.lhs_spatial), ("rhs", entailment.rhs_spatial)):
            binary: List[Tuple[str, int, int]] = []
            wide: List[Tuple[str, Tuple[int, ...]]] = []
            # (kind, role pair) -> the arc lists of its two labels, built once.
            buckets: Dict[Tuple[str, str, str], Tuple[list, list]] = {}
            for atom in sigma:
                roles = atom.argument_roles()
                kind = atom.kind
                if len(roles) == 2:
                    # Binary atoms keep the original single-neighbour labels
                    # so that singly-linked fingerprints are unchanged.
                    (role_a, a), (role_b, b) = roles
                    a, b = ids[a], ids[b]
                    binary.append((kind, a, b))
                    bucket = buckets.get((kind, role_a, role_b))
                    if bucket is None:
                        bucket = buckets[kind, role_a, role_b] = (
                            arcs.setdefault(("spatial", side, kind, role_a), []),
                            arcs.setdefault(("spatial", side, kind, role_b), []),
                        )
                    bucket[0].append((a, b))
                    bucket[1].append((b, a))
                    continue
                numbered = [(role, ids[constant]) for role, constant in roles]
                wide.append((kind, tuple([i for _, i in numbered])))
                # Wider atoms: connect every argument to every other argument,
                # labelling the edge with the ordered role pair so refinement
                # sees the full incidence structure of the atom.
                for x, (role_x, a) in enumerate(numbered):
                    for y, (role_y, b) in enumerate(numbered):
                        if x != y:
                            label = ("spatial", side, kind, "{}>{}".format(role_x, role_y))
                            arcs.setdefault(label, []).append((a, b))
            self.spatial_sides.append((binary, wide))
        # (label rank) * stride + (neighbour colour) orders exactly as the
        # pair (label, neighbour colour) does: colour ids never exceed the
        # number of constants.
        stride = len(self.constants) + 1
        edges: List[List[Tuple[int, int]]] = [[] for _ in self.constants]
        for number, label in enumerate(sorted(arcs)):
            base = number * stride
            for a, b in arcs[label]:
                edges[a].append((base, b))
        self.edges = edges
        #: Automorphisms found so far, as permutations of the constant ids.
        self.generators: List[List[int]] = []
        self.first: Optional[_Leaf] = None
        self.best: Optional[_Leaf] = None

    def refine(self, colours: List[int], classes: int) -> Tuple[List[int], int]:
        """Refine ``colours`` (with ``classes`` classes) to a fixpoint,
        renumbering classes canonically."""
        edges = self.edges
        while True:
            if self.budget <= 0:
                raise TooSymmetricError(
                    "canonicalisation exceeded its refinement budget; "
                    "the entailment is too symmetric to fingerprint cheaply"
                )
            self.budget -= 1
            sizes = [0] * (len(colours) + 1)
            for colour in colours:
                sizes[colour] += 1
            # A signature sorts by its colour first, so a constant alone in
            # its class keeps its rank without its neighbourhood.
            signatures = [
                (colour, *sorted([base + colours[other] for base, other in adjacent]))
                if sizes[colour] > 1
                else (colour,)
                for colour, adjacent in zip(colours, edges)
            ]
            # Renumber by sorted signature: the ids depend only on structure,
            # so isomorphic inputs are renumbered identically.
            distinct = sorted(set(signatures))
            numbering = {signature: number for number, signature in enumerate(distinct)}
            refined = [numbering[signature] for signature in signatures]
            if len(distinct) == classes:
                return refined, classes
            colours, classes = refined, len(distinct)

    def search(self, colours: List[int], classes: int, path: List[int]) -> Optional[int]:
        """Explore the subtree below ``path``.

        Returns ``None``, or the depth the search must resume at when a leaf
        proved the rest of an enclosing subtree equivalent to one already
        explored.
        """
        colours, classes = self.refine(colours, classes)
        size = len(colours)
        if classes == size:
            return self.leaf(colours, path)
        counts = [0] * classes
        for colour in colours:
            counts[colour] += 1
        target = next(colour for colour, count in enumerate(counts) if count > 1)
        depth = len(path)
        explored: List[int] = []
        orbits: List[int] = []
        known = -1  # number of generators ``orbits`` was computed from
        for candidate in (c for c, colour in enumerate(colours) if colour == target):
            if explored:
                if known != len(self.generators):
                    known = len(self.generators)
                    orbits = self.orbits(path)
                if any(orbits[candidate] == orbits[sibling] for sibling in explored):
                    continue  # an automorphism maps it onto an explored sibling
            explored.append(candidate)
            branched = list(colours)
            branched[candidate] = size  # strictly above every existing colour id
            resume = self.search(branched, classes + 1, path + [candidate])
            if resume is not None and resume < depth:
                return resume
        return None

    def leaf(self, colours: List[int], path: List[int]) -> Optional[int]:
        """Record a leaf; on a match with an earlier one, return where to resume."""
        key = self.encode(colours)
        for earlier in (self.first, self.best):
            if earlier is not None and earlier.key == key:
                return self.automorphism(colours, path, earlier)
        leaf = _Leaf(key, colours, path)
        if self.first is None:
            self.first = leaf
        if self.best is None or key < self.best.key:
            self.best = leaf
        return None

    def automorphism(self, colours: List[int], path: List[int], earlier: _Leaf) -> Optional[int]:
        """Keep the automorphism mapping this leaf onto ``earlier`` (equal
        encodings), and return where the search can resume.

        When it maps this leaf's path onto the earlier leaf's, it maps the
        subtree where the two paths diverge onto one already explored, so
        the rest of that subtree holds no new encoding.
        """
        owner = [0] * len(colours)
        for constant, colour in enumerate(earlier.colours):
            owner[colour] = constant
        gamma = [owner[colour] for colour in colours]
        self.generators.append(gamma)
        if len(path) != len(earlier.path) or any(
            gamma[mine] != theirs for mine, theirs in zip(path, earlier.path)
        ):
            return None
        common = 0
        while path[common] == earlier.path[common]:
            common += 1
        return common

    def orbits(self, path: List[int]) -> List[int]:
        """Orbit representatives under the found automorphisms fixing ``path``."""
        parent = list(range(len(self.constants)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for gamma in self.generators:
            if all(gamma[v] == v for v in path):
                for x, y in enumerate(gamma):
                    rx, ry = find(x), find(y)
                    if rx != ry:
                        parent[max(rx, ry)] = min(rx, ry)
        return [find(x) for x in range(len(parent))]

    def encode(self, colours: List[int]) -> _Key:
        """The entailment re-expressed through constant positions, conjuncts sorted.

        This *is* the fingerprint: equal encodings mean the two entailments
        become literally identical once their constants are numbered by
        position.  In a discrete colouring nil has colour 0: it is pinned to
        position 0 (it can never be renamed, so the key must record which
        node it is) and the variables take 1..n in colour order.  Without nil
        the positions shift up, so 0 still unambiguously means "nil" across
        the whole key space.
        """
        position = colours if self.has_nil else [colour + 1 for colour in colours]

        def pure(literals) -> Tuple:
            encoded = []
            for positive, left, right in literals:
                i, j = position[left], position[right]
                encoded.append((positive, i, j) if i <= j else (positive, j, i))
            encoded.sort()
            return tuple(encoded)

        def spatial(atoms) -> Tuple:
            binary, wide = atoms
            encoded = [(kind, position[a], position[b]) for kind, a, b in binary]
            for kind, arguments in wide:
                encoded.append((kind, *[position[x] for x in arguments]))
            encoded.sort()
            return tuple(encoded)

        (lhs_pure, rhs_pure), (lhs_spatial, rhs_spatial) = self.pure_sides, self.spatial_sides
        return (
            _KEY_VERSION,
            len(colours),
            pure(lhs_pure),
            spatial(lhs_spatial),
            pure(rhs_pure),
            spatial(rhs_spatial),
        )

    def run(self) -> Tuple[_Key, List[Const]]:
        """The minimal encoding over all leaves, with the constants in the
        order of their positions in it."""
        # nil is pinned: it can never be renamed, so it starts in its own class.
        colours = [0 if constant.is_nil else 1 for constant in self.constants]
        if not colours:
            return self.encode([]), []
        self.search(colours, len(set(colours)), [])
        assert self.best is not None
        ordered = list(self.constants)
        for constant, colour in zip(self.constants, self.best.colours):
            ordered[colour] = constant
        return self.best.key, ordered


@dataclass(frozen=True)
class CanonicalForm:
    """An entailment's canonical fingerprint plus the renaming that realises it.

    A form may be shared (the proof cache hands one form to every caller
    asking about an equal entailment), so callers read it and never change
    its mappings.

    Attributes
    ----------
    key:
        The hashable fingerprint.  ``a.key == b.key`` holds exactly when the
        two entailments are alpha-equivalent (same problem up to renaming of
        non-``nil`` constants and reordering of conjuncts).
    renaming:
        Bijection from the entailment's constants to the canonical names
        ``c1, c2, ...`` (``nil`` maps to itself).  Applying it with
        :meth:`Entailment.rename` yields the canonical representative shared
        by the whole alpha-equivalence class.
    inverse:
        The inverse bijection, used to map cached proofs and counterexamples
        back into the entailment's own vocabulary.
    """

    key: _Key
    renaming: Mapping[Const, Const]
    inverse: Mapping[Const, Const]


def canonicalize(entailment: Entailment, budget: int = _DEFAULT_BUDGET) -> CanonicalForm:
    """Compute the canonical form of ``entailment``.

    Raises :class:`TooSymmetricError` for pathologically symmetric inputs
    (callers should treat those as uncacheable).
    """
    key, ordered = _Search(entailment, budget).run()
    # Positions -> canonical names.  nil keeps its name (it holds position 0
    # when present); the remaining constants are numbered c1..cn by their
    # canonical position.
    variables = ordered[1:] if ordered and ordered[0].is_nil else ordered
    names = [make_const(_CANONICAL_PREFIX + str(number)) for number in range(1, len(variables) + 1)]
    return CanonicalForm(
        key=key, renaming=dict(zip(variables, names)), inverse=dict(zip(names, variables))
    )


def fingerprint(entailment: Entailment, budget: int = _DEFAULT_BUDGET) -> _Key:
    """The alpha-invariant fingerprint alone (see :class:`CanonicalForm`)."""
    return canonicalize(entailment, budget=budget).key


def canonical_entailment(
    entailment: Entailment, budget: int = _DEFAULT_BUDGET
) -> Entailment:
    """The canonical representative of the entailment's alpha-equivalence class.

    Alpha-equivalent entailments map to *equal* representatives: the renaming
    is the canonical one and the pure conjuncts are sorted (spatial formulas
    are already kept in canonical order by :class:`SpatialFormula`).
    """
    renamed = entailment.rename(dict(canonicalize(entailment, budget=budget).renaming))

    def literal_key(literal):
        return (literal.positive, literal.atom.sort_key)

    return Entailment(
        tuple(sorted(renamed.lhs_pure, key=literal_key)),
        renamed.lhs_spatial,
        tuple(sorted(renamed.rhs_pure, key=literal_key)),
        renamed.rhs_spatial,
    )
