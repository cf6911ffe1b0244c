"""Convergent rewrite relations over constant symbols.

The model produced by the superposition calculus for a satisfiable set of
pure clauses is a *convergent* binary relation ``R`` on constants: every
constant has a unique normal form, and two constants are equal in the model
exactly when their normal forms coincide (Section 3 of the paper).

In the ground, function-free fragment a convergent relation is particularly
simple: it is a partial function from constants to constants (at most one
outgoing edge per constant) whose edges always point from a larger constant to
a smaller one in the term ordering, which guarantees termination; being a
function makes it trivially confluent.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.logic.atoms import EqAtom
from repro.logic.clauses import Clause
from repro.logic.terms import Const


class RewriteCycleError(RuntimeError):
    """Raised when normalisation runs into a cycle (the relation is not terminating)."""


class RewriteRelation:
    """A convergent rewrite relation ``{x => y, ...}`` over constants.

    The relation is stored as a dictionary mapping each reducible constant to
    its (unique) successor.  All operations are non-destructive except
    :meth:`add_edge`, which is used only while the relation is being generated.
    """

    def __init__(self, edges: Optional[Dict[Const, Const]] = None):
        self._edges: Dict[Const, Const] = dict(edges or {})
        # Memoised normal forms with path compression.  Satisfaction checks
        # chase the same rewrite chains over and over (model generation
        # evaluates every known clause against the relation); the cache turns
        # each chase into a single dictionary hit.  It is dropped whenever an
        # edge is added, so it only ever describes the current relation.
        self._nf_cache: Dict[Const, Const] = {}

    # -- construction -------------------------------------------------------
    def add_edge(self, source: Const, target: Const) -> None:
        """Add the edge ``source => target``.

        The source must be irreducible so far: a convergent relation never has
        two edges with the same left-hand side.
        """
        if source in self._edges:
            raise ValueError("constant {} already has an outgoing edge".format(source))
        if source == target:
            raise ValueError("a rewrite edge must relate two distinct constants")
        self._edges[source] = target
        self._nf_cache.clear()

    def copy(self) -> "RewriteRelation":
        """An independent copy of the relation."""
        return RewriteRelation(dict(self._edges))

    @classmethod
    def preloaded(
        cls, edges: Dict[Const, Const], normal_forms: Dict[Const, Const]
    ) -> "RewriteRelation":
        """A relation whose normal-form cache starts populated.

        The dense model generator computes every reducible constant's normal
        form as a by-product of its own (integer-side) construction;
        materialising the boundary relation with those values already cached
        means the downstream satisfaction and normalisation queries never
        re-chase a rewrite chain the construction has already walked.  The
        map may leave constants out (they are resolved on demand), but the
        caller vouches that every value in it is the exact normal form under
        ``edges`` — a wrong value here silently corrupts satisfaction
        answers, so only construction-derived maps qualify.
        """
        relation = cls(edges)
        relation._nf_cache.update(normal_forms)
        return relation

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._edges)

    def __bool__(self) -> bool:
        return bool(self._edges)

    def __contains__(self, constant: Const) -> bool:
        return constant in self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RewriteRelation):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self) -> int:
        return hash(frozenset(self._edges.items()))

    def __iter__(self) -> Iterator[Tuple[Const, Const]]:
        return iter(sorted(self._edges.items(), key=lambda edge: (edge[0].name, edge[1].name)))

    def __repr__(self) -> str:
        from repro.logic.printer import format_rewrite_relation

        return "RewriteRelation({})".format(format_rewrite_relation(self._edges))

    # -- queries -----------------------------------------------------------
    @property
    def edges(self) -> Dict[Const, Const]:
        """The edges as a dictionary (a copy; mutating it does not affect the relation)."""
        return dict(self._edges)

    def domain(self) -> FrozenSet[Const]:
        """The set of reducible constants."""
        return frozenset(self._edges)

    def edge_set(self) -> FrozenSet[Tuple[Const, Const]]:
        """The edges as a frozen set of ``(source, target)`` pairs."""
        return frozenset(self._edges.items())

    def is_irreducible(self, constant: Const) -> bool:
        """True when the constant has no outgoing edge."""
        return constant not in self._edges

    def successor(self, constant: Const) -> Optional[Const]:
        """The unique successor of ``constant``, or ``None`` if irreducible."""
        return self._edges.get(constant)

    def normal_form(self, constant: Const) -> Const:
        """The unique normal form of ``constant`` (follow edges until irreducible)."""
        cache = self._nf_cache
        cached = cache.get(constant)
        if cached is not None:
            return cached
        edges = self._edges
        path = []
        current = constant
        while True:
            successor = edges.get(current)
            if successor is None:
                break
            cached = cache.get(successor)
            if cached is not None:
                current = cached
                break
            path.append(current)
            if len(path) > len(edges):
                raise RewriteCycleError(
                    "cycle detected while normalising {}: relation is not terminating".format(
                        constant
                    )
                )
            current = successor
        for node in path:
            cache[node] = current
        cache[constant] = current
        return current

    def equivalent(self, left: Const, right: Const) -> bool:
        """True when the two constants have the same normal form."""
        # Constants are truthy, so ``or`` falls through to the full chase
        # exactly on a cache miss.
        cached = self._nf_cache.get
        return (cached(left) or self.normal_form(left)) == (
            cached(right) or self.normal_form(right)
        )

    def substitution(self, constants: Iterable[Const]) -> Dict[Const, Const]:
        """The substitution mapping each given constant to its normal form.

        Only constants that are actually reducible appear in the mapping.
        """
        result: Dict[Const, Const] = {}
        for constant in constants:
            normal = self.normal_form(constant)
            if normal != constant:
                result[constant] = normal
        return result

    # -- satisfaction (the |~ relation of the paper) -------------------------
    def satisfies_atom(self, atom: EqAtom) -> bool:
        """``R |~ x = y`` iff the normal forms of ``x`` and ``y`` coincide."""
        return self.equivalent(atom.left, atom.right)

    def satisfies_literal(self, atom: EqAtom, positive: bool) -> bool:
        """Satisfaction of a literal under the relation."""
        holds = self.satisfies_atom(atom)
        return holds if positive else not holds

    def satisfies_pure_clause(self, clause: Clause) -> bool:
        """``R |~ Gamma -> Delta``: some antecedent fails or some consequent holds."""
        if not clause.is_pure:
            raise ValueError("satisfies_pure_clause expects a pure clause")
        normal_form = self.normal_form
        cached = self._nf_cache.get
        for atom in clause.gamma:
            left, right = atom.left, atom.right
            if (cached(left) or normal_form(left)) != (cached(right) or normal_form(right)):
                return True
        for atom in clause.delta:
            left, right = atom.left, atom.right
            if (cached(left) or normal_form(left)) == (cached(right) or normal_form(right)):
                return True
        return False

    def satisfies_pure_part(self, clause: Clause) -> bool:
        """Satisfaction of the pure part ``Gamma -> Delta`` of any clause."""
        return self.satisfies_pure_clause(clause.pure_part())

    def forces(self, clause: Clause) -> bool:
        """The forcing relation ``R, C ||- Sigma`` of Definition 4.3.

        A spatial clause forces its spatial atom when the relation does *not*
        satisfy the pure part of the clause, i.e. the spatial atom must take
        the indicated truth value for the clause to hold in the induced model.
        """
        if clause.is_pure:
            raise ValueError("forcing is only defined for spatial clauses")
        return not self.satisfies_pure_part(clause)
