"""Human-readable rendering of formulas, clauses and rewrite relations.

The printer produces the same notation the paper uses, modulo ASCII:

* ``x = y`` and ``x != y`` for pure literals,
* ``next(x, y)`` and ``lseg(x, y)`` for basic spatial atoms,
* ``*`` for the separating conjunction and ``emp`` for the empty heap,
* ``Gamma --> Delta`` for clauses, with the spatial formula shown on the side
  it occurs on, and ``[]`` for the empty clause,
* ``|-`` for entailments.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.logic.atoms import EqAtom, SpatialFormula
from repro.logic.clauses import Clause
from repro.logic.formula import Entailment, PureLiteral
from repro.logic.terms import Const

ARROW = "-->"
TURNSTILE = "|-"
EMPTY_CLAUSE_SYMBOL = "[]"


def format_atom(atom: EqAtom) -> str:
    """Render a pure equality atom."""
    return "{} = {}".format(atom.left, atom.right)


def format_atom_set(atoms: Iterable[EqAtom]) -> str:
    """Render a set of pure atoms as a comma separated list (sorted for stability)."""
    rendered = sorted(format_atom(atom) for atom in atoms)
    return ", ".join(rendered)


def format_spatial(sigma: SpatialFormula) -> str:
    """Render a spatial formula, with ``emp`` for the empty multiset."""
    return str(sigma)


def format_clause(clause: Clause) -> str:
    """Render a clause in sequent notation.

    Examples::

        c = e --> []                          (a pure clause with empty Delta)
        --> lseg(a, b) * next(c, d)           (a positive spatial clause)
        lseg(b, c) * lseg(c, e) -->           (a negative spatial clause)
    """
    if clause.is_empty:
        return EMPTY_CLAUSE_SYMBOL

    left_parts = []
    if clause.gamma:
        left_parts.append(format_atom_set(clause.gamma))
    if clause.is_negative_spatial:
        left_parts.append(format_spatial(clause.spatial))

    right_parts = []
    if clause.delta:
        right_parts.append(format_atom_set(clause.delta))
    if clause.is_positive_spatial:
        right_parts.append(format_spatial(clause.spatial))

    left = ", ".join(part for part in left_parts if part)
    right = ", ".join(part for part in right_parts if part)
    return "{} {} {}".format(left, ARROW, right).strip()


def format_pure_side(literals: Iterable[PureLiteral]) -> str:
    """Render a conjunction of pure literals."""
    rendered = [str(literal) for literal in literals]
    if not rendered:
        return "true"
    return " /\\ ".join(rendered)


def format_entailment(entailment: Entailment) -> str:
    """Render an entailment ``Pi /\\ Sigma |- Pi' /\\ Sigma'``."""

    def side(pure, sigma) -> str:
        parts = []
        if pure:
            parts.append(format_pure_side(pure))
        if not sigma.is_emp or not parts:
            parts.append(format_spatial(sigma))
        return " /\\ ".join(parts)

    return "{} {} {}".format(
        side(entailment.lhs_pure, entailment.lhs_spatial),
        TURNSTILE,
        side(entailment.rhs_pure, entailment.rhs_spatial),
    )


def format_rewrite_relation(relation: Mapping[Const, Const]) -> str:
    """Render a rewrite relation ``{x => y, ...}`` produced by model generation."""
    if not relation:
        return "{}"
    edges = sorted("{} => {}".format(src, dst) for src, dst in relation.items())
    return "{" + ", ".join(edges) + "}"


def format_substitution(mapping: Dict[Const, Const]) -> str:
    """Render a substitution as ``[y/x, ...]`` (replace ``x`` by ``y``)."""
    if not mapping:
        return "[]"
    items = sorted("{}/{}".format(value, key) for key, value in mapping.items())
    return "[" + ", ".join(items) + "]"
