"""Spatial inference rules of the *SI* proof system (Figure 1 of the paper).

The *SI* system augments the superposition calculus with three groups of
rules that manipulate the spatial formula carried by a clause:

* **Normalisation** (N1–N4, :mod:`repro.spatial.normalization`): rewrite the
  constants of a spatial formula to their normal forms under the current
  equality model and drop trivial ``lseg(x, x)`` atoms.
* **Well-formedness** (W1–W5, :mod:`repro.spatial.wellformedness`): derive
  pure clauses from positive spatial clauses whose heap description is
  inconsistent (a ``nil`` address, or two atoms sharing an address).
* **Unfolding** (U1–U5 and spatial resolution SR,
  :mod:`repro.spatial.unfolding`): rewrite the spatial formula of a negative
  spatial clause using the (already normalised and well-formed) positive
  spatial clause, and resolve the two away, producing a new pure clause.

:mod:`repro.spatial.graph` computes the graph ``gr_R Sigma`` of a spatial
formula, i.e. the heap induced by reading every basic atom as a single cell.

Which concrete rules fire is owned by the spatial theory of the formula's
predicates: :mod:`repro.spatial.theory` defines the :class:`SpatialTheory`
interface and the registry, :mod:`repro.spatial.sll` is the builtin
``next``/``lseg`` fragment and :mod:`repro.spatial.dll` the doubly-linked
``cell``/``dlseg`` family (see ARCHITECTURE.md).
"""

from repro.spatial.graph import spatial_graph
from repro.spatial.normalization import NormalizationStep, normalize_clause
from repro.spatial.theory import (
    MixedTheoryError,
    PredicateSignature,
    SpatialTheory,
    available_theories,
    get_theory,
    register_theory,
    theory_of,
)
from repro.spatial.unfolding import UnfoldingMove, UnfoldingOutcome, UnfoldingStep, unfold
from repro.spatial.wellformedness import WellFormednessConsequence, well_formedness_consequences

__all__ = [
    "spatial_graph",
    "MixedTheoryError",
    "PredicateSignature",
    "SpatialTheory",
    "available_theories",
    "get_theory",
    "register_theory",
    "theory_of",
    "NormalizationStep",
    "normalize_clause",
    "WellFormednessConsequence",
    "well_formedness_consequences",
    "UnfoldingMove",
    "UnfoldingOutcome",
    "UnfoldingStep",
    "unfold",
]
