"""The ground superposition calculus *I* and its model generation.

The paper reuses a standard superposition calculus (Nieuwenhuis and Rubio's
system *I*) to reason about the pure, equational part of the entailment.  The
fragment is ground and has no function symbols, so the calculus specialises to
clauses over equalities between constant symbols.  The modules are:

* :mod:`repro.superposition.calculus` — the inference rules (superposition
  left/right, equality factoring, equality resolution) and the redundancy
  criteria (tautology deletion, subsumption);
* :mod:`repro.superposition.saturation` — the incremental given-clause
  saturation engine, which also records the derivation of each clause so
  that refutations can be turned into proof trees.  It is a facade over two
  engines that derive identical clauses: the dense kernel (the default) and
  a symbolic, unindexed reference loop;
* :mod:`repro.superposition.kernel` — the dense integer clause kernel: the
  given-clause loop over per-problem interned integer codes, with an
  adaptive clause index and symbolic clauses only at the engine boundary;
* :mod:`repro.superposition.model` — the Bachmair–Ganzinger candidate-model
  construction ``Gen(S*)`` which, when the empty clause is not derivable,
  produces a convergent rewrite relation ``R`` satisfying all pure clauses
  together with the map ``g`` from rewrite edges to their generating clauses
  (Lemma 3.1 of the paper): from scratch for the reference engine,
  incrementally over the kernel's clause records for the default one;
* :mod:`repro.superposition.rewrite` — convergent rewrite relations over
  constants and their normal forms.
"""

from repro.superposition.calculus import SuperpositionCalculus
from repro.superposition.kernel import DenseEncoder, IntClauseIndex, IntSaturationCore
from repro.superposition.model import (
    EqualityModel,
    IncrementalModelGenerator,
    ModelGenerationError,
    generate_model,
)
from repro.superposition.rewrite import RewriteRelation
from repro.superposition.saturation import SaturationEngine, SaturationResult

__all__ = [
    "SuperpositionCalculus",
    "SaturationEngine",
    "SaturationResult",
    "RewriteRelation",
    "DenseEncoder",
    "IntClauseIndex",
    "IntSaturationCore",
    "EqualityModel",
    "IncrementalModelGenerator",
    "ModelGenerationError",
    "generate_model",
]
