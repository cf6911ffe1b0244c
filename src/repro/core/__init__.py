"""The core of the prover: the Figure 3 algorithm, proofs, results and batching."""

from repro.core.batch import BatchProver, BatchStatistics, default_jobs
from repro.core.cache import ProofCache
from repro.core.config import ProverConfig
from repro.core.proof import Proof, ProofStep, ProofTrace
from repro.core.prover import Prover, ProverInternalError, ProverTimeout, prove
from repro.core.result import ProofResult, ProverStatistics, Verdict

__all__ = [
    "BatchProver",
    "BatchStatistics",
    "ProofCache",
    "ProverConfig",
    "Proof",
    "ProofStep",
    "ProofTrace",
    "Prover",
    "ProverInternalError",
    "ProverTimeout",
    "prove",
    "ProofResult",
    "ProverStatistics",
    "Verdict",
    "default_jobs",
]
