"""Approximate Bayesian inference on influence diagrams of continuous parameters.

The library carries each model quantity onto an unbounded scale, fits a
multivariate Gaussian by iterative linearization around the current
posterior point, conditions on experimental evidence, and maps the
conditioned moments back to the original distribution families.  A
Monte Carlo importance-sampling engine provides an independent reference
posterior, and the ``infer`` command line drives both from JSON model
files.
"""

from .evidence import (
    EvidenceSpec,
    LikelihoodApprox,
    binomial,
    lognormal_sample_adapter,
    normal_known_var,
    normal_unknown_var,
    pool,
    to_likelihood,
)
from .gaussian import GaussianState, condition, correlation, propagate_covariance
from .model import (
    Diagram,
    InvalidDiagramError,
    Node,
    basic,
    deterministic,
    evidence,
    topological_order,
    validate,
)
from .oracle import McEstimate, mc_posterior
from .solver import (
    IterationRecord,
    SolverConfig,
    SolverResult,
    initialize,
    solve,
)
from .specfun import (
    BetaParams,
    beta_from_moments,
    beta_to_moments,
    digamma,
    tetragamma,
    trigamma,
)
from .transforms import (
    MomentPair,
    PriorSpec,
    Transform,
    derivative,
    forward_moments,
    forward_point,
    inverse_moments,
    inverse_point,
)

__version__ = "0.1.0"

__all__ = [
    "BetaParams",
    "Diagram",
    "EvidenceSpec",
    "GaussianState",
    "InvalidDiagramError",
    "IterationRecord",
    "LikelihoodApprox",
    "McEstimate",
    "MomentPair",
    "Node",
    "PriorSpec",
    "SolverConfig",
    "SolverResult",
    "Transform",
    "basic",
    "beta_from_moments",
    "beta_to_moments",
    "binomial",
    "condition",
    "correlation",
    "derivative",
    "deterministic",
    "digamma",
    "evidence",
    "forward_moments",
    "forward_point",
    "initialize",
    "inverse_moments",
    "inverse_point",
    "lognormal_sample_adapter",
    "mc_posterior",
    "normal_known_var",
    "normal_unknown_var",
    "pool",
    "propagate_covariance",
    "solve",
    "tetragamma",
    "to_likelihood",
    "topological_order",
    "trigamma",
    "validate",
    "__version__",
]
