"""Stochastic diffusion processes on the unit simplex.

Simulation of conservative scalar ensembles whose states are vectors of
non-negative fractions summing to one, with boundary realizability
auditing, Euler-Maruyama integration that redraws and then clips proposals
leaving the simplex, and statistical validation of the moment evolution.
"""

__version__ = "0.1.0"

from .core import Ensemble, ProcessDefinition, make_state
from .errors import (ConfigError, DegenerateState,
                     DirichletConstraintViolated, EnsembleTooSmall,
                     EvaluationFailure, InsufficientSnapshots,
                     InvalidParameter, NegativeComponent,
                     NotPositiveSemiDefinite, SimplexDiffError,
                     SingularNesting, SumViolation, UnsupportedProcess)
from .integrator import IntegratorConfig, RandomSource, Trajectory, simulate
from .processes import (beta_process, broken_process, dirichlet_process,
                        gen_dirichlet_process, reduction_coupling,
                        wright_fisher_process)
from .realizability import (AuditCheck, AuditReport, ToleranceSet,
                            audit_boundary, audit_covariance_structure,
                            audit_moment_bounds)
from .statistics import (MomentSet, analytic_stationary, batch_statistics,
                         cross_validate_rates, dirichlet_moments,
                         estimate_moments, estimate_rates)

__all__ = [
    "__version__",
    "Ensemble", "ProcessDefinition", "make_state",
    "ConfigError", "DegenerateState", "DirichletConstraintViolated",
    "EnsembleTooSmall", "EvaluationFailure", "InsufficientSnapshots",
    "InvalidParameter", "NegativeComponent", "NotPositiveSemiDefinite",
    "SimplexDiffError", "SingularNesting", "SumViolation",
    "UnsupportedProcess",
    "IntegratorConfig", "RandomSource", "Trajectory", "simulate",
    "beta_process", "broken_process", "dirichlet_process",
    "gen_dirichlet_process", "reduction_coupling", "wright_fisher_process",
    "AuditCheck", "AuditReport", "ToleranceSet", "audit_boundary",
    "audit_covariance_structure", "audit_moment_bounds",
    "MomentSet", "analytic_stationary", "batch_statistics",
    "cross_validate_rates", "dirichlet_moments", "estimate_moments",
    "estimate_rates",
]
