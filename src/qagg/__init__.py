"""Convex aggregation of ordered linear smoothers.

Builds Tikhonov/ridge regularizer families in shared-eigenbasis form,
aggregates them with certified simplex weights, provides the classical
selection baselines (unbiased-risk argmin, GCV, exponential weighting)
and ships a seeded Monte Carlo harness for regret experiments.
"""

from qagg.aggregate import (
    SimplexWeights,
    SolveReport,
    cp_values,
    excess_bound_gap,
    exponential_weights,
    q_gradient,
    q_objective,
    select_cp,
    select_gcv,
    solve_q_aggregation,
)
from qagg.smoother import (
    FamilyUnion,
    GroundTruth,
    OrderedCheckReport,
    check_ordered,
    member_risks,
    oracle_index,
)
from qagg.spectral import (
    DesignProblem,
    SpectralFamily,
    apply_member,
    apply_weights,
    build_tikhonov_family,
    member_matrix,
    recover_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "DesignProblem",
    "SpectralFamily",
    "FamilyUnion",
    "GroundTruth",
    "OrderedCheckReport",
    "SimplexWeights",
    "SolveReport",
    "apply_member",
    "apply_weights",
    "build_tikhonov_family",
    "check_ordered",
    "cp_values",
    "excess_bound_gap",
    "exponential_weights",
    "member_matrix",
    "member_risks",
    "oracle_index",
    "q_gradient",
    "q_objective",
    "recover_coefficients",
    "select_cp",
    "select_gcv",
    "solve_q_aggregation",
    "__version__",
]
