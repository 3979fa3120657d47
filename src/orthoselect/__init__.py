"""Almost-orthogonal well-conditioned column selection, with certified
estimates of the worst-direction selection value and Monte Carlo audits of
the analytic bounds behind the method."""

from .errors import BudgetExceeded, DomainError, FormatError, InvalidIndex, InvalidInput
from .linalg import (
    ColumnMatrix,
    IndexSet,
    coherence,
    gram_deviation,
    inf_norm_against,
    operator_norm,
    sigma_min,
    submatrix,
)
from .sphere import (
    EpsNet,
    RngStream,
    build_eps_net,
    net_cardinality_bound,
    sample_sphere_matrix,
    sample_unit_vector,
    sample_unit_vectors,
)
from .selection import (
    GammaEstimate,
    SelectionConfig,
    SelectionOutcome,
    attained_values,
    brute_force_inf,
    constrained_select,
    estimate_gamma,
    exact_inf_profile,
    feasible_subsets,
    greedy_outer,
    monotonicity_check,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "ColumnMatrix",
    "DomainError",
    "EpsNet",
    "FormatError",
    "GammaEstimate",
    "IndexSet",
    "InvalidIndex",
    "InvalidInput",
    "RngStream",
    "SelectionConfig",
    "SelectionOutcome",
    "attained_values",
    "brute_force_inf",
    "build_eps_net",
    "coherence",
    "constrained_select",
    "estimate_gamma",
    "exact_inf_profile",
    "feasible_subsets",
    "gram_deviation",
    "greedy_outer",
    "inf_norm_against",
    "monotonicity_check",
    "net_cardinality_bound",
    "operator_norm",
    "sample_sphere_matrix",
    "sample_unit_vector",
    "sample_unit_vectors",
    "sigma_min",
    "submatrix",
]
