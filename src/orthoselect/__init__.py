"""Almost-orthogonal well-conditioned column selection, with certified
estimates of the worst-direction selection value and Monte Carlo audits of
the analytic bounds behind the method.

Every public name is imported from its submodule when it is first read, so
importing the package, or the numpy-free `orthoselect.cli`, loads no numpy.
A name is looked up on every read and never kept in the package, so
`orthoselect.<name>` is always what its submodule holds at that moment.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BudgetExceeded", "DomainError", "FormatError", "InvalidIndex",
                     "InvalidInput"), "errors"),
    **dict.fromkeys(("ColumnMatrix", "IndexSet", "coherence", "gram_deviation",
                     "inf_norm_against", "operator_norm", "sigma_min", "submatrix"), "linalg"),
    **dict.fromkeys(("EpsNet", "RngStream", "build_eps_net", "cube_grid", "sample_sphere_matrix",
                     "sample_unit_vector", "sample_unit_vectors"), "sphere"),
    "SelectionConfig": "config",
    **dict.fromkeys(("GammaEstimate", "SelectionOutcome", "attained_values", "brute_force_inf",
                     "constrained_select", "estimate_gamma", "exact_inf_profile",
                     "greedy_outer"), "selection"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
