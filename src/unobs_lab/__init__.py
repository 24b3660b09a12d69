"""Laboratory for compound-symmetry equivalence classes and heavy-tailed frailty laws.

Two threads run through this package:

* the many-to-one map from hierarchical random-intercept models to a single
  compound-symmetry marginal model, including the alpha-indexed family with
  correlated random effects and measurement errors, ML fitting, and the
  empirical-Bayes shrinkage that is sensitive to the unidentified part;
* the Weibull-exponential distribution family whose moments hit Gamma-function
  poles, with analytic moments, a quadrature oracle, and seeded samplers.
"""

import importlib

# Each exported name and the submodule it comes from. A name is imported on
# first use (PEP 562), so `import unobs_lab` loads no submodule, and the
# closed-form commands never load numpy.
_SOURCES = {
    "cs": ("CSMatrix", "DomainError", "icc", "validate_cs"),
    "model_core": ("CSParams", "Dataset", "gls_mean", "read_dataset_csv", "write_dataset_csv"),
    "equivalence": (
        "ConditionalErrorDist",
        "DecompRow",
        "ExtendedSpec",
        "SpecA",
        "SpecB",
        "conditional_error_dist",
        "decomposition_table",
        "derive_d_tau",
        "eb_shrinkage",
        "joint_cov",
        "map_a_to_b",
        "marginal_cov_extended",
        "psd_slack",
        "v1_matrix",
        "v2_matrix",
    ),
    "estimation": (
        "FitResult",
        "SimLayout",
        "fit_balanced_closed_form",
        "fit_ml",
        "loglik_cs",
        "simulate_cs",
        "simulate_extended",
    ),
    "heavytail": (
        "MomentResult",
        "WeibullExpSpec",
        "WeibullGammaSpec",
        "pit_sample",
        "running_mean_trace",
        "truncated_moment",
        "we_cdf",
        "we_moment",
        "we_pdf",
        "we_quantile",
        "we_sample",
        "wg_moment_defined",
        "wg_sample",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
