"""Laboratory for compound-symmetry equivalence classes and heavy-tailed frailty laws.

Two threads run through this package:

* the many-to-one map from hierarchical random-intercept models to a single
  compound-symmetry marginal model, including the alpha-indexed family with
  correlated random effects and measurement errors, ML fitting, and the
  empirical-Bayes shrinkage that is sensitive to the unidentified part;
* the Weibull-exponential distribution family whose moments hit Gamma-function
  poles, with analytic moments, a quadrature oracle, and seeded samplers.
"""

from unobs_lab.model_core import (
    ClusterData,
    CSMatrix,
    CSParams,
    Dataset,
    DomainError,
    cs_covariance,
    gls_mean,
    icc,
    read_dataset_csv,
    validate_cs,
    write_dataset_csv,
)
from unobs_lab.equivalence import (
    ConditionalErrorDist,
    DecompRow,
    ExtendedSpec,
    SpecA,
    SpecB,
    conditional_error_dist,
    decomposition_table,
    derive_d_tau,
    eb_shrinkage,
    joint_cov,
    map_a_to_b,
    marginal_cov_extended,
    psd_slack,
    v1_matrix,
    v2_matrix,
)
from unobs_lab.estimation import (
    FitResult,
    SimLayout,
    fit_balanced_closed_form,
    fit_ml,
    loglik_cs,
    simulate_cs,
    simulate_extended,
)
from unobs_lab.heavytail import (
    MomentResult,
    WeibullExpSpec,
    WeibullGammaSpec,
    pit_sample,
    running_mean_trace,
    truncated_moment,
    we_cdf,
    we_moment,
    we_pdf,
    we_quantile,
    we_sample,
    wg_moment_defined,
    wg_sample,
)

__version__ = "0.1.0"
