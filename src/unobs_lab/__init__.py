"""Laboratory for compound-symmetry equivalence classes and heavy-tailed frailty laws.

Two threads run through this package:

* the many-to-one map from hierarchical random-intercept models to a single
  compound-symmetry marginal model, including the alpha-indexed family with
  correlated random effects and measurement errors, ML fitting, and the
  empirical-Bayes shrinkage that is sensitive to the unidentified part;
* the Weibull-exponential distribution family whose moments hit Gamma-function
  poles, with analytic moments, a quadrature oracle, and seeded samplers.
"""

__version__ = "0.1.0"
