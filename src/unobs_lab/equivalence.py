"""Many-to-one map from hierarchical models to the compound-symmetry marginal.

Three pieces:

* the two-measurement equivalence pair: random intercept with heterogeneous
  errors (SpecA) vs. uncorrelated intercept+slope with homogeneous error
  (SpecB), linked by an exact linear mapping;
* the alpha-indexed extended family ExtendedSpec: a random intercept with
  variance d correlated (covariance tau) with the measurement errors, where
      d   = lam2 + 2*nu2 + 2*nu*alpha*s,   s = sqrt(lam2 + nu2), nu = sqrt(nu2),
      tau = -(nu2 + nu*alpha*s),
  so that d + 2*tau = lam2 for every alpha in [-1, 1] and all members imply
  the identical marginal covariance lam2*J + nu2*I;
* the empirical-Bayes shrinkage coefficient c(alpha), which does depend on
  alpha and so exposes the sensitivity hidden by marginal invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from unobs_lab.model_core import CSMatrix, DomainError, cs_covariance, validate_cs

__all__ = [
    "SpecA",
    "SpecB",
    "ExtendedSpec",
    "ConditionalErrorDist",
    "DecompRow",
    "v1_matrix",
    "v2_matrix",
    "map_a_to_b",
    "derive_d_tau",
    "decomposition_table",
    "joint_cov",
    "conditional_error_dist",
    "marginal_cov_extended",
    "eb_shrinkage",
    "psd_slack",
]


# ---------------------------------------------------------------------------
# The two-measurement equivalence pair (n = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecA:
    """Random intercept (variance lambda2) with heterogeneous errors, n = 2."""

    lambda2: float
    nu1sq: float
    nu2sq: float

    def __post_init__(self):
        if self.lambda2 < 0:
            raise DomainError("lambda2 must be >= 0")
        if not (self.nu1sq > 0 and self.nu2sq > 0):
            raise DomainError("error variances must be strictly positive")


@dataclass(frozen=True)
class SpecB:
    """Uncorrelated intercept+slope random effects with homogeneous error, n = 2.

    lambda2sq may be negative so that the image of map_a_to_b is always
    representable; is_valid_hierarchy reports whether a real hierarchy exists.
    """

    lambda1sq: float
    lambda2sq: float
    nusq: float

    def __post_init__(self):
        if self.lambda1sq < 0:
            raise DomainError("lambda1sq must be >= 0")
        if not self.nusq > 0:
            raise DomainError("nusq must be strictly positive")

    @property
    def is_valid_hierarchy(self) -> bool:
        return self.lambda2sq >= 0


def v1_matrix(spec: SpecA) -> np.ndarray:
    """2x2 marginal covariance of the heterogeneous-errors model."""
    l2, n1, n2 = spec.lambda2, spec.nu1sq, spec.nu2sq
    return np.array([[l2 + n1, l2], [l2, l2 + n2]])


def v2_matrix(spec: SpecB) -> np.ndarray:
    """2x2 marginal covariance of the intercept+slope model."""
    l1, l2, nu = spec.lambda1sq, spec.lambda2sq, spec.nusq
    # (l2 + nu) first: when l2 came from a variance difference this re-adds
    # the subtrahend before the large term, matching v1_matrix bit for bit
    return np.array([[l1 + nu, l1], [l1, l1 + (l2 + nu)]])


def map_a_to_b(spec: SpecA) -> SpecB:
    """Linear map making the two marginal covariances coincide exactly."""
    return SpecB(
        lambda1sq=spec.lambda2,
        lambda2sq=spec.nu2sq - spec.nu1sq,
        nusq=spec.nu1sq,
    )


# ---------------------------------------------------------------------------
# The alpha-indexed extended family
# ---------------------------------------------------------------------------


def derive_d_tau(lambda2: float, nu2: float, alpha: float) -> tuple[float, float]:
    """Random-intercept variance d and intercept/error covariance tau at alpha.

    Guarantees d >= 0, d + 2*tau = lambda2, and tau**2 <= d*nu2 for every
    alpha in [-1, 1].
    """
    if not nu2 > 0:
        raise DomainError(f"nu2 = {nu2} must be strictly positive")
    if not lambda2 + nu2 > 0:
        raise DomainError(f"lambda2 + nu2 = {lambda2 + nu2} must be positive")
    if not -1.0 <= alpha <= 1.0:
        raise DomainError(f"alpha = {alpha} outside the admissible box [-1, 1]")
    nu = math.sqrt(nu2)
    s = math.sqrt(lambda2 + nu2)
    d = lambda2 + 2.0 * nu2 + 2.0 * nu * alpha * s
    tau = -(nu2 + nu * alpha * s)
    # d = (s + nu*alpha)^2 + nu2*(1 - alpha^2); clamp roundoff at alpha = -1
    return max(d, 0.0), tau


@dataclass(frozen=True)
class ExtendedSpec:
    """Correlated random-intercept model indexed by alpha in [-1, 1].

    (lambda2, nu2) are the marginal compound-symmetry parameters; d, tau and
    s are derived on access, never stored.
    """

    lambda2: float
    nu2: float
    alpha: float

    def __post_init__(self):
        derive_d_tau(self.lambda2, self.nu2, self.alpha)  # validates

    @property
    def d(self) -> float:
        return derive_d_tau(self.lambda2, self.nu2, self.alpha)[0]

    @property
    def tau(self) -> float:
        return derive_d_tau(self.lambda2, self.nu2, self.alpha)[1]

    @property
    def s(self) -> float:
        return math.sqrt(self.lambda2 + self.nu2)


@dataclass(frozen=True)
class DecompRow:
    """One row of the variance/covariance decomposition into sigma2, d, 2*tau."""

    quantity: str  # "variance" or "covariance"
    sigma2_part: float
    d_part: float
    two_tau_part: float

    @property
    def total(self) -> float:
        return self.sigma2_part + self.d_part + self.two_tau_part


def decomposition_table(
    lambda2: float, nu2: float, alpha: float
) -> tuple[DecompRow, DecompRow]:
    """Decompose var(Y_ij) and cov(Y_ij, Y_ik) into sigma2 + d + 2*tau parts."""
    d, tau = derive_d_tau(lambda2, nu2, alpha)
    var_row = DecompRow("variance", nu2, d, 2.0 * tau)
    cov_row = DecompRow("covariance", 0.0, d, 2.0 * tau)
    return var_row, cov_row


def joint_cov(spec: ExtendedSpec, n: int) -> np.ndarray:
    """(n+1)-dimensional covariance of (b, eps_1, ..., eps_n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d, tau = derive_d_tau(spec.lambda2, spec.nu2, spec.alpha)
    c = spec.nu2 * np.eye(n + 1)
    c[0, 0] = d
    c[0, 1:] = tau
    c[1:, 0] = tau
    return c


@dataclass(frozen=True)
class ConditionalErrorDist:
    """Gaussian law of the error vector given the random intercept."""

    mean: np.ndarray
    cov: CSMatrix

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).copy()
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)


def conditional_error_dist(spec: ExtendedSpec, b: float, n: int) -> ConditionalErrorDist:
    """Distribution of the errors given the random intercept value b.

    Mean (tau*b/d) * 1_n, covariance sigma2*I - (tau^2/d)*J; singular exactly
    at |alpha| = 1 (the PSD slack d*sigma2 - tau^2 vanishes there).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d, tau = derive_d_tau(spec.lambda2, spec.nu2, spec.alpha)
    if d == 0.0:
        raise DomainError(
            "random intercept is a point mass (d = 0); conditioning degenerate"
        )
    mean = np.full(n, tau * b / d)
    return ConditionalErrorDist(mean=mean, cov=cs_covariance(n, -(tau * tau / d), spec.nu2))


def marginal_cov_extended(spec: ExtendedSpec, n: int) -> CSMatrix:
    """Implied marginal covariance (d + 2*tau)*J + sigma2*I; alpha-invariant."""
    d, tau = derive_d_tau(spec.lambda2, spec.nu2, spec.alpha)
    return cs_covariance(n, d + 2.0 * tau, spec.nu2)


def eb_shrinkage(spec: ExtendedSpec, n: int) -> float:
    """Empirical-Bayes shrinkage: E(b_i | Y_i) = c * (ybar_i - xbar_i' xi).

    Gaussian conditioning of b on Y gives c = n*(d+tau) / (sigma2 + n*(d+2*tau)),
    which is linear in alpha; marginal invariance makes the denominator
    alpha-free, so the alpha-dependence sits entirely in d + tau.
    """
    check = validate_cs({n}, spec.lambda2, spec.nu2)
    if not check:
        raise DomainError(check.message)
    d, tau = derive_d_tau(spec.lambda2, spec.nu2, spec.alpha)
    return n * (d + tau) / (spec.nu2 + n * (d + 2.0 * tau))


def psd_slack(spec: ExtendedSpec) -> float:
    """Slack d*sigma2 - tau^2 of the pairwise PSD condition; zero at |alpha| = 1."""
    d, tau = derive_d_tau(spec.lambda2, spec.nu2, spec.alpha)
    return d * spec.nu2 - tau * tau
