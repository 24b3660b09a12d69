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

The scalars are plain Python; numpy is imported only by the functions that
return arrays, so eb and equivalence never load it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from unobs_lab.cs import CSMatrix, DomainError, validate_cs

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import numpy as np

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


class SpecA(namedtuple("SpecA", "lambda2 nu1sq nu2sq")):
    """Random intercept (variance lambda2) with heterogeneous errors, n = 2."""

    __slots__ = ()

    def __new__(cls, lambda2: float, nu1sq: float, nu2sq: float):
        if lambda2 < 0:
            raise DomainError("lambda2 must be >= 0")
        if not (nu1sq > 0 and nu2sq > 0):
            raise DomainError("error variances must be strictly positive")
        return super().__new__(cls, lambda2, nu1sq, nu2sq)


class SpecB(namedtuple("SpecB", "lambda1sq lambda2sq nusq")):
    """Uncorrelated intercept+slope random effects with homogeneous error, n = 2.

    lambda2sq may be negative so that the image of map_a_to_b is always
    representable; is_valid_hierarchy reports whether a real hierarchy exists.
    """

    __slots__ = ()

    def __new__(cls, lambda1sq: float, lambda2sq: float, nusq: float):
        if lambda1sq < 0:
            raise DomainError("lambda1sq must be >= 0")
        if not nusq > 0:
            raise DomainError("nusq must be strictly positive")
        return super().__new__(cls, lambda1sq, lambda2sq, nusq)

    @property
    def is_valid_hierarchy(self) -> bool:
        return self.lambda2sq >= 0


def v1_matrix(spec: SpecA) -> np.ndarray:
    """2x2 marginal covariance of the heterogeneous-errors model."""
    import numpy as np

    l2, n1, n2 = spec.lambda2, spec.nu1sq, spec.nu2sq
    return np.array([[l2 + n1, l2], [l2, l2 + n2]])


def v2_matrix(spec: SpecB) -> np.ndarray:
    """2x2 marginal covariance of the intercept+slope model."""
    import numpy as np

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


class ExtendedSpec(namedtuple("ExtendedSpec", "lambda2 nu2 alpha d tau")):
    """Correlated random-intercept model indexed by alpha in [-1, 1].

    (lambda2, nu2) are the marginal compound-symmetry parameters; d and tau
    are derived at construction by derive_d_tau, which also validates all
    three. _replace, _make, copy and pickle go through __new__ too, so d and
    tau always match alpha: _replace refuses d and tau, _make takes three values.
    """

    __slots__ = ()

    def __new__(cls, lambda2: float, nu2: float, alpha: float):
        return super().__new__(cls, lambda2, nu2, alpha, *derive_d_tau(lambda2, nu2, alpha))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields[:3], self), **changes))

    def __getnewargs__(self):
        return self[:3]

    @property
    def s(self) -> float:
        return math.sqrt(self.lambda2 + self.nu2)


class DecompRow(namedtuple("DecompRow", "quantity sigma2_part d_part two_tau_part")):
    """One row, quantity "variance" or "covariance", of its split into sigma2, d, 2*tau."""

    __slots__ = ()

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
    import numpy as np

    if n < 1:
        raise ValueError("n must be >= 1")
    c = spec.nu2 * np.eye(n + 1)
    c[0, 0] = spec.d
    c[0, 1:] = c[1:, 0] = spec.tau
    return c


class ConditionalErrorDist(namedtuple("ConditionalErrorDist", "mean cov")):
    """Gaussian law of the error vector given the random intercept; mean is read-only."""

    __slots__ = ()

    def __new__(cls, mean, cov: CSMatrix):
        import numpy as np

        mean = np.array(mean, dtype=float)
        mean.flags.writeable = False
        return super().__new__(cls, mean, cov)


def conditional_error_dist(spec: ExtendedSpec, b: float, n: int) -> ConditionalErrorDist:
    """Distribution of the errors given the random intercept value b.

    Mean (tau*b/d) * 1_n, covariance sigma2*I - (tau^2/d)*J; singular exactly
    at |alpha| = 1 (the PSD slack d*sigma2 - tau^2 vanishes there).
    """
    import numpy as np

    if n < 1:
        raise ValueError("n must be >= 1")
    d, tau = spec.d, spec.tau
    if d == 0.0:
        raise DomainError(
            "random intercept is a point mass (d = 0); conditioning degenerate"
        )
    mean = np.full(n, tau * b / d)
    return ConditionalErrorDist(mean=mean, cov=CSMatrix(n, -(tau * tau / d), spec.nu2))


def marginal_cov_extended(spec: ExtendedSpec, n: int) -> CSMatrix:
    """Implied marginal covariance (d + 2*tau)*J + sigma2*I; alpha-invariant."""
    return CSMatrix(n, spec.d + 2.0 * spec.tau, spec.nu2)


def eb_shrinkage(spec: ExtendedSpec, n: int) -> float:
    """Empirical-Bayes shrinkage: E(b_i | Y_i) = c * (ybar_i - xbar_i' xi).

    Gaussian conditioning of b on Y gives c = n*(d+tau) / (sigma2 + n*(d+2*tau)),
    which is linear in alpha; marginal invariance makes the denominator
    alpha-free, so the alpha-dependence sits entirely in d + tau.
    """
    validate_cs({n}, spec.lambda2, spec.nu2)
    d, tau = spec.d, spec.tau
    return n * (d + tau) / (spec.nu2 + n * (d + 2.0 * tau))


def psd_slack(spec: ExtendedSpec) -> float:
    """Slack d*sigma2 - tau^2 of the pairwise PSD condition; zero at |alpha| = 1."""
    return spec.d * spec.nu2 - spec.tau * spec.tau
