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
  alpha and so exposes the sensitivity hidden by marginal invariance, and
  admissible(spec, n): a hierarchy for clusters of n, d*sigma2 >= n*tau^2.

The scalars are plain Python; numpy is imported only by the functions that
return arrays, so eb and equivalence never load it.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from unobs_lab.cs import CSMatrix, DomainError, require_finite, validate_cs

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SpecA",
    "SpecB",
    "ExtendedSpec",
    "DecompRow",
    "v1_matrix",
    "v2_matrix",
    "map_a_to_b",
    "derive_d_tau",
    "decomposition_table",
    "joint_cov",
    "intercept_given_y",
    "marginal_cov_extended",
    "eb_shrinkage",
    "psd_slack",
    "least_eigenvalue",
    "admissible",
]
EPS = 2.0**-52  # the spacing of floats at 1


# ---------------------------------------------------------------------------
# The two-measurement equivalence pair (n = 2)
# ---------------------------------------------------------------------------


class SpecA(namedtuple("SpecA", "lambda2 nu1sq nu2sq")):
    """Random intercept (variance lambda2) with heterogeneous errors, n = 2."""

    __slots__ = ()

    def __new__(cls, lambda2: float, nu1sq: float, nu2sq: float):
        if lambda2 < 0:
            raise DomainError(f"lambda2 must be >= 0: lambda2 = {lambda2}")
        for name, value in (("nu1sq", nu1sq), ("nu2sq", nu2sq)):
            if not value > 0:
                raise DomainError(f"error variances must be strictly positive: {name} = {value}")
        return super().__new__(cls, lambda2, nu1sq, nu2sq)


class SpecB(namedtuple("SpecB", "lambda1sq lambda2sq nusq")):
    """Uncorrelated intercept+slope random effects with homogeneous error, n = 2.

    lambda2sq may be negative so that the image of map_a_to_b is always
    representable; is_valid_hierarchy reports whether a real hierarchy exists.
    """

    __slots__ = ()

    def __new__(cls, lambda1sq: float, lambda2sq: float, nusq: float):
        if lambda1sq < 0:
            raise DomainError(f"lambda1sq must be >= 0: lambda1sq = {lambda1sq}")
        if not nusq > 0:
            raise DomainError(f"nusq must be strictly positive: nusq = {nusq}")
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
    alpha in [-1, 1]. Both are derived at the unit scale (_unit) and scaled back,
    so each is finite wherever its value fits in a float.
    """
    if not nu2 > 0:
        raise DomainError(f"nu2 = {nu2} must be strictly positive")
    if not lambda2 + nu2 > 0:
        raise DomainError(f"lambda2 + nu2 = {lambda2 + nu2} must be positive")
    if not -1.0 <= alpha <= 1.0:
        raise DomainError(f"alpha = {alpha} outside the admissible box [-1, 1]")
    require_finite(lambda2=lambda2, nu2=nu2)
    (*_, d, tau), k = _unit(lambda2, nu2, alpha)
    return _ldexp(d, -2 * k), _ldexp(tau, -2 * k)


class ExtendedSpec(namedtuple("ExtendedSpec", "lambda2 nu2 alpha")):
    """Correlated random-intercept model indexed by alpha in [-1, 1].

    (lambda2, nu2) are the marginal compound-symmetry parameters; d and tau
    are derived from the three fields on each read by derive_d_tau, which
    __new__ runs to validate them. _replace, _make, copy and pickle go through
    __new__ too, so no public path skips the checks.
    """

    __slots__ = ()

    def __new__(cls, lambda2: float, nu2: float, alpha: float):
        derive_d_tau(lambda2, nu2, alpha)
        return super().__new__(cls, lambda2, nu2, alpha)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(**dict(self._asdict(), **changes))

    d = property(lambda self: derive_d_tau(*self)[0])
    tau = property(lambda self: derive_d_tau(*self)[1])


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
    """(n+1)-dimensional covariance of (b, eps_1, ..., eps_n): the dense oracle."""
    import numpy as np

    if n < 1:
        raise ValueError(f"n must be >= 1: n = {n}")
    c = spec.nu2 * np.eye(n + 1)
    c[0, 0] = spec.d
    c[0, 1:] = c[1:, 0] = spec.tau
    return c


def marginal_cov_extended(spec: ExtendedSpec, n: int) -> CSMatrix:
    """Implied marginal covariance (d + 2*tau)*J + sigma2*I; alpha-invariant."""
    return CSMatrix(n, spec.d + 2.0 * spec.tau, spec.nu2)


def intercept_given_y(spec: ExtendedSpec, n: int) -> tuple[float, float]:
    """Law of a cluster's intercept given its n values: b | y ~ N(c*(ybar - mu), v).

    Gaussian conditioning of b on y gives c = n*(d+tau)/m and v = psd_slack(spec, n)/m,
    m = sigma2 + n*(d+2*tau): marginal invariance makes m alpha-free, so c is linear in
    alpha, and v >= 0 is the PSD condition of the joint of (b, eps). Where m is not
    positive ybar is a constant, so b given y has its marginal law: c = 0 and v = d.
    Both are computed at the unit scale (_unit), so v neither under- nor overflows. Where
    _unit keeps a subnormal nu2 at its own scale, n*lambda2 may pass the floats; m is then
    divided through by n, so c is still about 1 and v a subnormal or 0.
    """
    unit, k = _unit(*spec)
    _, nu2, _, d, tau = unit
    m = nu2 + n * (d + 2.0 * tau)
    if not m > 0:
        return 0.0, spec.d
    if m == math.inf:
        m = nu2 / n + (d + 2.0 * tau)
        return (d + tau) / m, _ldexp(_slack(unit, n) / n / m, -2 * k)
    return n * (d + tau) / m, _ldexp(_slack(unit, n) / m, -2 * k)


def eb_shrinkage(spec: ExtendedSpec, n: int) -> float:
    """Empirical-Bayes shrinkage: E(b_i | Y_i) = c * (ybar_i - xbar_i' xi).

    c is intercept_given_y's, on a marginal that validate_cs accepts.
    """
    validate_cs({n}, spec.lambda2, spec.nu2)
    return intercept_given_y(spec, n)[0]


def psd_slack(spec: ExtendedSpec, n: int = 1) -> float:
    """d*sigma2 - n*tau^2, with the sign of the least eigenvalue of joint_cov(spec, n).

    Its n = 1 part, d*sigma2 - tau^2, is written so that it does not cancel: it is 0
    at |alpha| = 1. It is computed at the unit scale (_unit) and scaled back, so a slack
    too small or too large for a float is a zero or an infinity of the right sign.
    """
    unit, k = _unit(*spec)
    return _ldexp(_slack(unit, n), -4 * k)


def least_eigenvalue(spec: ExtendedSpec, n: int) -> float:
    """The least eigenvalue of joint_cov(spec, n), in closed form at the unit scale (_unit).

    joint_cov has the eigenvalues nu2 (n - 1 times) and the two of
    [[d, tau*sqrt(n)], [tau*sqrt(n), nu2]]: top and psd_slack(spec, n)/top.
    """
    unit, k = _unit(*spec)
    _, nu2, _, d, tau = unit
    top = (d + nu2) / 2 + math.hypot((d - nu2) / 2, tau * math.sqrt(n))
    low = _slack(unit, n) / top
    return _ldexp(min(low, nu2) if n > 1 else low, -2 * k)


def admissible(spec: ExtendedSpec, n: int) -> bool:
    """Whether (b, eps_1..eps_n) has a law: psd_slack(spec, n) >= 0 up to its rounding.

    The forward error of psd_slack to first order in u = EPS/2, with lambda2, nu2 and
    alpha exact (Higham 2002, ch. 3): its first term takes 6 roundings, so is off by at
    most 6u*a, a = nu2*(lambda2 + nu2); tau takes 6 (nu 1, s 2, two products, one sum),
    so is off by at most 6u*t, t = nu2 + nu*|alpha|*s >= |tau|, and (n - 1)*tau*tau by at
    most 14u*(n - 1)*(|tau| + t)*t; the subtraction adds u*M, M = a + (n - 1)*(|tau| + t)*t.
    That is 7.5*EPS*M; 16*EPS*M covers the higher orders and M's own rounding, so no
    alpha that exact arithmetic admits is refused. The bound cannot be 0: tau carries
    rounding where it is 0 exactly, 1.7e-18 at the point mass ExtendedSpec(0, 0.01, -1).
    Slack and bound are both tested at the unit scale (_unit), where neither under- nor
    overflows, so the decision does not depend on the scale of (lambda2, nu2).
    """
    unit, _ = _unit(*spec)
    lambda2, nu2, alpha, _, tau = unit
    t = nu2 + math.sqrt(nu2) * abs(alpha) * math.sqrt(lambda2 + nu2)
    bound = 16.0 * EPS * (nu2 * (lambda2 + nu2) + (n - 1) * (abs(tau) + t) * t)
    return _slack(unit, n) >= -bound


def _slack(unit: tuple, n: int) -> float:
    """psd_slack's formula on _unit's (lambda2, nu2, alpha, d, tau), at their own scale."""
    lambda2, nu2, alpha, _, tau = unit
    return nu2 * (lambda2 + nu2) * ((1.0 - alpha) * (1.0 + alpha)) - (n - 1) * tau * tau


def _unit(lambda2: float, nu2: float, alpha: float) -> tuple[tuple, int]:
    """(lambda2, nu2, alpha, d, tau) with (lambda2, nu2) times 4^k, the larger of |lambda2|
    and nu2 put in [0.5, 2), and d and tau derived at that scale; k.

    The slack and its rounding bound are homogeneous of degree 2 in (lambda2, nu2), and
    d, tau and v of degree 1. Scaling by 4^k moves nu and s, and so every intermediate,
    by an exact power of two; so where none of them is subnormal or infinite at the input's
    own scale (every ordinary scale), the results keep their bits, and d and tau are
    derived where lambda2 + nu2 and the rest cannot overflow.
    Where that k would take nu2 below the normal floats (lambda2 over 2^1020 times nu2),
    nu2 would lose bits, and its root is the factor of s in tau. So k puts nu2 near 2^-1000
    instead, or lowers it so that lambda2 is at most 2^512, but never puts nu2 below its own
    exact scale: the slack, about nu2*lambda2, then fits at any such ratio. A subnormal nu2
    thus keeps the input's own scale (k = 0) whatever lambda2, up to the float maximum.
    """
    k = -(math.frexp(max(abs(lambda2), nu2))[1] // 2)
    e = math.frexp(nu2)[1]
    if e + 2 * k < -1021:
        k_max = (512 - math.frexp(lambda2)[1]) // 2
        k = max(min(-((e + 1000) // 2), k_max), min(0, -((e + 1021) // 2)))
    lambda2, nu2 = math.ldexp(lambda2, 2 * k), math.ldexp(nu2, 2 * k)
    nu, s = math.sqrt(nu2), math.sqrt(lambda2 + nu2)
    if alpha and abs(nu * alpha) < sys.float_info.min:  # nu*alpha underflows: scale alpha out
        m, e = math.frexp(alpha)
        nas = math.ldexp(nu * m * s, e)
        d, tau = lambda2 + 2.0 * nu2 + 2.0 * nas, -(nu2 + nas)
    else:
        d = lambda2 + 2.0 * nu2 + 2.0 * nu * alpha * s
        tau = -(nu2 + nu * alpha * s)
    # d = (s + nu*alpha)^2 + nu2*(1 - alpha^2); clamp roundoff at alpha = -1
    return (lambda2, nu2, alpha, max(d, 0.0), tau), k


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, rounded once; an overflow is an infinity of x's sign."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)
