"""Weibull-gamma hierarchy and its exponential-constraint reductions.

Integrating a Weibull outcome (rate scale phi = lam*exp(mu), shape rho) over
an exponential frailty with rate delta gives the Weibull-exponential family

    f(y) = phi * rho * y^(rho-1) * delta / (delta + phi*y^rho)^2
    F(y) = 1 - delta / (delta + phi*y^rho)
    E(Y^k) = (k/rho) * (delta/phi)^(k/rho) * Gamma(1 - k/rho) * Gamma(k/rho)

The k-th moment integral is finite iff k < rho; the moment formula itself is
additionally undefined when k/rho is a positive integer (Gamma pole). At
rho = 1 (exponential-exponential) no moment is finite: a Cauchy-type family.
MomentResult keeps the two facts separate instead of collapsing them.

Moments and pole checks are plain Python; numpy and the rng are imported
only by the functions that take arrays or draw samples, and scipy only by
truncated_moment, so heavytail moments never loads them. pit_sample takes
ndtr from unobs_lab.special, bit-equal to scipy.special.ndtr.

we_sample and running_mean_trace share one block path: BLOCK uniforms at a
time, drawn into reused buffers and mapped through the quantile. we_sample
fills its output block by block, so it peaks at the output plus two blocks
(1.07 outputs at 1e6 draws; it was 2). running_mean_trace carries the
running sum from block to block and keeps every stride-th sum only: 0.30 x
8N bytes at N = 1e6, stride 10, where it held all N draws and sums before
(2.0 x 8N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from unobs_lab.cs import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WeibullGammaSpec",
    "WeibullExpSpec",
    "MomentResult",
    "QuadratureError",
    "wg_sample",
    "wg_moment_defined",
    "we_pdf",
    "we_cdf",
    "we_quantile",
    "we_sample",
    "we_moment",
    "truncated_moment",
    "running_mean_trace",
    "pit_sample",
]

POLE_TOL = 1e-9
BLOCK = 1 << 15  # draws per block of we_sample and running_mean_trace
FRAILTY_TOL = 4 * 2.0**-52  # a few ulps of 1: 49 * (1/49) is 1 - 2**-53

CONSTRAINT_MODES = ("frailty", "bayarri", "free")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeibullGammaSpec:
    """Weibull outcomes with independent gamma frailties per component.

    Component j has frailty theta_j ~ Gamma(shape alpha_g[j], scale beta_g[j])
    and conditional survival exp(-lam * y^rho * theta_j * exp(x_j' xi)).

    constraint_mode:
      * "frailty": alpha_g[j] * beta_g[j] = 1 (unit-mean frailty), up to
        FRAILTY_TOL for the rounding of a product such as 49 * (1/49),
      * "bayarri": alpha_g[j] = 1, beta_g[j] = 1/delta_j (exponential frailty),
      * "free": both parameters unconstrained. In free mode alpha_g and
        beta_g are not jointly identifiable with an intercept in xi; this is
        surfaced via aliasing_warning, not rejected.
    """

    lam: float
    rho: float
    xi: np.ndarray
    x: np.ndarray  # (m, p): covariate row per component
    alpha_g: np.ndarray
    beta_g: np.ndarray
    constraint_mode: str = "frailty"

    def __post_init__(self):
        import numpy as np

        if not (self.lam > 0 and self.rho > 0):
            raise DomainError("lam and rho must be strictly positive")
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        a = np.atleast_1d(np.asarray(self.alpha_g, dtype=float))
        b = np.atleast_1d(np.asarray(self.beta_g, dtype=float))
        if x.shape[1] != len(xi):
            raise ValueError("covariate rows must match the length of xi")
        m = x.shape[0]
        if len(a) != m or len(b) != m:
            raise ValueError("alpha_g and beta_g must have one entry per component")
        if not (np.all(a > 0) and np.all(b > 0)):
            raise DomainError("gamma parameters must be strictly positive")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(f"constraint_mode must be one of {CONSTRAINT_MODES}")
        if self.constraint_mode == "frailty" and not np.all(abs(a * b - 1.0) <= FRAILTY_TOL):
            raise DomainError(
                f"frailty mode requires |alpha_g * beta_g - 1| <= {FRAILTY_TOL!r}"
            )
        if self.constraint_mode == "bayarri" and not np.all(a == 1.0):
            raise DomainError("bayarri mode requires alpha_g = 1")
        for name, val in (("xi", xi), ("x", x), ("alpha_g", a), ("beta_g", b)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)

    @property
    def n_components(self) -> int:
        return self.x.shape[0]

    @property
    def aliasing_warning(self) -> bool:
        """True when alpha_g/beta_g can trade off against an intercept in xi."""
        return self.constraint_mode == "free" and len(self.xi) > 0


@dataclass(frozen=True)
class WeibullExpSpec:
    """Single-outcome Weibull-exponential parameters (phi, rho, delta)."""

    phi: float
    rho: float
    delta: float

    def __post_init__(self):
        if not (self.phi > 0 and self.rho > 0 and self.delta > 0):
            raise DomainError("phi, rho, delta must all be strictly positive")

    @classmethod
    def from_weibull(cls, lam: float, rho: float, delta: float, mu: float = 0.0):
        """Build from Weibull scale lam and linear predictor mu: phi = lam*e^mu."""
        return cls(phi=lam * math.exp(mu), rho=rho, delta=delta)


@dataclass(frozen=True)
class MomentResult:
    """Tri-state outcome of evaluating E(Y^k).

    formula_defined: the Gamma arguments avoid non-positive integers.
    integral_finite: the defining integral converges (k < rho).
    value: present iff integral_finite.
    """

    k: int
    formula_defined: bool
    integral_finite: bool
    value: Optional[float] = None

    def __post_init__(self):
        if self.integral_finite and not self.formula_defined:
            raise ValueError("finite integral implies a defined formula")
        if (self.value is not None) != self.integral_finite:
            raise ValueError("value must be present exactly when the integral is finite")
        if self.value is not None and not self.value > 0:
            raise ValueError("moments of a positive variable must be positive")


# ---------------------------------------------------------------------------
# Pole detection
# ---------------------------------------------------------------------------


def _near_nonpositive_integer(x: float, tol: float = POLE_TOL) -> bool:
    return x < 0.5 and abs(x - round(x)) <= tol


def wg_moment_defined(alpha_g: float, rho: float, k: int) -> bool:
    """Whether Gamma(alpha_g - k/rho) in the general moment avoids a pole."""
    if not (alpha_g > 0 and rho > 0 and k > 0):
        raise DomainError("alpha_g, rho, k must be positive")
    return not _near_nonpositive_integer(alpha_g - k / rho)


# ---------------------------------------------------------------------------
# Weibull-exponential distribution
# ---------------------------------------------------------------------------


def we_pdf(spec: WeibullExpSpec, y):
    """Density phi*rho*y^(rho-1)*delta / (delta + phi*y^rho)^2 for y >= 0.

    At y = 0 with rho < 1 the density diverges; +inf is returned as a
    documented sentinel.
    """
    import numpy as np

    phi, rho, delta = spec.phi, spec.rho, spec.delta
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("support is y >= 0")
    with np.errstate(divide="ignore"):
        out = phi * rho * y ** (rho - 1.0) * delta / (delta + phi * y**rho) ** 2
    return float(out) if out.ndim == 0 else out


def we_cdf(spec: WeibullExpSpec, y):
    """CDF 1 - delta / (delta + phi*y^rho) for y >= 0."""
    import numpy as np

    phi, rho, delta = spec.phi, spec.rho, spec.delta
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("support is y >= 0")
    out = 1.0 - delta / (delta + phi * y**rho)
    return float(out) if out.ndim == 0 else out


def we_quantile(spec: WeibullExpSpec, u):
    """Quantile (delta*u / (phi*(1-u)))^(1/rho), u in (0,1) exclusive."""
    import numpy as np

    u = np.asarray(u, dtype=float)
    if np.any(u <= 0) or np.any(u >= 1):
        raise DomainError("u must lie strictly inside (0, 1)")
    out = _quantile(spec, u, np.empty_like(u), np.empty_like(u))
    return float(out) if out.ndim == 0 else out


def _quantile(spec: WeibullExpSpec, u: np.ndarray, out: np.ndarray, t: np.ndarray):
    """we_quantile of u written to out, with t (u's shape) as scratch; u is kept.

    Where the quantile overflows the result is inf, without a warning; the
    samplers refuse it by name (_non_finite).
    """
    import numpy as np

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.subtract(1.0, u, out=t)
        t *= spec.phi
        np.multiply(u, spec.delta, out=out)
        out /= t
        out **= 1.0 / spec.rho
    return out


def _non_finite(u: float):
    raise ArithmeticError(f"quantile returned a non-finite value at u = {float(u)!r}")


def _quantile_blocks(spec: WeibullExpSpec, n_draws: int, seed: int, out=None):
    """Yield (start, q), q the quantiles of draws start, ..., start + len(q) - 1.

    The uniforms of substream (seed, 0) are drawn BLOCK at a time into a
    reused buffer, the same stream as one call for all n_draws, and clipped
    into the open interval (the endpoints have probability zero). q is a
    slice of out when out is given, else a reused buffer the caller may
    overwrite. Raises ArithmeticError, naming the first u, where the
    quantile is not finite.
    """
    import numpy as np

    from unobs_lab.rng import substream

    rng = substream(seed, 0)
    size = min(BLOCK, n_draws)
    u, t = np.empty(size), np.empty(size)
    buf = np.empty(size) if out is None else None
    for start in range(0, n_draws, BLOCK):
        m = min(BLOCK, n_draws - start)
        ub = rng.random(m, out=u[:m])
        np.clip(ub, 1e-300, 1.0 - 1e-16, out=ub)
        q = buf[:m] if out is None else out[start : start + m]
        _quantile(spec, ub, q, t[:m])
        if not np.isfinite(q.max()):
            _non_finite(ub[np.argmax(~np.isfinite(q))])
        yield start, q


def we_sample(spec: WeibullExpSpec, n_draws: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampler; deterministic per seed.

    Fills its output block by block, so its peak memory is the output plus
    two blocks. Raises ArithmeticError, naming the first u, where the
    quantile is not finite (e.g. phi = 1e-300 with rho = 0.01), as
    pit_sample does.
    """
    import numpy as np

    draws = np.empty(n_draws)
    for _ in _quantile_blocks(spec, n_draws, seed, out=draws):
        pass
    return draws


def we_moment(spec: WeibullExpSpec, k: int) -> MomentResult:
    """Analytic k-th moment with pole and divergence detection.

    value = (k/rho)*(delta/phi)^(k/rho)*Gamma(1-k/rho)*Gamma(k/rho), reported
    only when the integral is actually finite (k < rho). Then r = k/rho lies
    in (0, 1), where the reflection formula gives Gamma(1-r)*Gamma(r) =
    pi/sin(pi*r).
    """
    if k < 1:
        raise DomainError("moment order k must be a positive integer")
    phi, rho, delta = spec.phi, spec.rho, spec.delta
    r = k / rho
    formula_defined = not _near_nonpositive_integer(1.0 - r)
    integral_finite = k < rho and formula_defined
    value = None
    if integral_finite:
        value = r * (delta / phi) ** r * math.pi / math.sin(math.pi * r)
    return MomentResult(
        k=k,
        formula_defined=formula_defined,
        integral_finite=integral_finite,
        value=value,
    )


def truncated_moment(spec: WeibullExpSpec, k: int, T: float) -> float:
    """Quadrature of the truncated moment integral over [0, T], abs tol 1e-10.

    Substituting u = phi*y^rho/delta turns y^k f(y) dy into
    (delta*u/phi)^(k/rho) (1+u)^-2 du, which removes the y = 0 singularity
    for rho < 1. The range is split into geometric panels so huge T (slowly
    decaying integrands) stays accurate.
    """
    if not T > 0:
        raise DomainError("T must be strictly positive")
    if k < 1:
        raise DomainError("moment order k must be a positive integer")
    from scipy.integrate import quad

    phi, rho, delta = spec.phi, spec.rho, spec.delta
    r = k / rho
    c = (delta / phi) ** r

    def g(u: float) -> float:
        return c * u**r / (1.0 + u) ** 2

    upper = phi * T**rho / delta
    cuts = [0.0]
    edge = 1.0
    while edge < upper:
        cuts.append(edge)
        edge *= 10.0
    cuts.append(upper)

    total = 0.0
    err = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, abserr = quad(g, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
        total += val
        err += abserr
    if err > 1e-10:
        raise QuadratureError(
            f"quadrature reached absolute tolerance {err:.3e} > 1e-10"
        )
    return total


def running_mean_trace(
    spec: WeibullExpSpec, N: int, stride: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Running sample mean at n = stride, 2*stride, ..., N: arrays (n, mean).

    The draws are we_sample's, summed block by block with the running sum
    carried across blocks; cumsum adds in order, so the sums have the bits
    of one cumsum over all N draws. Only every stride-th sum is kept.

    No convergence is implied for rho <= 1: the trace exists to show the
    heavy-tail jumps of a mean that does not exist. Raises ArithmeticError
    where we_sample does.
    """
    import numpy as np

    if not 1 <= stride <= N:
        raise DomainError("need N >= stride >= 1")
    n = np.arange(stride, N + 1, stride)
    sums = np.empty(len(n))
    carry = 0.0
    for start, q in _quantile_blocks(spec, N, seed):
        q[0] += carry
        np.cumsum(q, out=q)
        carry = q[-1]
        # the sums at n = (k + 1) * stride, k0 <= k < k1, end in this block
        k0, k1 = start // stride, (start + len(q)) // stride
        sums[k0:k1] = q[(k0 + 1) * stride - 1 - start :: stride]
    sums /= n
    return n, sums


# ---------------------------------------------------------------------------
# Samplers for the hierarchy and the probability integral transform
# ---------------------------------------------------------------------------


def wg_sample(spec: WeibullGammaSpec, n_draws: int, seed: int) -> list[np.ndarray]:
    """Sample each component of the Weibull-gamma model; one array per component.

    Per draw: theta_j ~ Gamma(alpha_j, beta_j), then Y_j from the conditional
    survival S(y) = exp(-lam * y^rho * theta_j * e^(x_j' xi)) by inverse
    survival: y = (-log u / (lam * theta_j * e^(x_j' xi)))^(1/rho).
    """
    import numpy as np

    from unobs_lab.rng import substream

    out = []
    for j in range(spec.n_components):
        rng = substream(seed, j)
        theta = rng.gamma(shape=spec.alpha_g[j], scale=spec.beta_g[j], size=n_draws)
        u = np.clip(rng.random(n_draws), 1e-300, 1.0 - 1e-16)
        rate = spec.lam * theta * math.exp(float(spec.x[j] @ spec.xi))
        out.append((-np.log(u) / rate) ** (1.0 / spec.rho))
    return out


def pit_sample(
    quantile: Callable[[np.ndarray], np.ndarray], n_draws: int, seed: int
) -> np.ndarray:
    """Probability-integral-transform sampler: F^-1(ndtr(a)), a standard normal.

    ndtr (unobs_lab.special) runs in place over the normals, a block at a time.

    quantile is vectorised: it maps the array of probabilities to an array
    of the same shape.
    """
    import numpy as np

    from unobs_lab.rng import substream
    from unobs_lab.special import ndtr

    rng = substream(seed, 0)
    u = rng.standard_normal(n_draws)  # overwritten: normals, then probabilities
    ndtr(u, out=u)
    np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
    vals = np.asarray(quantile(u), dtype=float)
    if vals.shape != u.shape:
        raise TypeError(
            f"quantile returned shape {vals.shape} for probabilities of shape {u.shape}"
        )
    bad = ~np.isfinite(vals)
    if np.any(bad):
        _non_finite(u[bad][0])
    return vals
