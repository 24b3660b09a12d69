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

we_sample, running_mean_trace and pit_sample share one block loop: BLOCK
probabilities at a time (uniforms, or ndtr of normals for pit_sample) drawn
into a reused buffer, clipped, mapped through the quantile and checked for
non-finite values. The quantile therefore sees one block at a time and must
be elementwise. we_sample and pit_sample fill their output block by block, so
they peak at the output plus a few blocks (1.07 and 1.19 outputs at 1e6
draws). running_mean_trace carries the running sum from block to block and
keeps every stride-th sum only: 0.30 x 8N bytes at N = 1e6, stride 10.
"""

from __future__ import annotations

import math
from collections import namedtuple

from unobs_lab.cs import DomainError

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import Callable

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
BLOCK = 1 << 15  # draws per block of every sampler but wg_sample
FRAILTY_TOL = 4 * 2.0**-52  # a few ulps of 1: 49 * (1/49) is 1 - 2**-53

CONSTRAINT_MODES = ("frailty", "bayarri", "free")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


class WeibullGammaSpec(
    namedtuple("WeibullGammaSpec", "lam rho xi x alpha_g beta_g constraint_mode")
):
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

    x holds one covariate row per component, shape (m, p). xi, x, alpha_g and
    beta_g are held as read-only float copies.
    """

    __slots__ = ()

    def __new__(cls, lam: float, rho: float, xi, x, alpha_g, beta_g,
                constraint_mode: str = "frailty"):
        import numpy as np

        if not (lam > 0 and rho > 0):
            raise DomainError("lam and rho must be strictly positive")
        xi = np.array(xi, dtype=float, ndmin=1)  # copies: the caller's arrays stay writable
        x = np.array(x, dtype=float, ndmin=2)
        a = np.array(alpha_g, dtype=float, ndmin=1)
        b = np.array(beta_g, dtype=float, ndmin=1)
        if x.shape[1] != len(xi):
            raise ValueError("covariate rows must match the length of xi")
        m = x.shape[0]
        if len(a) != m or len(b) != m:
            raise ValueError("alpha_g and beta_g must have one entry per component")
        if not (np.all(a > 0) and np.all(b > 0)):
            raise DomainError("gamma parameters must be strictly positive")
        if constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(f"constraint_mode must be one of {CONSTRAINT_MODES}")
        if constraint_mode == "frailty" and not np.all(abs(a * b - 1.0) <= FRAILTY_TOL):
            raise DomainError(
                f"frailty mode requires |alpha_g * beta_g - 1| <= {FRAILTY_TOL!r}"
            )
        if constraint_mode == "bayarri" and not np.all(a == 1.0):
            raise DomainError("bayarri mode requires alpha_g = 1")
        for val in (xi, x, a, b):
            val.flags.writeable = False
        return super().__new__(cls, lam, rho, xi, x, a, b, constraint_mode)

    @property
    def n_components(self) -> int:
        return self.x.shape[0]

    @property
    def aliasing_warning(self) -> bool:
        """True when alpha_g/beta_g can trade off against an intercept in xi."""
        return self.constraint_mode == "free" and len(self.xi) > 0


class WeibullExpSpec(namedtuple("WeibullExpSpec", "phi rho delta")):
    """Single-outcome Weibull-exponential parameters (phi, rho, delta)."""

    __slots__ = ()

    def __new__(cls, phi: float, rho: float, delta: float):
        if not (phi > 0 and rho > 0 and delta > 0):
            raise DomainError("phi, rho, delta must all be strictly positive")
        return super().__new__(cls, phi, rho, delta)

    @classmethod
    def from_weibull(cls, lam: float, rho: float, delta: float, mu: float = 0.0):
        """Build from Weibull scale lam and linear predictor mu: phi = lam*e^mu."""
        return cls(phi=lam * math.exp(mu), rho=rho, delta=delta)


class MomentResult(namedtuple("MomentResult", "k formula_defined integral_finite value")):
    """Tri-state outcome of evaluating E(Y^k).

    formula_defined: the Gamma arguments avoid non-positive integers.
    integral_finite: the defining integral converges (k < rho).
    value: present iff integral_finite.
    """

    __slots__ = ()

    def __new__(cls, k: int, formula_defined: bool, integral_finite: bool,
                value: float | None = None):
        if integral_finite and not formula_defined:
            raise ValueError("finite integral implies a defined formula")
        if (value is not None) != integral_finite:
            raise ValueError("value must be present exactly when the integral is finite")
        if value is not None and not value > 0:
            raise ValueError("moments of a positive variable must be positive")
        return super().__new__(cls, k, formula_defined, integral_finite, value)


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
    out = _quantile(spec, u, np.empty_like(u))
    return float(out) if out.ndim == 0 else out


def _quantile(spec: WeibullExpSpec, u: np.ndarray, out: np.ndarray):
    """we_quantile of u written to out; u is kept.

    Where the quantile overflows the result is inf, without a warning; the
    samplers refuse it by name (_non_finite).
    """
    import numpy as np

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.multiply(u, spec.delta, out=out)
        out /= (1.0 - u) * spec.phi
        out **= 1.0 / spec.rho
    return out


def _non_finite(u: float):
    raise ArithmeticError(f"quantile returned a non-finite value at u = {float(u)!r}")


def _uniforms(rng, u: np.ndarray) -> np.ndarray:
    return rng.random(out=u)


def _blocks(n_draws: int, seed: int, probabilities, quantile, out=None):
    """Yield (start, q), q the quantiles of draws start, ..., start + len(q) - 1.

    probabilities(rng, u) fills u, a reused buffer of at most BLOCK entries,
    from substream (seed, 0) and returns it; numpy's generators give the same
    stream drawn a block at a time as in one call for all n_draws. The block
    is clipped into the open interval (the endpoints have probability zero)
    and quantile(u, q) writes its quantiles to q, a slice of out when out is
    given, else a reused buffer the caller may overwrite. Raises
    ArithmeticError, naming the first u, where the quantile is not finite.
    """
    import numpy as np

    from unobs_lab.rng import substream

    rng = substream(seed, 0)
    u = np.empty(min(BLOCK, n_draws))
    buf = np.empty_like(u) if out is None else None
    for start in range(0, n_draws, BLOCK):
        m = min(BLOCK, n_draws - start)
        ub = probabilities(rng, u[:m])
        np.clip(ub, 1e-300, 1.0 - 1e-16, out=ub)
        q = buf[:m] if out is None else out[start : start + m]
        quantile(ub, q)
        if not np.isfinite(q.max()):
            _non_finite(ub[np.argmax(~np.isfinite(q))])
        yield start, q


def _fill(n_draws: int, seed: int, probabilities, quantile) -> np.ndarray:
    """All n_draws quantiles of _blocks, written block by block to one array."""
    import numpy as np

    draws = np.empty(n_draws)
    for _ in _blocks(n_draws, seed, probabilities, quantile, out=draws):
        pass
    return draws


def we_sample(spec: WeibullExpSpec, n_draws: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampler; deterministic per seed.

    Fills its output block by block, so its peak memory is the output plus
    two blocks. Raises ArithmeticError, naming the first u, where the
    quantile is not finite (e.g. phi = 1e-300 with rho = 0.01), as
    pit_sample does.
    """
    return _fill(n_draws, seed, _uniforms, lambda u, q: _quantile(spec, u, q))


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
    for start, q in _blocks(N, seed, _uniforms, lambda u, q: _quantile(spec, u, q)):
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

    The draws run through the samplers' one block loop (_blocks): BLOCK
    normals at a time, mapped in place by ndtr (unobs_lab.special), clipped,
    then through quantile into their slice of the output, so the peak is the
    output plus a few blocks. quantile is elementwise: it maps an array of probabilities,
    one block of them, to an array of the same shape.
    """
    import numpy as np

    from unobs_lab.special import ndtr

    def normal_cdf(rng, u):
        return ndtr(rng.standard_normal(out=u), out=u)

    def into(u, q):
        vals = np.asarray(quantile(u), dtype=float)
        if vals.shape != u.shape:
            raise TypeError(
                f"quantile returned shape {vals.shape} for probabilities of shape {u.shape}"
            )
        q[...] = vals

    return _fill(n_draws, seed, normal_cdf, into)
