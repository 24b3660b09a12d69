"""The Weibull-exponential law, a Weibull outcome's marginal over an exponential frailty.

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
only by the functions that take arrays, integrate or draw samples, so
heavytail moments never loads them. pit_sample takes ndtr from
unobs_lab.special, bit-equal to scipy.special.ndtr.

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
import sys
from collections import namedtuple

from unobs_lab.cs import DomainError, require_finite

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import Callable

    import numpy as np

__all__ = [
    "WeibullExpSpec",
    "MomentResult",
    "QuadratureError",
    "wg_moment_defined",
    "we_cdf",
    "we_quantile",
    "we_sample",
    "we_moment",
    "truncated_moment",
    "running_mean_trace",
    "pit_sample",
]

POLE_TOL = 1e-9
BLOCK = 1 << 15  # draws per block of every sampler
NORMAL_BITS, INF_BITS = 0x0010000000000000, 0x7FF0000000000000  # of 2.2e-308 and inf
QUAD_RTOL = 1e-12  # truncated_moment's refusal bound on its error estimate
MAX_PANELS = 1 << 17  # and its bound on the panel count, which keeps it within about 120 MB
TAIL_LOG_U = 40.0  # past log u = 40, (1+u)^-2 is u^-2 to 2e^-40 = 8.5e-18, relative


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


class WeibullExpSpec(namedtuple("WeibullExpSpec", "phi rho delta")):
    """Single-outcome Weibull-exponential parameters (phi, rho, delta)."""

    __slots__ = ()

    def __new__(cls, phi: float, rho: float, delta: float):
        if not (phi > 0 and rho > 0 and delta > 0):
            raise DomainError("phi, rho, delta must all be strictly positive")
        require_finite(phi=phi, rho=rho, delta=delta)
        return super().__new__(cls, phi, rho, delta)


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


def _near_nonpositive_integer(x: float) -> bool:
    """-inf counts as an integer, as every float below -2**53 is one."""
    return x < 0.5 and (x == -math.inf or abs(x - round(x)) <= POLE_TOL)


def wg_moment_defined(alpha_g: float, rho: float, k: int) -> bool:
    """Whether Gamma(alpha_g - k/rho) in the general moment avoids a pole."""
    if not (alpha_g > 0 and rho > 0 and k > 0):
        raise DomainError("alpha_g, rho, k must be positive")
    return not _near_nonpositive_integer(alpha_g - k / rho)


# ---------------------------------------------------------------------------
# Weibull-exponential distribution
# ---------------------------------------------------------------------------


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

    The direct form leaves the floats where delta/phi or an intermediate
    product does, as at phi = 1e300, delta = 1e-300, where it gives 0 for a
    median of 1e-12 at rho = 50. So the entries it gives as 0, subnormal or
    inf (one pass finds them) are recomputed as (delta/phi)^(1/rho) *
    (u/(1-u))^(1/rho), the first factor by _ratio_pow; every other entry keeps
    its bits. Where the quantile still overflows the result is inf, without a
    warning; the samplers refuse it by name (_non_finite).
    """
    import numpy as np

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.multiply(u, spec.delta, out=out)
        out /= (1.0 - u) * spec.phi
        out **= 1.0 / spec.rho
        # a positive double's bits less the smallest normal's wrap round (unsigned)
        # below it, so only 0, subnormals, inf and nan reach inf's bits less the same
        span = out.view(np.uint64) - np.uint64(NORMAL_BITS)
        if span.max(initial=0) >= INF_BITS - NORMAL_BITS:
            scale = _ratio_pow(spec.delta, spec.phi, 1.0 / spec.rho)
            if 0.0 < scale < math.inf:  # else scale * 0 could give nan: keep the direct form
                bad = span >= INF_BITS - NORMAL_BITS
                ub = u[bad]
                out[bad] = scale * (ub / (1.0 - ub)) ** (1.0 / spec.rho)
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


def _ratio_pow(num: float, den: float, r: float) -> float:
    """(num/den)**r of positive floats, inf on overflow; by frexp where num/den is not normal."""
    q = num / den
    try:
        if sys.float_info.min <= q < math.inf:
            return q**r
        (m, e), (m_den, e_den) = math.frexp(num), math.frexp(den)
        t = r * (e - e_den)
        return math.ldexp((m / m_den) ** r * 2.0 ** (t - math.floor(t)), math.floor(t))
    except OverflowError:  # the power itself leaves the floats
        return math.inf


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
        value = r * _ratio_pow(delta, phi, r) * math.pi / math.sin(math.pi * r)
        if not 0.0 < value < math.inf:  # its decimal exponent from logs, which stay in range
            e10 = math.log10(r * math.pi / math.sin(math.pi * r)) + r * (
                math.log10(delta) - math.log10(phi))
            raise ArithmeticError(f"moment k={k} is about 1e{math.floor(e10)}, past the floats")
    return MomentResult(
        k=k,
        formula_defined=formula_defined,
        integral_finite=integral_finite,
        value=value,
    )


def truncated_moment(spec: WeibullExpSpec, k: int, T: float) -> float:
    """E(Y^k; Y <= T) to relative error QUAD_RTOL, else QuadratureError.

    u = phi*y^rho/delta gives c*u^r (1+u)^-2 du on [0, U], U = phi*T^rho/delta, c = (delta/phi)^r,
    r = k/rho: on [0, a], a = min(U, 1/2), the series sum_j (-1)^j (j+1) a^(r+j+1)/(r+j+1); up
    to b = min(U, e^TAIL_LOG_U), 20-point Gauss-Legendre panels in log u of width <= 1/max(1, r),
    at most MAX_PANELS, each checked by its 10-point rule; above, c*u^(r-2) in closed form,
    c*(U^(r-1) - b^(r-1))/(r-1), or c*log(U/b) at r = 1. So the panels number at most
    41*max(1, r), whatever T. In logs of phi, delta and T: a moment past the floats is inf or 0.
    """
    if not 0 < T < math.inf:
        raise DomainError("T must be strictly positive and finite")
    if k < 1:
        raise DomainError("moment order k must be a positive integer")
    import numpy as np
    from numpy.polynomial.legendre import leggauss

    ld, log_t, rho = math.log(spec.delta) - math.log(spec.phi), math.log(T), spec.rho
    log_u = rho * log_t - ld
    log_a, r, j = min(log_u, -math.log(2.0)), k / rho, np.arange(64)
    log_b = min(log_u, TAIL_LOG_U)
    n = math.ceil((log_b - log_a) * max(1.0, r))
    if n > MAX_PANELS:
        raise QuadratureError(f"{n} panels needed, more than MAX_PANELS = {MAX_PANELS}")
    # logs of c*a^(r+1), of c*u^(r-1) at s0, the panels' end nearer the integrand's peak, and
    # of the tail: c*u^(r-1) at the end of [b, U] nearer the peak, times (1 - e^-y)/|r - 1|,
    # y = |r - 1|*h, h = log(U/b); that factor is h at r = 1
    head = (k + rho) * log_t - ld if log_a == log_u else r * ld - (r + 1.0) * math.log(2.0)
    h = log_u - log_b
    if r > 1:
        top = ld + (k - rho) * log_t  # at U
        s0, base, tail = log_b, top - (r - 1.0) * h, top
    else:
        s0, base, tail = log_a, r * ld + (r - 1.0) * log_a, r * ld + (r - 1.0) * log_b
    y = abs(r - 1.0) * h
    tail = tail + math.log(-math.expm1(-y) / abs(r - 1.0) if y else h) if h else -math.inf
    parts = [(head + j * log_a, (-1.0) ** j * (j + 1) / (r + 1.0 + j))]
    edges = np.linspace(log_a - s0, log_b - s0, n + 1)
    mid, half = (edges[1:] + edges[:-1])[:, None] / 2, np.diff(edges)[:, None] / 2
    for x, w in (leggauss(20), leggauss(10)):
        d = mid + half * x
        parts.append((base + (r - 1.0) * d - 2.0 * np.log1p(np.exp(-s0 - d)), half * w))
    shift = max(tail, *(g.max(initial=-math.inf) for g, _ in parts))  # every exp below is <= 1
    series, q20, q10 = (float(np.sum(w * np.exp(g - shift))) for g, w in parts)
    total = series + math.exp(tail - shift) + q20
    if not abs(q20 - q10) <= QUAD_RTOL * total:
        raise QuadratureError(f"relative error {abs(q20 - q10) / total:.3e} > {QUAD_RTOL}")
    with np.errstate(over="ignore"):
        return float(np.exp(shift + np.log(total)))


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
# The probability integral transform
# ---------------------------------------------------------------------------


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
