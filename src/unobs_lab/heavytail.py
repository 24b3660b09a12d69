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
keeps every stride-th mean only: 0.33 x 8N bytes at N = 1e6, stride 10; a
sum past the float maximum is carried scaled (_trace), so each mean that
fits in a float is written. Each has a generator form (we_sample_fill,
running_mean_fill, pit_sample_fill): the output arrays, not yet filled, and
the generator that fills them, yielding after each block how many leading
rows are final, which the CLI hands to cs.write_rows as its fill; the plain
functions drain it and start no thread.
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
    "we_sample_fill",
    "we_moment",
    "truncated_moment",
    "running_mean_trace",
    "running_mean_fill",
    "pit_sample",
    "pit_sample_fill",
]

POLE_TOL = 1e-9
BLOCK = 1 << 15  # draws per block of every sampler
NORMAL_BITS, INF_BITS = 0x0010000000000000, 0x7FF0000000000000  # of 2.2e-308 and inf
TINY = 2.0**-960  # from it up, u*delta and (1-u)*phi are normal where u, 1-u >= 2^-53
QUAD_RTOL = 1e-12  # truncated_moment's refusal bound on its error estimate
MAX_PANELS = 1 << 17  # and its bound on the panel count, which keeps it within about 120 MB
SUM_SCALE = 2.0**-64  # a trace's running sum past the float maximum is carried times this
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
        for name, value in (("phi", phi), ("rho", rho), ("delta", delta)):
            if not value > 0:
                raise DomainError(f"phi, rho, delta must all be strictly positive: {name} = {value}")
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


def wg_moment_defined(alpha_g: float, rho: float, k: int) -> bool:
    """Whether Gamma(alpha_g - k/rho) in the general moment avoids a pole (-inf is one,
    as every float below -2**53 is an integer)."""
    for name, value in (("alpha_g", alpha_g), ("rho", rho), ("k", k)):
        if not value > 0:
            raise DomainError(f"alpha_g, rho, k must be positive: {name} = {value}")
    x = alpha_g - k / rho
    return not (x < 0.5 and (x == -math.inf or abs(x - round(x)) <= POLE_TOL))


# ---------------------------------------------------------------------------
# Weibull-exponential distribution
# ---------------------------------------------------------------------------


def we_cdf(spec: WeibullExpSpec, y):
    """CDF 1 - delta / (delta + phi*y^rho) for y >= 0."""
    import numpy as np

    phi, rho, delta = spec.phi, spec.rho, spec.delta
    y = np.asarray(y, dtype=float)
    if not y.min(initial=0.0) >= 0:  # min carries a nan through: refused too
        _refuse_entry("support is y >= 0", "y", y, ~(y >= 0))
    out = 1.0 - delta / (delta + phi * y**rho)
    return float(out) if out.ndim == 0 else out


def we_quantile(spec: WeibullExpSpec, u):
    """Quantile (delta*u / (phi*(1-u)))^(1/rho), u in (0,1) exclusive."""
    import numpy as np

    u = np.asarray(u, dtype=float)
    if not (u.min(initial=0.5) > 0 and u.max(initial=0.5) < 1):  # a nan too
        _refuse_entry("u must lie strictly inside (0, 1)", "u", u, ~((u > 0) & (u < 1)))
    out = _quantile(spec, u, np.empty_like(u))
    return float(out) if out.ndim == 0 else out


def _refuse_entry(message: str, name: str, a: np.ndarray, bad: np.ndarray):
    """Raise DomainError(message: name[i, ...] = value) of the first entry of a where bad is
    true, by its index (name alone where a is a scalar)."""
    import numpy as np

    at = np.argwhere(bad)[0].tolist()
    raise DomainError(f"{message}: {name}{at if at else ''} = {a[tuple(at)]}")


def _quantile(spec: WeibullExpSpec, u: np.ndarray, out: np.ndarray):
    """we_quantile of u written to out; u is kept.

    The direct form t^(1/rho), t = delta*u / (phi*(1-u)), loses bits where t, u*delta or
    (1-u)*phi leaves the normal floats, as at phi = 1e300, delta = 1e-300, where it gives
    0 for a median of 1e-12 at rho = 50. Those entries (one pass finds t's; the products
    are tested only where min(phi, delta) < TINY) are recomputed as (delta/phi)^(1/rho) *
    (u/(1-u))^(1/rho), the first factor by _ratio_pow; every other entry keeps its bits.
    Where the quantile still overflows the result is inf, without a warning; the samplers
    refuse it by name (_non_finite).
    """
    import numpy as np

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.multiply(u, spec.delta, out=out)
        out /= (1.0 - u) * spec.phi
        # a positive double's bits less the smallest normal's wrap round (unsigned)
        # below it, so only 0, subnormals, inf and nan reach inf's bits less the same
        span = out.view(np.uint64) - np.uint64(NORMAL_BITS)
        out **= 1.0 / spec.rho
        tiny = min(spec.phi, spec.delta) < TINY
        if tiny or span.max(initial=0) >= INF_BITS - NORMAL_BITS:
            scale = _ratio_pow(spec.delta, spec.phi, 1.0 / spec.rho)
            if 0.0 < scale < math.inf:  # else scale * 0 could give nan: keep the direct form
                bad = span >= INF_BITS - NORMAL_BITS
                if tiny:  # and where u*delta or (1-u)*phi is subnormal
                    bad |= np.minimum(u * spec.delta, (1.0 - u) * spec.phi) < sys.float_info.min
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


def _filled(n_draws: int, seed: int, probabilities, quantile):
    """An array for the n_draws quantiles of _blocks, and the generator that fills it block
    by block, yielding after each block how many leading draws are final."""
    import numpy as np

    if n_draws < 0:  # refused by name before numpy allocates
        raise DomainError(f"n_draws = {n_draws}: the number of draws must be >= 0")
    draws = np.empty(n_draws)
    blocks = _blocks(n_draws, seed, probabilities, quantile, out=draws)
    return draws, (start + len(q) for start, q in blocks)


def _drained(arrays_and_fill) -> list:
    """The arrays of a *_fill function, once its generator has filled them."""
    *arrays, fill = arrays_and_fill
    for _ in fill:
        pass
    return arrays


def we_sample_fill(spec: WeibullExpSpec, n_draws: int, seed: int):
    """we_sample's array before it is filled, and the generator that fills it (see _filled),
    for cs.write_rows's fill."""
    return _filled(n_draws, seed, _uniforms, lambda u, q: _quantile(spec, u, q))


def we_sample(spec: WeibullExpSpec, n_draws: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampler; deterministic per seed.

    Fills its output block by block, so its peak memory is the output plus
    two blocks. Raises ArithmeticError, naming the first u, where the
    quantile is not finite (e.g. phi = 1e-300 with rho = 0.01), as
    pit_sample does.
    """
    return _drained(we_sample_fill(spec, n_draws, seed))[0]


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
        raise DomainError(f"moment order k must be a positive integer: k = {k}")
    phi, rho, delta = spec.phi, spec.rho, spec.delta
    r = k / rho
    formula_defined = wg_moment_defined(1.0, rho, k)
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
        raise DomainError(f"T must be strictly positive and finite: T = {T}")
    if k < 1:
        raise DomainError(f"moment order k must be a positive integer: k = {k}")
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


def running_mean_fill(spec: WeibullExpSpec, N: int, stride: int, seed: int):
    """running_mean_trace's arrays (n, mean), mean before it is filled, and the generator
    that fills it block by block, yielding how many leading means are final, for
    cs.write_rows's fill."""
    import numpy as np

    if not 1 <= stride <= N:
        raise DomainError(f"need N >= stride >= 1: N = {N}, stride = {stride}")
    n = np.arange(stride, N + 1, stride)
    mean = np.empty(len(n))
    return n, mean, _trace(spec, N, stride, seed, n, mean)


def _trace(spec: WeibullExpSpec, N: int, stride: int, seed: int, n, mean):
    """Fill mean with the running means at n, yielding after each block how many are final.

    The running sum is carried from block to block; the means it ends in a block are
    divided as they come. Draws are >= 0, so the sums pass the float maximum, if ever, from
    the first infinite entry of some block on: from there the sum is carried times
    SUM_SCALE and the mean written as (T/n) / SUM_SCALE, while the entries before keep
    their unscaled bits.
    """
    import numpy as np

    carry, scale = 0.0, 1.0  # the running sum so far, carried times scale
    sums = np.empty(min(BLOCK, N))
    for start, q in _blocks(N, seed, _uniforms, lambda u, q: _quantile(spec, u, q)):
        m, s = len(q), sums[: len(q)]
        if scale != 1.0:
            q *= scale
        first, i = q[0], 0 if scale != 1.0 else m  # i: the first entry carried scaled
        with np.errstate(over="ignore"):
            q[0] += carry
            np.cumsum(q, out=s)
        if not s[-1] < math.inf:
            i = int(np.argmax(s == math.inf))
            q[0], scale = first, SUM_SCALE
            np.multiply(q[i:], scale, out=s[i:])
            s[i] += (s[i - 1] if i else carry) * scale
            np.cumsum(s[i:], out=s[i:])
        carry = s[-1]
        # the sums at n = (k + 1) * stride, k0 <= k < k1, end in this block
        k0, k1 = start // stride, (start + m) // stride
        np.divide(s[(k0 + 1) * stride - 1 - start :: stride], n[k0:k1], out=mean[k0:k1])
        mean[(start + i) // stride : k1] /= scale
        yield k1


def running_mean_trace(
    spec: WeibullExpSpec, N: int, stride: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Running sample mean at n = stride, 2*stride, ..., N: arrays (n, mean).

    The draws are we_sample's, summed block by block with the running sum
    carried across blocks; cumsum adds in order, so the sums have the bits
    of one cumsum over all N draws, until one passes the float maximum (see
    _trace). Only every stride-th sum is kept.

    No convergence is implied for rho <= 1: the trace exists to show the
    heavy-tail jumps of a mean that does not exist. Raises ArithmeticError
    where we_sample does.
    """
    n, mean = _drained(running_mean_fill(spec, N, stride, seed))
    return n, mean


# ---------------------------------------------------------------------------
# The probability integral transform
# ---------------------------------------------------------------------------


def pit_sample_fill(quantile: Callable[[np.ndarray], np.ndarray], n_draws: int, seed: int):
    """pit_sample's array before it is filled, and the generator that fills it (see
    _filled), for cs.write_rows's fill."""
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

    return _filled(n_draws, seed, normal_cdf, into)


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
    return _drained(pit_sample_fill(quantile, n_draws, seed))[0]
