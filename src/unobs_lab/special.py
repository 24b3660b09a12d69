"""The standard normal CDF, ndtr, with the bits of scipy.special.ndtr.

scipy compiles the Cephes functions (Moshier 1989, *Methods and Programs for
Mathematical Functions*). With x = a * sqrt(1/2) and z = |x|:

    ndtr(a) = 0.5 + 0.5 * erf(x)                      z < sqrt(1/2)
            = 0.5 * erfc(z), then 1 - that if x > 0   otherwise
    erf(x)  = x * T(x*x) / U(x*x)                     (called with z < 1 only)
    erfc(z) = 1 - erf(z)                              z < 1
            = exp(-z*z) * P(z) / Q(z)                 1 <= z < 8
            = exp(-z*z) * R(z) / S(z)                 8 <= z
            = 0                                       -z*z < -MAXLOG

Here the same coefficients are evaluated in the same Horner order (Cephes'
polevl, and p1evl for a leading coefficient of 1) with numpy's +, * and /,
which round as C's do. exp is the one exception: numpy's exp is off in the
last bit from the C library's for some inputs, so exp(-z*z) comes from
math.exp, on the z >= 1 entries only. The underflow test skips exp and the
polynomials, as Cephes does.

ndtr allocates a few temporaries of its input's size; heavytail.pit_sample
calls it one block of draws at a time, so there they stay bounded.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr"]

SQRT1_2 = 0.70710678118654752440
MAXLOG = 7.09782712893383996732e2  # log(DBL_MAX)

P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
Q = (  # leading 1 implied
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
S = (  # leading 1 implied
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
U = (  # leading 1 implied
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def _horner(x: np.ndarray, coef: tuple, out: np.ndarray, lead_one: bool) -> np.ndarray:
    """Cephes polevl (lead_one False) or p1evl (True): ans = ans * x + c."""
    if lead_one:
        np.add(x, coef[0], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[2 - lead_one:]:
        out *= x
        out += c
    return out


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """erfc(z) for z >= 1."""
    e = np.zeros_like(z)
    live = np.flatnonzero(z * -z >= -MAXLOG)  # the rest underflows to 0
    if live.size:
        zl = z[live]
        ex = np.fromiter(map(math.exp, (zl * -zl).tolist()), float, live.size)
        p = _horner(zl, P, np.empty_like(zl), False)
        q = _horner(zl, Q, np.empty_like(zl), True)
        far = np.flatnonzero(zl >= 8.0)
        if far.size:
            p[far] = _horner(zl[far], R, np.empty(far.size), False)
            q[far] = _horner(zl[far], S, np.empty(far.size), True)
        ex *= p
        ex /= q
        e[live] = ex
    return e


def ndtr(a, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal CDF of a float array, bit-equal to scipy.special.ndtr.

    out, if given, is a C-contiguous float64 array of a's shape; it may be a.
    """
    a = np.asarray(a, dtype=float)
    if out is None:
        out = np.empty_like(a, order="C")
    elif out.shape != a.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array of the input's shape")
    dst = out.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # x*x of huge x; replaced
        x = a.reshape(-1) * SQRT1_2  # read before dst, which may be a, is written
        far = np.flatnonzero(np.abs(x) >= SQRT1_2)
        xf = x[far]
        # erf(x) = x * T(x*x) / U(x*x) for every entry; the far ones are replaced
        np.multiply(x, x, out=dst)
        t = _horner(dst, T, np.empty_like(x), False)
        t *= x
        t /= _horner(dst, U, np.empty_like(x), True)
        np.multiply(t, 0.5, out=dst)
        dst += 0.5
        if far.size:
            z = np.abs(xf)
            e = np.abs(t[far])  # erf(z): the same products as erf(x), sign aside
            np.subtract(1.0, e, out=e)
            tail = np.flatnonzero(z >= 1.0)
            if tail.size:
                e[tail] = _erfc_tail(z[tail])
            e *= 0.5
            np.subtract(1.0, e, out=e, where=xf > 0.0)
            dst[far] = e
    dst[np.isnan(dst)] = np.nan  # Cephes returns its own NaN, not a's
    return out
