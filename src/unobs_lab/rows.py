"""The lines of every row output (CSV, latent, trace, sample), made in numpy.

lines(columns) gives, for each i, the cells c1[i], c2[i], ... joined by ","
and ended by "\n", for cs.write_rows to write. A column's dtype
picks its conversion, with the bytes of Python's % operator: %d for an
integer or bool column, %.17g for a float column and %s for a str or object
column. Columns are formatted whole, CHUNK rows at a time: each column fills
a uint8 matrix with one line per row and DROP in the cells it leaves out.
DROP is 0xFF, a byte no UTF-8 text holds, so the matrices' bytes, read row by
row with every DROP deleted (bytes.translate), are the lines.

%.17g writes |x| as D * 10^(X-16), with D the 17-digit integer in [1e16,
1e17) rounded half to even. With X = floor(log10|x|) and s = 16 - X,
x * 10^s = p + r: p = x*hi and its exact rounding error come from Dekker's
two-product (Numer. Math. 18, 1971) against a table of 10^s = hi + lo, and r
also adds x*lo. p + r is off by less than 1e-14, so D = p + round(r) unless
r lies within TIE_TOL of a half. Such a near tie is exact iff 2 * x * 10^s
is an odd integer. For s >= 0 that holds iff y = x * 2^(s+1) is an integer
(2 * x * 10^s = y * 5^s is then an integer within 2 * TIE_TOL of an odd
one). For s < 0 it never holds: with x = M * 2^E, M odd, it needs
E = -s - 1, so x < 2^53 * 2^(-s-1) < 10^(16-s) <= x. Exact ties come with
floats of few binary digits, such as 1e15 + 0.25. Rows are then grouped by
(X, sign); each group has one layout, written with slices: "ddd.ddd",
"0.000ddd" or "d.ddde+XX", trailing zeros and a bare "." dropped.

Python formats the few values this does not settle: non-finite ones, |x|
outside [1e-280, 1e280] (the table's products stay normal inside), a near
tie that is not exact, and D out of range where log10 put X one off.

%d writes the same 4-digit ascii groups, leading zeros dropped, and %s each
value's UTF-8 bytes.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

__all__ = ["lines", "CHUNK"]

CHUNK = 1 << 13  # rows formatted at once: bounds the memory of any write
SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
EXP_MIN, EXP_MAX = -280, 280  # decimal exponents formatted in numpy
TIE_TOL = 1e-9  # rounding within this of a half is decided exactly
WIDTH = 24  # the longest %.17g: "-d.dddddddddddddddde-XXX"
DROP = 0xFF  # a matrix cell that is not written; never a byte of UTF-8
# 4-digit groups in ascii, one uint32 each; the styles drop some zeros
FULL, RSTRIP, LSTRIP, LSTRIP0 = 0, 10_000, 20_000, 30_000


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """hi, lo, hi's high and low halves; entry EXP_MAX + 1 - X is 10^(16 - X)."""
    hi, lo = [], []
    for s in range(16 - EXP_MAX - 1, 16 - EXP_MIN + 2):
        if s >= 0:
            hi.append(float(10**s))
            lo.append(float(10**s - int(hi[-1])))
        else:  # 1/q - a/b, correctly rounded by int true division
            q = 10**-s
            hi.append(1 / q)
            a, b = hi[-1].as_integer_ratio()
            lo.append((b - a * q) / (b * q))
    hi = np.array(hi)
    c = hi * SPLIT
    high = c - (c - hi)
    return tuple(_read_only(t) for t in (hi, np.array(lo), high, hi - high))


@functools.cache
def _quads() -> np.ndarray:
    """ascii of 0000..9999 in four styles, 10_000 entries each.

    FULL keeps every digit; RSTRIP drops trailing zeros; LSTRIP drops
    leading ones (all four of 0000); LSTRIP0 too, but keeps the last digit.
    """
    d = np.arange(10_000)
    digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1)
    nonzero = digits != 0
    upto_last = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    from_first = np.logical_or.accumulate(nonzero, axis=1)
    from_first0 = from_first | (np.arange(4) == 3)
    text = digits + ord("0")
    styles = [text] + [np.where(k, text, DROP) for k in (upto_last, from_first, from_first0)]
    return _read_only(np.concatenate(styles).astype(np.uint8).view(np.uint32).ravel())


def _read_only(a: np.ndarray) -> np.ndarray:
    """A cached table, shared by every write, made immutable."""
    a.flags.writeable = False
    return a


def _ascii(groups) -> np.ndarray:
    """(n, 4 * len(groups)) bytes of the quads at these indices into _quads()."""
    return np.take(_quads(), np.stack(groups, axis=1)).view(np.uint8)


def _digits17(a: np.ndarray):
    """a > 0 -> (D, X, settled): a = D * 10^(X-16) rounded half to even where settled."""
    X = np.floor(np.log10(a))
    hi, lo, high, low = (np.take(t, (EXP_MAX + 1 - X).astype(np.intp)) for t in _powers())
    c = a * SPLIT
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    r = (((ah * high - p) + ah * low + al * high) + al * low) + a * lo
    q = np.floor(r)
    f = r - q
    d0 = p.astype(np.int64) + q.astype(np.int64)
    D = d0 + (f > 0.5)
    settled = np.abs(f - 0.5) >= TIE_TOL
    near = np.flatnonzero(~settled)
    if len(near):  # exact ties: y = a * 2^(17 - X) is an integer (X <= 16)
        y = np.ldexp(a[near], (17 - X[near]).astype(np.int64))
        D[near] = d0[near] + (d0[near] & 1)
        settled[near] = (X[near] <= 16) & (y == np.floor(y))
    settled &= (d0 >= 10**16) & (D < 10**17)
    return D, X.astype(np.int64), settled


def _format_g17(x: np.ndarray):
    """Cells of "%.17g" % x[i] (float64 x)."""
    n = len(x)
    a = np.abs(x)
    inside = (a >= 10.0**EXP_MIN) & (a <= 10.0**EXP_MAX)
    D, X, settled = _digits17(np.where(inside, a, 1.0))  # outside: as 1.0, X = 0
    hard = ~(settled & inside) & (a != 0)  # a zero writes D = 0 at X = 0: "0"
    D[~inside | hard] = 0
    key = ((X - EXP_MIN + 1) * 2 + np.signbit(x)).astype(np.int16)
    key[hard] = -1
    order = np.argsort(key, kind="stable")
    key, D = key[order], D[order]
    top = D // 10**16
    upper, lower = np.divmod(D - top * 10**16, 10**8)
    g = [top, upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4]
    G = _ascii(g)[:, 3:]  # the 17 digits
    style, later = [g[0], 0, 0, 0, g[4] + RSTRIP], g[4] != 0
    for j in (3, 2, 1):  # a group keeps its trailing zeros if a later one is nonzero
        style[j] = g[j] + np.where(later, FULL, RSTRIP)
        later |= g[j] != 0
    Gm = _ascii(style)[:, 3:]  # the same, DROP after the last nonzero digit
    cells = np.full((n, WIDTH), DROP, dtype=np.uint8)
    starts = np.flatnonzero(key[1:] != key[:-1]) + 1
    width = 1
    for lo, hi in zip([0, *starts.tolist()], [*starts.tolist(), n]):
        k = int(key[lo])
        if k >= 0:  # k = (exponent - EXP_MIN + 1) * 2 + sign
            exponent = k // 2 + EXP_MIN - 1
            width = max(width, _layout(cells[lo:hi], G[lo:hi], Gm[lo:hi], exponent, k % 2))
            continue
        for i in range(lo, hi):
            text = ("%.17g" % x[order[i]]).encode()
            cells[i, : len(text)] = np.frombuffer(text, np.uint8)
        width = WIDTH
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    return np.take(cells, inverse, axis=0)[:, :width]


def _layout(out, G, Gm, X: int, negative: int) -> int:
    """Write rows of one exponent X and sign; return the width used."""
    if negative:
        out[:, 0] = ord("-")
    if 0 <= X < 17:  # ddd.ddd
        out[:, 1 : X + 2] = G[:, : X + 1]
        if X == 16:
            return 18
        out[:, X + 2] = np.where(Gm[:, X + 1] != DROP, ord("."), DROP)
        out[:, X + 3 : 19] = Gm[:, X + 1 :]
        return 19
    if -4 <= X < 0:  # 0.000ddd
        lead = b"0." + b"0" * (-X - 1)
        out[:, 1 : 1 + len(lead)] = np.frombuffer(lead, np.uint8)
        out[:, 1 + len(lead) : 18 + len(lead)] = Gm
        return 18 + len(lead)
    out[:, 1] = G[:, 0]  # d.ddde+XX
    out[:, 2] = np.where(Gm[:, 1] != DROP, ord("."), DROP)
    out[:, 3:19] = Gm[:, 1:]
    tail = b"e%+03d" % X
    out[:, 19 : 19 + len(tail)] = np.frombuffer(tail, np.uint8)
    return 19 + len(tail)


def _format_d(v: np.ndarray):
    """Cells of "%d" % v[i] (int64 v)."""
    negative = v < 0
    m = v.astype(np.uint64)
    np.negative(m, out=m, where=negative)  # |v|, also of -2**63
    g = [m]
    while int(g[0].max(initial=0)) >= 10**4:
        g[:1] = np.divmod(g[0], np.uint64(10**4))
    style, seen = [], np.zeros(len(v), dtype=bool)
    for j, gj in enumerate(g):  # leading zeros are dropped, but 0 writes "0"
        strip = LSTRIP0 if j == len(g) - 1 else LSTRIP
        style.append(gj.astype(np.intp) + np.where(seen, FULL, strip))
        seen |= gj != 0
    sign = np.where(negative, ord("-"), DROP).astype(np.uint8)
    return np.concatenate([sign[:, None], _ascii(style)], axis=1)


def _format_s(v: list):
    """Cells of "%s" % v[i] (UTF-8)."""
    text = [str(s).encode() for s in v]
    lengths = np.fromiter(map(len, text), dtype=np.int64, count=len(text))
    cells = np.array(text, dtype=f"S{max(int(lengths.max(initial=0)), 1)}")
    cells = cells.view(np.uint8).reshape(len(text), -1)
    return np.where(np.arange(cells.shape[1]) < lengths[:, None], cells, DROP)


def _column(col):
    """A column's formatter and values; refuses what it cannot write."""
    if isinstance(col, (list, tuple)) and col and isinstance(col[0], str):
        col = np.array(col, dtype=object)  # not n * (longest * 4) bytes of fixed-width str
    v = np.asarray(col)
    if v.ndim != 1:
        raise ValueError(f"a column must be one-dimensional, not of shape {v.shape}")
    if v.dtype.kind in "biu":
        return _format_d, v.astype(np.int64, casting="safe", copy=False)
    if v.dtype.kind == "f":
        return _format_g17, v.astype(np.float64, copy=False)
    if v.dtype.kind in "UO":  # str() of each value as given: a list keeps its NULs
        return _format_s, col.tolist() if isinstance(col, np.ndarray) else list(col)
    raise TypeError(f"a column of dtype {v.dtype} is not written: only int, bool, float and str")


def _chunks(columns, n: int) -> Iterator[bytes]:
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        comma = np.full((stop - start, 1), ord(","), dtype=np.uint8)
        cells = []
        for fmt, col in columns:
            cells += [fmt(col[start:stop]), comma]
        cells[-1] = np.full_like(comma, ord("\n"))
        M = np.concatenate(cells, axis=1)
        yield M.tobytes().translate(None, bytes([DROP]))


def lines(columns) -> Iterator[bytes]:
    """Each row's cells joined by "," and ended by "\n", CHUNK lines at a time.

    Integer and bool columns are written as %d, float columns as %.17g, str
    and object columns as %s; any other dtype is a TypeError. The columns
    must be one-dimensional and equally long. All of this is checked before
    the first line is made.
    """
    cols = [_column(col) for col in columns]
    lengths = {len(col) for _, col in cols}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    return _chunks(cols, lengths.pop() if lengths else 0)
