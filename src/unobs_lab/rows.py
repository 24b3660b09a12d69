"""The lines of every row output (CSV, latent, trace, sample), made in numpy.

lines(columns) gives, for each i, the cells c1[i], c2[i], ... joined by ","
and ended by "\n", for cs.write_rows to write. A column's dtype
picks its conversion, with the bytes of Python's % operator: %d for an
integer or bool column, %.17g for a float column and %s for a str or object
column. Columns are formatted whole, CHUNK rows at a time: each column fills
a uint8 matrix with one line per row and DROP in the cells it leaves out.
DROP is 0xFF, a byte no UTF-8 text holds, so the matrices' bytes, read row by
row with every DROP deleted (bytes.translate), are the lines.

A column is written as runs of equal cells, each formatted once and
repeated (np.repeat) over its rows. An integer or float column finds its
runs within each chunk by comparing bit patterns, so 0.0 and -0.0 differ, as
do NaNs of other payloads; a str or object column has runs of one row, since
1 == 1.0 == True are three texts; a Runs column brings ready-made cells (from
cells()) and their counts, such as a dataset's cluster ids and sizes. A write
holds CHUNK rows of cells plus a Runs column's own cells.

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
floats of few binary digits, such as 1e15 + 0.25.

D's digits are five groups, its first digit and then four of four digits,
one (n, 5) index into a table of every 4-digit group in ascii (_quads): G,
the 17 digits, is the FULL style of each group; Gm, the same with DROP after
the last nonzero digit, copies G's words and looks up the RSTRIP style of the
last group only, so the groups before it are redone only in the rows whose
last group is 0. Each (X, sign) has one layout, written with slices:
"ddd.ddd", "0.000ddd" or "d.ddde+XX", trailing zeros and a bare "."
dropped. A chunk whose cells share one layout, as the slowly moving means of
a trace mostly do, is written as it stands; any other chunk is sorted by
(X, sign), written a group at a time and put back in order.

Python formats the few values this does not settle: non-finite ones, |x|
outside [1e-280, 1e280] (the table's products stay normal inside), a near
tie that is not exact, and D out of range where log10 put X one off.

%d writes a sign byte, then the same 4-digit ascii groups, leading zeros
dropped; %s writes each value's UTF-8 bytes.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from typing import Iterator

import numpy as np

__all__ = ["lines", "cells", "Runs", "CHUNK"]

CHUNK = 1 << 13  # rows formatted at once: bounds the memory of any write
SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
EXP_MIN, EXP_MAX = -280, 280  # decimal exponents formatted in numpy
TIE_TOL = 1e-9  # rounding within this of a half is decided exactly
WIDTH = 24  # the longest %.17g: "-d.dddddddddddddddde-XXX"
DROP = 0xFF  # a matrix cell that is not written; never a byte of UTF-8
HEAP_BLOCK = 1 << 21  # bytes: more than a chunk's largest temporary (see _chunks)
# 4-digit groups in ascii, one uint32 each; the styles drop some zeros
FULL, RSTRIP, LSTRIP, LSTRIP0 = 0, 10_000, 20_000, 30_000
MINUS = np.uint32(0xFFFFFF | ord("-") << 24)  # a quad's word of "-" after three DROPs


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """hi, lo, hi's high and low halves; entry EXP_MAX + 1 - X is 10^(16 - X)."""
    hi, lo = [], []
    q = 10 ** (EXP_MAX + 1 - 16)
    while q > 1:  # 10^s = 1/q for s < 0: lo = 1/q - a/b, b a power of two
        hi.append(1 / q)
        a, b = hi[-1].as_integer_ratio()
        lo.append((b - a * q) / q / b)  # correctly rounded, then scaled exactly
        q //= 10
    p = 1
    for _ in range(16 - EXP_MIN + 2):  # 10^s = p for s >= 0
        hi.append(float(p))
        lo.append(float(p - int(hi[-1])))
        p *= 10
    hi = np.array(hi)
    c = hi * SPLIT
    high = c - (c - hi)
    return tuple(_read_only(t) for t in (hi, np.array(lo), high, hi - high))


@functools.cache
def _quads() -> np.ndarray:
    """ascii of 0000..9999 in four styles, 10_000 entries each.

    FULL keeps every digit; RSTRIP drops trailing zeros; LSTRIP drops
    leading ones (all four of 0000); LSTRIP0 too, but keeps the last digit.
    An entry is the quad's four bytes read as one little-endian uint32, so
    OR-ing 0xFF into a byte drops that digit.
    """
    k = np.arange(10_000, dtype=np.uint32)
    text = (k // 1000 | k // 100 % 10 << 8 | k // 10 % 10 << 16 | k % 10 << 24) + 0x30303030
    lead = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], dtype=np.uint32)  # DROP the first j
    trail = lead[::-1] ^ 0xFFFFFFFF  # DROP the last j
    zeros = (k < 1000).view(np.uint8) + (k < 100) + (k < 10)  # leading, but the last digit
    tens = (k % 10 == 0).view(np.uint8) + (k % 100 == 0) + (k % 1000 == 0) + (k == 0)
    styles = [text, text | trail[tens], text | lead[zeros + (k == 0)], text | lead[zeros]]
    return _read_only(np.concatenate(styles).astype("<u4").view(np.uint32))


def _read_only(a: np.ndarray) -> np.ndarray:
    """A cached table, shared by every write, made immutable."""
    a.flags.writeable = False
    return a


def _digits17(a: np.ndarray):
    """a > 0 -> (D, X, settled): a = D * 10^(X-16) rounded half to even where settled."""
    X = np.floor(np.log10(a))
    at = (EXP_MAX + 1 - X).astype(np.intp)
    hi, lo, high, low = (np.take(t, at) for t in _powers())
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
    one = n and key[0] >= 0 and (key == key[0]).all()  # one layout: no sort
    if not one:
        order = np.argsort(key, kind="stable")
        key, D = key[order], D[order]
    g = np.empty((n, 5), dtype=np.intp)  # D's groups: its first digit, then four of four
    upper, lower = np.empty_like(D), np.empty_like(D)
    np.divmod(D, 10**16, out=(g[:, 0], lower))
    np.divmod(lower, 10**8, out=(upper, lower))
    np.divmod(upper, 10**4, out=(g[:, 1], g[:, 2]))
    np.divmod(lower, 10**4, out=(g[:, 3], g[:, 4]))
    quads = _quads()
    full = np.take(quads, g)
    G = full.view(np.uint8)[:, 3:]  # the 17 digits
    # Gm, the same with DROP after the last nonzero digit: its groups are FULL before
    # the last nonzero one, which is RSTRIP, as are the zero groups after it (all DROP)
    stripped = full.copy()
    stripped[:, 4] = np.take(quads, g[:, 4] + RSTRIP)
    ends_in_zeros = np.flatnonzero(g[:, 4] == 0)
    later = np.zeros(len(ends_in_zeros), dtype=bool)
    for j in (3, 2, 1):  # a group keeps its trailing zeros if a later one is nonzero
        gj = g[ends_in_zeros, j]
        stripped[ends_in_zeros, j] = np.take(quads, gj + np.where(later, FULL, RSTRIP))
        later |= gj != 0
    Gm = stripped.view(np.uint8)[:, 3:]
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
    if one:
        return cells[:, :width]
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
    """Cells of "%d" % v[i] (int64 v): a sign byte, then 4-digit groups."""
    negative = v < 0
    m = v.astype(np.uint64)
    np.negative(m, out=m, where=negative)  # |v|, also of -2**63
    k = (len(str(int(m.max(initial=0)))) + 3) // 4  # groups
    index = np.empty((k + 1, len(v)), dtype=np.intp)  # into _quads(), a column per cell
    index[0] = LSTRIP  # 0000 with every digit dropped: the sign's word
    rest = m
    for j in range(1, k + 1):
        p = np.uint64(10 ** (4 * (k - j)))
        group = rest // p
        # leading zeros are dropped up to the first nonzero group, but 0 writes "0"
        index[j] = group + (rest == m) * np.uint64(LSTRIP if j < k else LSTRIP0)
        rest = rest - group * p
    words = np.take(_quads(), index.T)
    words[negative, 0] = MINUS
    return words.view(np.uint8)[:, 3:]


def _format_s(v: list):
    """Cells of "%s" % v[i] (UTF-8)."""
    text = [str(s).encode() for s in v]
    lengths = np.fromiter(map(len, text), dtype=np.int64, count=len(text))
    cells = np.array(text, dtype=f"S{max(int(lengths.max(initial=0)), 1)}")
    cells = cells.view(np.uint8).reshape(len(text), -1)
    return np.where(np.arange(cells.shape[1]) < lengths[:, None], cells, DROP)


class Runs(namedtuple("Runs", "cells counts")):
    """A column of ready-made cells: row k of cells (from rows.cells) written counts[k] times.

    counts is one int for every row, or one per row; a Runs column is
    sum(counts) rows long. A dataset's id column is Runs(id cells, sizes):
    each cluster's id is encoded once, whatever its size.
    """

    __slots__ = ()


def cells(column) -> np.ndarray:
    """The uint8 cells of a whole column, one row per value, for a Runs.

    Made CHUNK rows at a time, so the temporaries stay those of one chunk.
    """
    n, part = _column(column)
    parts = [part(start, min(start + CHUNK, n)) for start in range(0, n, CHUNK)]
    out = np.full((n, max((p.shape[1] for p in parts), default=0)), DROP, dtype=np.uint8)
    for start, p in zip(range(0, n, CHUNK), parts):
        out[start : start + len(p), : p.shape[1]] = p
    return out


def _column(col):
    """A column's length and part(start, stop), the cells of its rows start:stop.

    Refuses what it cannot write.
    """
    if isinstance(col, Runs):
        counts = np.broadcast_to(np.asarray(col.counts, dtype=np.int64), len(col.cells))
        if col.cells.dtype != np.uint8 or col.cells.ndim != 2 or (counts < 0).any():
            raise ValueError("a Runs column needs 2-D uint8 cells and counts >= 0")
        ends = np.cumsum(counts)
        return int(ends[-1]) if len(ends) else 0, functools.partial(_expand, col.cells, ends)
    if isinstance(col, (list, tuple)) and col and isinstance(col[0], str):  # not fixed-width U
        return len(col), lambda start, stop: _format_s(col[start:stop])
    v = np.asarray(col)
    if v.ndim != 1:
        raise ValueError(f"a column must be one-dimensional, not of shape {v.shape}")
    if v.dtype.kind in "biu":
        fmt, v = _format_d, v.astype(np.int64, casting="safe", copy=False)
    elif v.dtype.kind == "f":
        fmt, v = _format_g17, v.astype(np.float64, copy=False)
    elif v.dtype.kind in "UO":  # str() of each value as given: a list keeps its NULs
        values = col.tolist() if isinstance(col, np.ndarray) else list(col)
        return len(values), lambda start, stop: _format_s(values[start:stop])
    else:
        raise TypeError(f"a column of dtype {v.dtype} is not written: only int, bool, float and str")
    return len(v), lambda start, stop: _by_runs(fmt, v[start:stop])


def _by_runs(fmt, v: np.ndarray):
    """fmt's cells of v, each run of equal bit patterns formatted once."""
    bits = v.view(np.int64)
    same = bits[1:] == bits[:-1]
    if not same.any():
        return fmt(v)
    heads = np.flatnonzero(np.concatenate(([True], ~same)))
    cells = fmt(v[heads])
    width = np.flatnonzero((cells != DROP).any(axis=0))[-1] + 1  # fmt's widest layout may go unused
    return np.repeat(cells[:, :width], np.diff(heads, append=len(v)), axis=0)


def _expand(cells, ends, start: int, stop: int):
    """Rows start:stop of a Runs column: row k of cells fills rows ends[k-1]:ends[k]."""
    first, last = np.searchsorted(ends, [start, stop - 1], side="right")
    counts = np.diff(np.clip(ends[first : last + 1], start, stop), prepend=start)
    return np.repeat(cells[first : last + 1], counts, axis=0)


def _chunks(parts, n: int) -> Iterator[bytes]:
    # glibc's malloc maps each block above its mmap threshold (128 KiB at start) afresh
    # and unmaps it on free, so a chunk's temporaries would fault in new pages on every
    # chunk (36,000 faults in a 1e6-line trace). Freeing a mapped block raises the
    # threshold to its size (mallopt(3)), so after this one they are reused from the heap.
    np.empty(HEAP_BLOCK, dtype=np.uint8)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        comma = np.full((stop - start, 1), ord(","), dtype=np.uint8)
        cells = []
        for part in parts:
            cells += [part(start, stop), comma]
        cells[-1] = np.full_like(comma, ord("\n"))
        M = np.concatenate(cells, axis=1)
        yield M.tobytes().translate(None, bytes([DROP]))


def lines(columns) -> Iterator[bytes]:
    """Each row's cells joined by "," and ended by "\n", CHUNK lines at a time.

    Integer and bool columns are written as %d, float columns as %.17g, str
    and object columns as %s; any other dtype is a TypeError. A Runs column
    repeats ready-made cells. The columns must be one-dimensional and equally
    long. All of this is checked before the first line is made.
    """
    cols = [_column(col) for col in columns]
    lengths = {n for n, _ in cols}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    return _chunks([part for _, part in cols], lengths.pop() if lengths else 0)
