"""Core data model and compound-symmetry covariance algebra.

The marginal model handled throughout is Y_i ~ N(X_i xi, lam*J + phi*I) per
cluster, with a sign-unrestricted between-component lam and residual phi > 0.
All covariance work uses the rank-one structure of V = lam*J + phi*I:
eigenvalues phi (multiplicity n-1) and phi + n*lam, and the closed-form
inverse V^-1 = (1/phi) I - lam/(phi*(phi+n*lam)) J. A Dataset stores its
clusters as columns; likelihood and GLS see it only through SuffStats.
The numpy-free part (errors, CSMatrix, validate_cs, icc, format_float,
write_rows) lives in unobs_lab.cs and is re-exported here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from unobs_lab.cs import (
    CSMatrix,
    CsvFormatError,
    DomainError,
    RankDeficiencyError,
    format_float,
    icc,
    validate_cs,
    write_rows,
)

__all__ = [
    "DomainError",
    "RankDeficiencyError",
    "CsvFormatError",
    "Dataset",
    "SuffStats",
    "CSParams",
    "CSMatrix",
    "validate_cs",
    "icc",
    "gls_mean",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_rows",
    "format_float",
]


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


class Dataset:
    """Clustered data stored as read-only columns.

    y (n_obs,) and X (n_obs, p) hold the rows cluster by cluster; cluster k
    is cluster_ids[k] and owns rows offsets[k]:offsets[k+1]. Ids default to
    c1, c2, ... and covariate names to x1, x2, ...
    """

    def __init__(self, y, X, sizes, cluster_ids=None, covariate_names=None):
        self.y, self.X = _frozen_array(y), _frozen_array(X)
        self.sizes = _frozen_array(sizes, dtype=np.int64)
        self.offsets = _frozen_array(np.cumsum([0, *self.sizes]), dtype=np.int64)
        if self.y.ndim != 1 or self.X.ndim != 2 or len(self.X) != len(self.y):
            raise ValueError("X must have one row per observation of y")
        if len(self.sizes) == 0 or self.sizes.min() < 1 or self.offsets[-1] != len(self.y):
            raise ValueError("need one or more clusters of size >= 1 covering every row")
        if cluster_ids is None:
            cluster_ids = [f"c{k + 1}" for k in range(len(self.sizes))]
        if covariate_names is None:
            covariate_names = [f"x{j + 1}" for j in range(self.X.shape[1])]
        self.cluster_ids, self.covariate_names = tuple(cluster_ids), tuple(covariate_names)
        if len(self.cluster_ids) != len(self.sizes):
            raise ValueError("need one cluster id per cluster")
        if len(self.covariate_names) != self.X.shape[1]:
            raise ValueError("covariate_names length must match design columns")

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def stats(self) -> "SuffStats":
        return SuffStats(self)


class SuffStats:
    """Everything the CS likelihood needs from a Dataset, per cluster size.

    With z = (x, y) a row and w = (xs, ys) a cluster's column sums, the kernel
    holds zz_within = sum (z - w/n)(z - w/n)' over rows and, for each distinct
    size n[s], count[s] clusters and ww[s] = sum w w' (xs xs', xs ys, ys^2).
    Since V_n^-1 = (I - J/n)/phi + (J/n)/(phi + n*lam), each likelihood or GLS
    evaluation costs O(#sizes * p^2), whatever the number of clusters.
    Digits do cancel: ww holds raw cluster sums, so when the data sit far
    from zero the between-cluster quadratic form is a small difference of
    large terms. Adding 1e6 to y moves the fitted lam by about 5e-3, relative,
    so the fit is not yet translation-equivariant.
    """

    def __init__(self, data: Dataset):
        self.n, size_index = np.unique(data.sizes, return_inverse=True)
        self.count = np.bincount(size_index)
        self.n_obs, self.p = len(data.y), data.p
        Z = np.column_stack([data.X, data.y])
        W = np.add.reduceat(Z, data.offsets[:-1])  # cluster sums
        Zc = Z - np.repeat(W / data.sizes[:, None], data.sizes, axis=0)
        self.zz_within = Zc.T @ Zc
        order = np.argsort(size_index, kind="stable")  # clusters grouped by size
        first = np.cumsum(self.count) - self.count
        self.ww = np.add.reduceat((W[:, :, None] * W[:, None, :])[order], first)

    def _bordered(self, lam: float, phi: float) -> np.ndarray:
        """sum_k Z_k' V_k^-1 Z_k: the GLS normal equations bordered by y."""
        w = 1.0 / (self.n * (phi + self.n * lam))
        return self.zz_within / phi + np.tensordot(w, self.ww, axes=1)

    def loglik(self, xi: np.ndarray, lam: float, phi: float) -> float:
        """CS Gaussian log-likelihood at (xi, lam, phi); no PD check."""
        v = np.append(-np.asarray(xi, dtype=float), 1.0)
        quad = v @ self._bordered(lam, phi) @ v
        logdet = self.count @ ((self.n - 1) * math.log(phi) + np.log(phi + self.n * lam))
        return float(-0.5 * (self.n_obs * math.log(2.0 * math.pi) + logdet + quad))

    def gls(self, lam: float, phi: float) -> np.ndarray:
        """GLS estimate of xi at (lam, phi); no PD check."""
        M = self._bordered(lam, phi)
        A = M[: self.p, : self.p]
        try:
            xi = np.linalg.solve(A, M[: self.p, self.p])
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(f"singular GLS normal equations: {exc}") from exc
        if not np.all(np.isfinite(xi)) or np.linalg.cond(A) > 1e12:
            raise RankDeficiencyError("GLS normal equations are rank deficient")
        return xi


class CSParams(namedtuple("CSParams", "xi lam phi")):
    """Marginal compound-symmetry parameters (xi, lam, phi); lam may be negative."""

    __slots__ = ()

    def __new__(cls, xi, lam: float, phi: float):
        xi = _frozen_array(np.atleast_1d(xi))
        if xi.ndim != 1:
            raise ValueError("xi must be a vector")
        if not phi > 0:
            raise DomainError(f"phi must be strictly positive, got {phi}")
        return super().__new__(cls, xi, float(lam), float(phi))

    @property
    def p(self) -> int:
        return len(self.xi)


# ---------------------------------------------------------------------------
# GLS at fixed (lam, phi)
# ---------------------------------------------------------------------------


def gls_mean(data: Dataset, lam: float, phi: float) -> np.ndarray:
    """GLS estimate of xi at fixed (lam, phi), from the sufficient statistics."""
    validate_cs(data.stats.n, lam, phi)
    return data.stats.gls(lam, phi)


# ---------------------------------------------------------------------------
# CSV long format: cluster,unit,y,x1,...,xp
# ---------------------------------------------------------------------------


def read_dataset_csv(path) -> Dataset:
    """Parse a long-format dataset CSV (header ``cluster,unit,y,x1,...,xp``).

    The non-empty lines after the header are parsed in one ``np.loadtxt``
    call into a cluster id (an object field, so no id is truncated), an
    integer unit and p + 1 floats. Rows are coded by runs of equal ids and
    each run's stripped id is looked up once, so clusters keep the order of
    their first appearance whatever the file's order, interleaved or not.
    Rows within a cluster are sorted by the integer ``unit`` column. Cells
    are plain comma-separated values (no quoting); LF, CRLF and a lone CR
    end lines, and empty lines are skipped. Raises CsvFormatError with the
    offending line number on malformed input, a non-finite number, or a
    repeated (cluster, unit) pair; a malformed line is found by bisecting
    the lines, in O(log n) parses.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines == [""]:
        raise CsvFormatError("line 1: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[:3] != ["cluster", "unit", "y"]:
        raise CsvFormatError("line 1: header must start with 'cluster,unit,y'")
    if len(header) == 3:
        raise CsvFormatError("line 1: no covariate columns x1..xp after 'cluster,unit,y'")
    body = list(filter(None, lines[1:]))
    if not body:
        raise CsvFormatError("line 2: no data rows")
    dtype = np.dtype([("c", object), ("unit", np.int64), ("v", float, (len(header) - 2,))])
    rec = _parse_rows(body, dtype)
    if rec is None:
        _refuse_first_bad_row(body, dtype, lines)
    c, unit, vals = rec["c"], rec["unit"], rec["v"]
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if len(bad):
        raise CsvFormatError(f"line {_linenos(lines)[bad[0]]}: non-finite value")
    heads = np.flatnonzero(np.concatenate([[True], c[1:] != c[:-1]]))
    codes: dict[str, int] = {}  # cluster -> index, in order of first appearance
    run_code = [codes.setdefault(cid.strip(), len(codes)) for cid in c[heads]]
    code = np.repeat(run_code, np.diff(np.append(heads, len(c))))
    perm = np.lexsort((unit, code))
    code, unit, vals = code[perm], unit[perm], vals[perm]
    dup = np.flatnonzero((np.diff(code) == 0) & (np.diff(unit) == 0))
    if len(dup):
        j = dup[np.argmin(perm[dup + 1])]  # the pair whose later line comes first
        linenos = _linenos(lines)
        raise CsvFormatError(
            f"line {linenos[perm[j + 1]]}: cluster {list(codes)[code[j]]!r} repeats unit "
            f"{unit[j]} of line {linenos[perm[j]]}"
        )
    return Dataset(vals[:, 0], vals[:, 1:], np.bincount(code), list(codes), header[3:])


def _linenos(lines) -> list[int]:
    """The 1-based line number of each non-empty line after the header."""
    return [i for i, line in enumerate(lines[1:], start=2) if line]


def _parse_rows(body, dtype):
    """The records of body's lines, or None if numpy refuses any of them."""
    try:
        rec = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    return rec if len(rec) == len(body) else None


def _refuse_first_bad_row(body, dtype, lines):
    """Raise CsvFormatError naming the first line of body that numpy refuses.

    Every line before body[lo] parses and body[lo:hi] holds a refused one, so
    each step parses only the lines between and halves them: O(log n) calls
    and O(n) lines parsed in all.
    """
    lo, hi = 0, len(body)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse_rows(body[lo:mid], dtype) is None:
            hi = mid
        else:
            lo = mid
    lineno, line = _linenos(lines)[lo], body[lo]
    n_cols, want = line.count(",") + 1, 2 + dtype["v"].shape[0]
    if n_cols != want:
        raise CsvFormatError(f"line {lineno}: expected {want} columns, got {n_cols}")
    try:
        np.loadtxt([line], dtype=dtype, delimiter=",", comments=None)
    except ValueError as exc:  # drop numpy's position within the one line
        raise CsvFormatError(f"line {lineno}: {str(exc).split(' at row')[0]}") from None
    raise AssertionError("numpy refused the file but accepted each line")


def write_dataset_csv(data: Dataset, dest) -> None:
    """Emit the long format consumed by read_dataset_csv (17 sig. digits).

    dest is a path or an open text handle.
    """
    ids = np.repeat(np.array(data.cluster_ids, dtype=object), data.sizes)
    units = np.arange(len(data.y)) - np.repeat(data.offsets[:-1], data.sizes) + 1
    head = "cluster,unit,y," + ",".join(data.covariate_names) + "\n"
    write_rows(dest, head, ids, units, data.y, *data.X.T)
