"""Core data model and compound-symmetry covariance algebra.

The marginal model handled throughout is Y_i ~ N(X_i xi, lam*J + phi*I) per
cluster, with a sign-unrestricted between-component lam and residual phi > 0.
All covariance work uses the rank-one structure of V = lam*J + phi*I:
eigenvalues phi (multiplicity n-1) and phi + n*lam, and the closed-form
inverse V^-1 = (1/phi) I - lam/(phi*(phi+n*lam)) J. A Dataset stores its
clusters as columns; likelihood and GLS see it only through SuffStats.
The numpy-free part (errors, CSMatrix, validate_cs, write_rows) lives in
unobs_lab.cs.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from functools import cached_property

import numpy as np

from unobs_lab.cs import CsvFormatError, DomainError, RankDeficiencyError, validate_cs, write_rows

__all__ = ["Dataset", "SuffStats", "CSParams", "gls_mean", "read_dataset_csv", "write_dataset_csv"]


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
    c1, c2, ... and covariate names to x1, x2, ...; id_cells holds the ids
    encoded once for every CSV that writes them.
    """

    def __init__(self, y, X, sizes, cluster_ids=None, covariate_names=None):
        self.y, self.X = _frozen_array(y), _frozen_array(X)
        self.sizes = _frozen_array(sizes, dtype=np.int64)
        self.offsets = _frozen_array(np.concatenate(([0], np.cumsum(self.sizes))), dtype=np.int64)
        if self.y.ndim != 1 or self.X.ndim != 2 or len(self.X) != len(self.y):
            raise ValueError("X must have one row per observation of y")
        if len(self.sizes) == 0 or self.sizes.min() < 1 or self.offsets[-1] != len(self.y):
            raise ValueError("need one or more clusters of size >= 1 covering every row")
        self._ids = None if cluster_ids is None else tuple(cluster_ids)
        if self._ids is not None and len(self._ids) != len(self.sizes):
            raise ValueError("need one cluster id per cluster")
        if covariate_names is None:
            covariate_names = [f"x{j + 1}" for j in range(self.X.shape[1])]
        self.covariate_names = tuple(covariate_names)
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

    @cached_property
    def cluster_ids(self) -> tuple[str, ...]:
        """Each cluster's id: as given, else c1, c2, ..., made when first read."""
        if self._ids is not None:
            return self._ids
        k = self.n_clusters  # one % for all of them, not an f-string each
        return tuple(("c%d " * k % tuple(range(1, k + 1))).split())

    @cached_property
    def id_cells(self) -> np.ndarray:
        """The %s cells of cluster_ids, one row per cluster (rows.cells).

        The default ids are made whole in numpy: a "c" column, then the %d
        cells of 1, 2, ..., k, so they are never built as strings to write.
        """
        from unobs_lab.rows import cells

        if self._ids is not None:
            return cells(self._ids)
        c = np.full((self.n_clusters, 1), ord("c"), dtype=np.uint8)
        return np.concatenate([c, cells(np.arange(1, self.n_clusters + 1))], axis=1)


class SuffStats:
    """Everything the CS likelihood needs from a Dataset, per cluster size.

    With z = (x, y) a row and w = (xs, ys) a cluster's column sums, the kernel
    holds zz_within = sum (z - w/n)(z - w/n)' over rows and, for each distinct
    size n[s], count[s] clusters and ww[s] = sum w w' (xs xs', xs ys, ys^2).
    Since phi * V_n^-1 = (I - J/n) + (J/n)/(1 + n*g) with g = lam/phi, each
    likelihood or GLS evaluation costs O(#sizes * p^2), whatever the number of
    clusters. The kernel takes g as an array of any shape and sums in one fixed
    order, so a point of a batch has the bits of the same point alone.
    Digits do cancel: ww holds raw cluster sums, so when the data sit far
    from zero the between-cluster quadratic form is a small difference of
    large terms. Adding 1e6 to y moves the fitted lam by 4.2e-3, relative, and
    adding 1e7 by 8.2e-2 (simulate_cs seed 5, 1000 clusters of 4, lam = phi =
    1, against fit_balanced_closed_form), so the fit is not yet
    translation-equivariant (ROADMAP item 3).
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

    def _bordered(self, g) -> np.ndarray:
        """sum_k Z_k' (phi V_k^-1) Z_k at lam/phi = g: the GLS system bordered by y."""
        w = 1.0 / (self.n * (1.0 + self.n * g[..., None]))
        return self.zz_within + (w[..., None, None] * self.ww).sum(axis=-3)

    def _solve(self, M) -> np.ndarray:
        """xi of each stacked system; nan where cond(A) > 1e12 or M is not finite."""
        A, b = M[:, : self.p, : self.p], M[:, : self.p, self.p]
        ok = np.isfinite(M).all(axis=(1, 2))
        ok[ok] = np.linalg.cond(A[ok]) <= 1e12  # solve only these, so none can raise
        xi = np.full(b.shape, np.nan)
        xi[ok] = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]
        return xi

    def _loglik(self, M, xi, g, phi=None):
        """(loglik at (xi, g*phi, phi), phi) from M = _bordered(g); phi = v'Mv/N if None."""
        v = np.concatenate([-xi, np.ones(xi.shape[:-1] + (1,))], axis=-1)
        quad = ((M * v[..., None, :]).sum(axis=-1) * v).sum(axis=-1)  # v'Mv
        phi = quad / self.n_obs if phi is None else phi
        logdet = (self.count * np.log1p(self.n * g[..., None])).sum(axis=-1)  # + N log phi
        ll = -0.5 * (self.n_obs * (math.log(2 * math.pi) + np.log(phi)) + logdet + quad / phi)
        return ll, phi

    def loglik(self, xi: np.ndarray, g: float, phi: float) -> float:
        """CS Gaussian log-likelihood at (xi, lam = g*phi, phi); no PD check."""
        g = np.asarray(g, dtype=float)
        return float(self._loglik(self._bordered(g), np.asarray(xi, dtype=float), g, phi)[0])

    def gls(self, g: float) -> np.ndarray:
        """GLS estimate of xi at lam/phi = g; no PD check."""
        xi = self._solve(self._bordered(np.asarray(g, dtype=float))[None])[0]
        if not np.isfinite(xi).all():
            raise RankDeficiencyError("GLS normal equations are rank deficient")
        return xi

    def profile(self, g):
        """(loglik, xi, phi) at each lam/phi = g, with xi (GLS) and phi = v'Mv/N profiled out,
        so loglik = -[N(log 2 pi + 1 + log phi) + sum_s count[s] log(1 + n[s] g)]/2. A point
        whose xi is unsolvable, whose loglik is not finite or whose (g*phi, phi) is not PD
        gets -inf; none raises.
        """
        g = np.asarray(g, dtype=float)
        with np.errstate(all="ignore"):  # unevaluable points are masked below
            M = self._bordered(g)
            xi = self._solve(M)
            ll, phi = self._loglik(M, xi, g)
            ok = np.isfinite(ll) & (phi > 0) & (phi + self.n[-1] * (g * phi) > 0)
        return np.where(ok, ll, -np.inf), xi, phi


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
    return data.stats.gls(lam / phi)


# ---------------------------------------------------------------------------
# CSV long format: cluster,unit,y,x1,...,xp
# ---------------------------------------------------------------------------


def read_dataset_csv(path) -> Dataset:
    """Parse a long-format dataset CSV (header ``cluster,unit,y,x1,...,xp``).

    After the header, the path goes to one ``np.loadtxt`` call that parses
    each line into a cluster id (an object field, so no id is truncated), an
    integer unit and p + 1 floats. Rows are coded by runs of equal ids and
    each run's stripped id is looked up once, so clusters keep the order of
    their first appearance whatever the file's order, interleaved or not.
    Rows within a cluster are sorted by the integer ``unit`` column. Cells
    are plain comma-separated values (no quoting); LF, CRLF and a lone CR
    end lines, and empty lines and a UTF-8 byte-order mark are skipped.
    Raises CsvFormatError with the offending line number on malformed
    input, a non-finite number, or a repeated (cluster, unit) pair; only
    then are the lines split in Python, and a malformed one is found by
    bisecting them, in O(log n) parses.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:  # universal newlines, as loadtxt reads
        head = fh.readline()
    if not head:
        raise CsvFormatError("line 1: empty file")
    header = [h.strip() for h in head.split(",")]
    if header[:3] != ["cluster", "unit", "y"]:
        raise CsvFormatError("line 1: header must start with 'cluster,unit,y'")
    if len(header) == 3:
        raise CsvFormatError("line 1: no covariate columns x1..xp after 'cluster,unit,y'")
    dtype = np.dtype([("c", object), ("unit", np.int64), ("v", float, (len(header) - 2,))])
    try:
        with warnings.catch_warnings():  # a file without rows is refused below
            warnings.simplefilter("ignore", UserWarning)
            rec = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                             encoding="utf-8", ndmin=1)
    except ValueError:
        _refuse_first_bad_row(_numbered(path), dtype)
    if not len(rec):
        raise CsvFormatError("line 2: no data rows")
    c, unit, vals = rec["c"], rec["unit"], rec["v"]
    if not np.isfinite(vals).all():
        bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
        raise CsvFormatError(f"line {list(_numbered(path))[bad[0]]}: non-finite value")
    heads = np.flatnonzero(np.concatenate([[True], c[1:] != c[:-1]]))
    codes = {}  # stripped id -> code, by first appearance
    run_codes = (codes.setdefault(s.strip(), len(codes)) for s in c[heads])
    code = np.repeat(np.fromiter(run_codes, np.int64, count=len(heads)),
                     np.diff(heads, append=len(c)))
    perm = np.lexsort((unit, code))
    code, unit, vals = code[perm], unit[perm], vals[perm]
    dup = np.flatnonzero((np.diff(code) == 0) & (np.diff(unit) == 0))
    if len(dup):
        j = dup[np.argmin(perm[dup + 1])]  # the pair whose later line comes first
        linenos = list(_numbered(path))
        raise CsvFormatError(
            f"line {linenos[perm[j + 1]]}: cluster {list(codes)[code[j]]!r} repeats unit "
            f"{unit[j]} of line {linenos[perm[j]]}"
        )
    return Dataset(vals[:, 0], vals[:, 1:], np.bincount(code), list(codes), header[3:])


def _numbered(path) -> dict[int, str]:
    """The non-empty lines after the header by 1-based number, split as loadtxt splits them."""
    with open(path, "r", encoding="utf-8") as fh:
        return {i: line for i, line in enumerate(fh.read().split("\n")[1:], start=2) if line}


def _refuse_first_bad_row(numbered, dtype):
    """Raise CsvFormatError naming the first of the numbered lines that numpy refuses.

    Every line before body[lo] parses and body[lo:hi] holds a refused one, so
    each step parses only the lines between and halves them: O(log n) calls
    and O(n) lines parsed in all.
    """
    body = list(numbered.values())
    lo, hi = 0, len(body)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            got = len(np.loadtxt(body[lo:mid], dtype=dtype, delimiter=",", comments=None, ndmin=1))
        except ValueError:
            got = -1  # numpy refused one of them
        lo, hi = (mid, hi) if got == mid - lo else (lo, mid)
    lineno, line = list(numbered)[lo], body[lo]
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

    dest is a path or an open text handle. Each cluster's id is encoded once
    (data.id_cells) and repeated for its rows, chunk by chunk; so a write holds
    rows.CHUNK rows of cells, one id cell row per cluster and the units, 8 bytes
    a row as y.
    """
    from unobs_lab.rows import Runs

    units = np.ones(len(data.y), dtype=np.int64)  # 1, 2, ... within each cluster
    units[data.offsets[1:-1]] = 1 - data.sizes[:-1]
    np.cumsum(units, out=units)
    head = "cluster,unit,y," + ",".join(data.covariate_names) + "\n"
    write_rows(dest, head, Runs(data.id_cells, data.sizes), units, data.y, *data.X.T)
