"""Core data model and compound-symmetry covariance algebra.

The marginal model handled throughout is Y_i ~ N(X_i xi, lam*J + phi*I) per
cluster, with a sign-unrestricted between-component lam and residual phi > 0.
All covariance work uses the rank-one structure of V = lam*J + phi*I:
eigenvalues phi (multiplicity n-1) and phi + n*lam, and the closed-form
inverse V^-1 = (1/phi) I - lam/(phi*(phi+n*lam)) J. A Dataset stores its
clusters as columns; likelihood and GLS see it only through SuffStats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DomainError",
    "RankDeficiencyError",
    "CsvFormatError",
    "ClusterData",
    "Dataset",
    "SuffStats",
    "CSParams",
    "CSMatrix",
    "Validation",
    "cs_covariance",
    "validate_cs",
    "icc",
    "gls_mean",
    "read_dataset_csv",
    "write_dataset_csv",
    "format_float",
]


class DomainError(ValueError):
    """A parameter lies outside the admissible region of the model."""


class RankDeficiencyError(ValueError):
    """The GLS normal equations are singular."""


class CsvFormatError(ValueError):
    """A dataset CSV file violates the long-format contract."""


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (reproducible output)."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ClusterData:
    """One cluster: response vector y and design matrix X (n rows, p columns)."""

    cluster_id: str
    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y = _frozen_array(self.y)
        X = _frozen_array(self.X)
        if y.ndim != 1 or len(y) < 1:
            raise ValueError(f"cluster {self.cluster_id}: y must be a nonempty vector")
        if X.ndim != 2 or X.shape[0] != len(y):
            raise ValueError(
                f"cluster {self.cluster_id}: X must have one row per observation"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.X.shape[1]


class Dataset:
    """Clustered data stored as read-only columns.

    y (n_obs,) and X (n_obs, p) hold the rows cluster by cluster; cluster k
    is cluster_ids[k] and owns rows offsets[k]:offsets[k+1].
    Dataset.from_columns builds one without ClusterData objects.
    """

    def __init__(self, clusters, covariate_names):
        clusters = tuple(clusters)  # numpy refuses none, or differing widths
        y, X = np.concatenate([c.y for c in clusters]), np.vstack([c.X for c in clusters])
        ids, sizes = [c.cluster_id for c in clusters], [c.n for c in clusters]
        self._set(y, X, sizes, ids, covariate_names)
        self.__dict__["clusters"] = clusters

    @classmethod
    def from_columns(cls, y, X, sizes, cluster_ids=None, covariate_names=None) -> "Dataset":
        """Ids default to c1, c2, ... and covariate names to x1, x2, ..."""
        data = cls.__new__(cls)
        if cluster_ids is None:
            cluster_ids = [f"c{i + 1}" for i in range(len(sizes))]
        if covariate_names is None:
            covariate_names = [f"x{j + 1}" for j in range(np.shape(X)[1])]
        data._set(y, X, sizes, cluster_ids, covariate_names)
        return data

    def _set(self, y, X, sizes, cluster_ids, covariate_names) -> None:
        self.y, self.X = _frozen_array(y), _frozen_array(X)
        self.sizes = _frozen_array(sizes, dtype=np.int64)
        self.offsets = _frozen_array(np.cumsum([0, *self.sizes]), dtype=np.int64)
        self.cluster_ids, self.covariate_names = tuple(cluster_ids), tuple(covariate_names)
        if self.y.ndim != 1 or self.X.ndim != 2 or len(self.X) != len(self.y):
            raise ValueError("X must have one row per observation of y")
        if len(self.sizes) == 0 or self.sizes.min() < 1 or self.offsets[-1] != len(self.y):
            raise ValueError("need one or more clusters of size >= 1 covering every row")
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

    def cluster_sizes(self) -> list[int]:
        return self.sizes.tolist()

    @cached_property
    def clusters(self) -> tuple[ClusterData, ...]:
        """Per-cluster view, built on first access; no computation needs it."""
        bounds = zip(self.cluster_ids, self.offsets[:-1].tolist(), self.offsets[1:].tolist())
        return tuple(ClusterData(k, self.y[a:b], self.X[a:b]) for k, a, b in bounds)

    @cached_property
    def stats(self) -> "SuffStats":
        return SuffStats(self)


class SuffStats:
    """Everything the CS likelihood needs from a Dataset, per cluster size.

    With z = (x, y) a row and w = (xs, ys) a cluster's column sums, the kernel
    holds zz_within = sum (z - w/n)(z - w/n)' over rows and, for each distinct
    size n[s], count[s] clusters and ww[s] = sum w w' (xs xs', xs ys, ys^2).
    Since V_n^-1 = (I - J/n)/phi + (J/n)/(phi + n*lam), each likelihood or GLS
    evaluation costs O(#sizes * p^2), whatever the number of clusters, and
    adds positive terms only, so no digits cancel however large lam/phi or
    1/(phi + n*lam) grow.
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


@dataclass(frozen=True)
class CSParams:
    """Marginal compound-symmetry parameters (xi, lam, phi); lam may be negative."""

    xi: np.ndarray
    lam: float
    phi: float

    def __post_init__(self):
        xi = _frozen_array(np.atleast_1d(self.xi))
        if xi.ndim != 1:
            raise ValueError("xi must be a vector")
        if not self.phi > 0:
            raise DomainError(f"phi must be strictly positive, got {self.phi}")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "phi", float(self.phi))

    @property
    def p(self) -> int:
        return len(self.xi)


# ---------------------------------------------------------------------------
# Covariance algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CSMatrix:
    """The n x n matrix lam*J_n + phi*I_n, held as its three numbers.

    Its eigenvalues are phi (n-1 times) and phi + n*lam; .array builds the
    dense matrix only on request, so n is not limited by storage.
    """

    n: int
    lam: float
    phi: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def array(self) -> np.ndarray:
        return np.full((self.n, self.n), self.lam) + self.phi * np.eye(self.n)


def cs_covariance(n: int, lam: float, phi: float) -> CSMatrix:
    """Compound-symmetry covariance lam*J_n + phi*I_n (no PD check here)."""
    return CSMatrix(n, lam, phi)


@dataclass(frozen=True)
class Validation:
    ok: bool
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_cs(n_set, lam: float, phi: float) -> Validation:
    """Exact positive-definiteness check of lam*J_n + phi*I_n over cluster sizes.

    V is PD iff phi > 0 and phi + n*lam > 0 (its two distinct eigenvalues),
    with strict inequalities; boundary points are rejected, and so is a
    cluster size below 1.
    """
    sizes = sorted(set(int(n) for n in n_set))
    if not sizes:
        raise ValueError("n_set must be nonempty")
    if sizes[0] < 1:
        return Validation(False, f"cluster size n = {sizes[0]} is not >= 1")
    if not phi > 0:
        return Validation(False, f"phi = {phi} is not strictly positive")
    for n in sizes:
        if not phi + n * lam > 0:
            return Validation(
                False,
                f"phi + n*lam = {phi + n * lam} <= 0 for cluster size n = {n}",
            )
    return Validation(True, "positive definite for all cluster sizes")


def icc(lam: float, phi: float) -> float:
    """Within-cluster correlation lam / (lam + phi) of the marginal model."""
    if not lam + phi > 0:
        raise DomainError(f"lam + phi = {lam + phi} must be strictly positive")
    return lam / (lam + phi)


def gls_mean(data: Dataset, lam: float, phi: float) -> np.ndarray:
    """GLS estimate of xi at fixed (lam, phi), from the sufficient statistics."""
    check = validate_cs(data.stats.n, lam, phi)
    if not check:
        raise DomainError(check.message)
    return data.stats.gls(lam, phi)


# ---------------------------------------------------------------------------
# CSV long format: cluster,unit,y,x1,...,xp
# ---------------------------------------------------------------------------


def read_dataset_csv(path) -> Dataset:
    """Parse a long-format dataset CSV (header ``cluster,unit,y,x1,...,xp``).

    Clusters keep first-appearance order; rows within a cluster are sorted by
    the integer ``unit`` column. Cells are plain comma-separated values (no
    quoting) and empty lines are skipped. Raises CsvFormatError with the
    offending line number on malformed input, a non-finite number, or a
    repeated (cluster, unit) pair.
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
    linenos = [i for i, line in enumerate(lines[1:], start=2) if line]
    if not linenos:
        raise CsvFormatError("line 2: no data rows")
    parts = [lines[i - 1].partition(",") for i in linenos]
    unit, vals = _parse_numbers(parts, linenos, len(header) - 3)
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if len(bad):
        raise CsvFormatError(f"line {linenos[bad[0]]}: non-finite value")
    codes: dict[str, int] = {}  # cluster -> index, in order of first appearance
    code = np.array([codes.setdefault(pt[0].strip(), len(codes)) for pt in parts])
    perm = np.lexsort((unit, code))
    dup = np.flatnonzero((np.diff(code[perm]) == 0) & (np.diff(unit[perm]) == 0))
    if len(dup):
        j = dup[np.argmin(perm[dup + 1])]  # the pair whose later line comes first
        row, prev = perm[j + 1], perm[j]
        raise CsvFormatError(
            f"line {linenos[row]}: cluster {list(codes)[code[row]]!r} repeats unit "
            f"{unit[row]} of line {linenos[prev]}"
        )
    sizes, ids = np.bincount(code), list(codes)
    return Dataset.from_columns(vals[perm, 0], vals[perm, 1:], sizes, ids, header[3:])


def _parse_numbers(parts, linenos, p):
    """unit (int) and y, x1..xp (float) from each line split at its first comma."""
    dtype = np.dtype([("unit", np.int64), ("v", float, (p + 1,))])
    fields = [pt[2] for pt in parts]
    try:
        rec = np.loadtxt(fields, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        if len(rec) == len(fields):  # loadtxt skips blank lines
            return rec["unit"], rec["v"]
    except ValueError:
        pass
    for lineno, pt, field in zip(linenos, parts, fields):  # name the first bad line
        n_cols = 2 + field.count(",") if pt[1] else 1
        if n_cols != 3 + p:
            raise CsvFormatError(f"line {lineno}: expected {3 + p} columns, got {n_cols}")
        try:
            np.loadtxt([field], dtype=dtype, delimiter=",", comments=None)
        except ValueError as exc:  # drop numpy's position within the one line
            raise CsvFormatError(f"line {lineno}: {str(exc).split(' at row')[0]}") from None
    raise AssertionError("numpy refused the file but accepted each line")


def write_dataset_csv(data: Dataset, dest) -> None:
    """Emit the long format consumed by read_dataset_csv (17 sig. digits).

    dest is a path or an open text handle.
    """
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            return write_dataset_csv(data, fh)
    ids = np.repeat(np.array(data.cluster_ids, dtype=object), data.sizes).tolist()
    units = (np.arange(len(data.y)) - np.repeat(data.offsets[:-1], data.sizes) + 1).tolist()
    row = "%s,%d" + ",%.17g" * (1 + data.p) + "\n"
    dest.write("cluster,unit,y," + ",".join(data.covariate_names) + "\n")
    dest.writelines(row % r for r in zip(ids, units, data.y.tolist(), *data.X.T.tolist()))
