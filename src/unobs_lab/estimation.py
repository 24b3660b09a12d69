"""ML fitting of the compound-symmetry marginal model and seeded simulation.

The likelihood never clamps lam at zero: negative between-component values
are legitimate as long as phi + n*lam > 0 for every cluster size. Fitting
profiles xi (by GLS) and phi out in closed form and searches the one scalar
left, r = lam/(lam+phi), over its open interval, which is exactly the PD
region. A closed-form one-way ANOVA estimator serves as the oracle on
balanced intercept-only data.

Simulation is intercept-only. Cluster i draws a fixed number of normals,
set by its size, from counter-based stream (seed, i); the clusters of one
size are drawn in a single vectorised call (rng.normals) and factored in a
fixed order, so replicates are deterministic and cluster i's values do not
depend on how many clusters are simulated.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from unobs_lab.model_core import (
    CSMatrix,
    CSParams,
    Dataset,
    DomainError,
    RankDeficiencyError,
    validate_cs,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import Sequence

    from unobs_lab.equivalence import ExtendedSpec

__all__ = [
    "FitResult",
    "SimLayout",
    "UnsupportedLayoutError",
    "loglik_cs",
    "fit_ml",
    "fit_balanced_closed_form",
    "simulate_cs",
    "simulate_extended",
    "Latents",
]

GRID = 63  # interior points of the r interval scanned before refining
XTOL = math.sqrt(np.finfo(float).eps)  # a maximum located from values alone
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class UnsupportedLayoutError(ValueError):
    """Closed-form estimation requested on a layout it does not cover."""


class FitResult(
    namedtuple("FitResult", "params loglik converged iterations constraint_active")
):
    """An ML fit: the CSParams at the maximum, its log-likelihood and how it was found."""

    __slots__ = ()


class SimLayout(namedtuple("SimLayout", "n_clusters cluster_size")):
    """Cluster layout for simulation: N clusters, balanced size or explicit list."""

    __slots__ = ()

    def __new__(cls, n_clusters: int, cluster_size: int | Sequence[int]):
        self = super().__new__(cls, n_clusters, cluster_size)
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        for n in self.sizes():
            if n < 1:
                raise ValueError("cluster sizes must be >= 1")
        return self

    def sizes(self) -> list[int]:
        if isinstance(self.cluster_size, int):
            return [self.cluster_size] * self.n_clusters
        sizes = [int(n) for n in self.cluster_size]
        if len(sizes) != self.n_clusters:
            raise ValueError("explicit size list must have n_clusters entries")
        return sizes


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


def loglik_cs(data: Dataset, params: CSParams) -> float:
    """Exact Gaussian log-likelihood of the compound-symmetry marginal model.

    Per cluster: log det V = (n-1) log phi + log(phi + n*lam) and
    r' V^-1 r = r'r/phi - lam*(1'r)^2 / (phi*(phi + n*lam)); summed per size.
    """
    lam, phi = params.lam, params.phi
    validate_cs(data.stats.n, lam, phi)
    return data.stats.loglik(params.xi, lam, phi)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def fit_ml(data: Dataset) -> FitResult:
    """Maximize loglik_cs over {phi > 0, phi + n_i*lam > 0 for all i}.

    xi and phi are profiled out in closed form, leaving r = lam/(lam+phi),
    whose open interval (-1/(n_max-1), 1) is exactly the PD region. The best
    of GRID evenly spaced interior points is bracketed by its neighbours
    (guarding against several maxima), the bracket is closed by golden
    section and the best point evaluated is returned. iterations counts
    profile evaluations. constraint_active means the bracket closed against
    an interval end or an unevaluable point: the likelihood still rose
    towards the PD boundary, where it may be unbounded (e.g. when at most p
    clusters have the largest size, or y is constant within every cluster).
    """
    if data.n_clusters < 2:
        raise DomainError("fitting requires at least two clusters")
    st = data.stats
    n_max = int(st.n[-1])
    if n_max == 1:
        raise DomainError(
            "lam is unidentified: every cluster has a single observation"
        )
    evals = []

    def profile(r: float) -> float:  # record (loglik, xi, lam, phi) at r; return loglik
        g = r / (1.0 - r)  # lam/phi; at (g, 1), xi is GLS and phi = Q/N_obs, Q = v'Mv
        try:
            xi = st.gls(g, 1.0)
            v = np.append(-xi, 1.0)
            phi = float(v @ st._bordered(g, 1.0) @ v) / st.n_obs
            lam = g * phi
            ok = phi > 0 and phi + n_max * lam > 0  # rounding can reach the boundary
        except RankDeficiencyError:
            ok = False
        entry = (st.loglik(xi, lam, phi), xi, lam, phi) if ok else (-math.inf, None, 0, 0)
        evals.append(entry)
        return entry[0]

    def closed() -> bool:  # relative to the distance from the nearer end, absolute at one
        return b - a <= XTOL * (min(a - edges[0], edges[-1] - b) or 1.0)

    # V is singular at both interval ends: they count as unevaluable
    edges = np.linspace(-1.0 / (n_max - 1), 1.0, GRID + 2).tolist()
    f = [-math.inf] + [profile(r) for r in edges[1:-1]] + [-math.inf]
    k = 1 + int(np.argmax(f[1:-1]))
    a, b, fa, fb = edges[k - 1], edges[k + 1], f[k - 1], f[k + 1]
    c, d = b - INV_GOLDEN * (b - a), a + INV_GOLDEN * (b - a)
    fc, fd = profile(c), profile(d)
    while not closed() and a < c < d < b:  # else floats cannot split the bracket
        if fc > fd:
            b, fb, d, fd = d, fd, c, fc
            c = b - INV_GOLDEN * (b - a)
            fc = profile(c)
        else:
            a, fa, c, fc = c, fc, d, fd
            d = a + INV_GOLDEN * (b - a)
            fd = profile(d)
    loglik, xi, lam, phi = max(evals, key=lambda e: e[0])
    if xi is None:
        raise RankDeficiencyError(
            "no PD point has a finite likelihood: X is rank deficient or fits y exactly"
        )
    return FitResult(
        params=CSParams(xi=xi, lam=lam, phi=phi),
        loglik=loglik,
        converged=closed(),
        iterations=len(evals),
        constraint_active=min(fa, fb) == -math.inf,
    )


def fit_balanced_closed_form(data: Dataset) -> FitResult:
    """One-way ANOVA ML estimators on balanced intercept-only data.

    mu = grand mean, phi = SSW / (N*(n-1)), lam = SSB/(N*n) - phi/n; lam is
    not truncated at zero. Used as the oracle for fit_ml.
    """
    n = int(data.sizes[0])
    if np.any(data.sizes != n):
        raise UnsupportedLayoutError("closed form requires balanced clusters")
    if n < 2:
        raise UnsupportedLayoutError("closed form requires cluster size >= 2")
    if data.p != 1 or not np.all(data.X == 1.0):
        raise UnsupportedLayoutError("closed form requires an intercept-only design")
    N = data.n_clusters
    y = data.y.reshape(N, n)
    mu = float(y.mean())
    cluster_means = y.mean(axis=1)
    ssw = float(np.sum((y - cluster_means[:, None]) ** 2))
    ssb = n * float(np.sum((cluster_means - mu) ** 2))
    if ssw <= 0:
        raise DomainError("zero within-cluster variation: phi sits on the boundary")
    phi = ssw / (N * (n - 1))
    lam = ssb / (N * n) - phi / n
    if phi + n * lam <= 0:
        raise DomainError("zero between-cluster variation: lam sits on the boundary")
    params = CSParams(xi=np.array([mu]), lam=lam, phi=phi)
    return FitResult(
        params=params,
        loglik=loglik_cs(data, params),
        converged=True,
        iterations=0,
        constraint_active=False,
    )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _intercept(xi) -> float:
    """The simulators' mean: intercept-only, so xi must have one entry."""
    xi = np.ravel(np.asarray(xi, dtype=float))
    if len(xi) != 1:
        raise DomainError(f"xi has {len(xi)} entries; simulation is intercept-only and needs 1")
    return float(xi[0])


def _distinct(sizes: np.ndarray) -> list[int]:
    """The distinct sizes, ascending; np.unique would import numpy.ma (numpy 2.4)."""
    return sorted(set(sizes.tolist()))


def _size_groups(sizes: np.ndarray, seed: int, extra: int):
    """Clusters grouped by size n: (n, cluster indices, row indices, normals).

    Each group is one kernel call. Cluster i draws n + extra normals from
    stream i, so its values depend only on (seed, i) and its size. The rng
    is loaded here, so fit never loads it.
    """
    from unobs_lab.rng import normals

    starts = np.cumsum(sizes) - sizes
    for n in _distinct(sizes):
        idx = np.flatnonzero(sizes == n)
        yield n, idx, starts[idx, None] + np.arange(n), normals(seed, idx, n + extra)


def _apply(z: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Each row of z times F', summed column by column in a fixed order.

    A batched matmul lets BLAS choose the summation order by row count, so a
    cluster's values would depend on how many clusters share the call.
    """
    v = z[:, :1] * F[:, 0]
    for j in range(1, F.shape[1]):
        v += z[:, j : j + 1] * F[:, j]
    return v


def simulate_cs(params: CSParams, layout: SimLayout, seed: int) -> Dataset:
    """Simulate y = xi + cluster effect + noise from the intercept-only CS model.

    For lam >= 0 a real random intercept is drawn; for lam < 0 no hierarchy
    exists, so each cluster is sampled directly from N(xi, lam*J + phi*I)
    via a Cholesky factor. Both branches share the marginal law, and the
    output is bit-reproducible.
    """
    sizes = np.array(layout.sizes())
    validate_cs(_distinct(sizes), params.lam, params.phi)
    mu, lam, phi = _intercept(params.xi), params.lam, params.phi
    y = np.empty(int(sizes.sum()))
    for n, _, rows, z in _size_groups(sizes, seed, 1 if lam >= 0 else 0):
        if lam >= 0:  # z[:, 0] draws the intercept, z[:, 1:] the noise
            y[rows] = (mu + math.sqrt(lam) * z[:, :1]) + math.sqrt(phi) * z[:, 1:]
        else:
            y[rows] = mu + _apply(z, np.linalg.cholesky(CSMatrix(n, lam, phi).array))
    return Dataset(y, np.ones((len(y), 1)), sizes)


class Latents(namedtuple("Latents", "b eps")):
    """simulate_extended's latent columns: b per cluster, eps per row of y."""

    __slots__ = ()


def simulate_extended(
    spec: ExtendedSpec, xi, layout: SimLayout, seed: int
) -> tuple[Dataset, Latents]:
    """Simulate y = xi + b + eps from the alpha-indexed hierarchy: data and latents.

    (b, eps) are drawn jointly from the (n+1)-dimensional Gaussian through a
    rank-revealing eigenfactorization, so the rank-deficient boundary
    |alpha| = 1 is handled without failure. xi is the intercept, one entry.
    """
    from unobs_lab.equivalence import joint_cov

    mu, sizes = _intercept(xi), np.array(layout.sizes())
    factors = {}
    for n in _distinct(sizes):
        w, u = np.linalg.eigh(joint_cov(spec, n))
        scale = max(1.0, float(w.max()))
        if w.min() < -1e-9 * scale:
            raise DomainError(
                f"joint covariance for n = {n} is not PSD: eigenvalue {w.min()}"
            )
        factors[n] = u * np.sqrt(np.clip(w, 0.0, None))
    y, eps, b = np.empty(int(sizes.sum())), np.empty(int(sizes.sum())), np.empty(len(sizes))
    for n, idx, rows, z in _size_groups(sizes, seed, 1):
        v = _apply(z, factors[n])
        b[idx], eps[rows] = v[:, 0], v[:, 1:]
        y[rows] = (mu + v[:, :1]) + v[:, 1:]
    return Dataset(y, np.ones((len(y), 1)), sizes), Latents(b, eps)
