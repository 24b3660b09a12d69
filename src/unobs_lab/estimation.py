"""ML fitting of the compound-symmetry marginal model and seeded simulation.

The likelihood never clamps lam at zero: negative between-component values
are legitimate as long as phi + n*lam > 0 for every cluster size. Fitting
profiles xi (by GLS) and phi out in closed form and searches the one scalar
left, r = lam/(lam+phi), over its open interval, which is exactly the PD
region. A closed-form one-way ANOVA estimator serves as the oracle on
balanced intercept-only data.

Simulation is intercept-only. Cluster i of size n draws n normals (n + 1
for the extended family) from counter-based stream (seed, i); the clusters
of one size are drawn in a single vectorised call (rng.normals) and mapped
one way, through the closed-form CS square root, with no factorization and
row sums in a fixed order, so replicates are deterministic and cluster i's
values do not depend on how many clusters are simulated.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from unobs_lab.cs import CSMatrix, DomainError, RankDeficiencyError, require_finite, validate_cs
from unobs_lab.model_core import CSParams, Dataset

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


class UnsupportedLayoutError(ValueError):
    """Closed-form estimation requested on a layout it does not cover."""


class FitResult(namedtuple("FitResult", "params loglik converged iterations constraint_active")):
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
        if isinstance(self.cluster_size, (int, np.integer)):
            return [int(self.cluster_size)] * self.n_clusters
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
    return data.stats.loglik(params.xi, lam / phi, phi)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def fit_ml(data: Dataset) -> FitResult:
    """Maximize loglik_cs over {phi > 0, phi + n_i*lam > 0 for all i}.

    xi and phi are profiled out in closed form (SuffStats.profile), leaving
    r = lam/(lam+phi), whose open interval (-1/(n_max-1), 1) is exactly the PD
    region. GRID evenly spaced interior points are evaluated in one batch; the
    same grid is then laid across the best point's bracket (its neighbours,
    against several maxima) until the bracket is XTOL wide relative to its
    distance from the nearer end (absolute if it holds one) or GRID + 1 float
    spacings wide, so it always closes (converged). The best point is returned,
    its loglik recomputed; iterations counts the points evaluated.
    constraint_active means the bracket closed against an interval end or an
    unevaluable point: the likelihood still rose towards the PD boundary, where
    it may be unbounded (e.g. when at most p clusters have the largest size,
    or y is constant within every cluster).
    """
    if data.n_clusters < 2:
        raise DomainError("fitting requires at least two clusters")
    st = data.stats
    n_max = int(st.n[-1])
    if n_max == 1:
        raise DomainError("lam is unidentified: every cluster has a single observation")
    lo = -1.0 / (n_max - 1)
    a, b, fa, fb = lo, 1.0, -math.inf, -math.inf  # V is singular at both ends
    best, iterations = (-math.inf,), 0
    while b - a > max(XTOL * (min(a - lo, 1.0 - b) or 1.0), (GRID + 1) * np.spacing(max(-a, b))):
        r = np.linspace(a, b, GRID + 2)
        g = r[1:-1] / (1.0 - r[1:-1])
        f, xi, phi = st.profile(g)
        iterations, k = iterations + GRID, int(np.argmax(f))
        best = max(best, (f[k], xi[k], g[k] * phi[k], phi[k]), key=lambda e: e[0])
        f = np.concatenate(([fa], f, [fb]))
        a, b, fa, fb = r[k], r[k + 2], f[k], f[k + 2]
    if best[0] == -math.inf:
        raise RankDeficiencyError(
            "no PD point has a finite likelihood: X is rank deficient or fits y exactly"
        )
    _, xi, lam, phi = best
    return FitResult(params=CSParams(xi=xi, lam=lam, phi=phi), loglik=st.loglik(xi, lam / phi, phi),
                     converged=True, iterations=iterations,
                     constraint_active=min(fa, fb) == -math.inf)


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
    return FitResult(params=params, loglik=loglik_cs(data, params), converged=True,
                     iterations=0, constraint_active=False)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _intercept(xi) -> float:
    """The simulators' mean: intercept-only, so xi must have one entry."""
    xi = np.ravel(np.asarray(xi, dtype=float))
    if len(xi) != 1:
        raise DomainError(f"xi has {len(xi)} entries; simulation is intercept-only and needs 1")
    require_finite(xi=float(xi[0]))
    return float(xi[0])


class Latents(namedtuple("Latents", "b eps")):
    """simulate_extended's latent columns: b per cluster, eps per row of y."""

    __slots__ = ()


def _simulate(sizes, seed: int, mu: float, lam: float, phi: float, laws=None):
    """y ~ N(mu, lam*J + phi*I) per cluster; given laws, also b given y and eps.

    With z cluster i's n normals from stream i and s their sum, y = mu + (c*z + a*s),
    a*J + c*I the CS root of lam*J + phi*I (checked for every size before any draw).
    laws maps a size to intercept_given_y's (c, v): one more normal z' makes
    b = c*(ybar - mu) + sqrt(v)*z', eps = y - (mu + b). Sums go column by column,
    as BLAS would pick the order by row count.
    """
    from unobs_lab.rng import normals

    roots = {n: CSMatrix(n, lam, phi).sqrt() for n in sorted(set(sizes.tolist()))}  # not np.unique: numpy.ma
    starts, y, b = np.cumsum(sizes) - sizes, np.empty(int(sizes.sum())), np.empty(len(sizes))
    for n, root in roots.items():
        idx = np.flatnonzero(sizes == n)
        z = normals(seed, idx, n + (laws is not None))
        s = sum(z[:, j] for j in range(n))
        yn = mu + (root.phi * z[:, :n] + root.lam * s[:, None])
        y[starts[idx, None] + np.arange(n)] = yn
        if laws is not None:
            c, v = laws[n]
            b[idx] = c * (sum(yn[:, j] - mu for j in range(n)) / n) + math.sqrt(max(v, 0.0)) * z[:, n]
    data = Dataset(y, np.ones((len(y), 1)), sizes)
    return data if laws is None else (data, Latents(b, y - (mu + np.repeat(b, sizes))))


def simulate_cs(params: CSParams, layout: SimLayout, seed: int) -> Dataset:
    """Simulate y = xi + cluster effect + noise from the intercept-only CS model.

    Every cluster is drawn one way, at every lam, from N(xi, lam*J + phi*I)
    through its CS square root; the output is bit-reproducible.
    """
    sizes = np.array(layout.sizes())
    validate_cs(set(sizes.tolist()), params.lam, params.phi)
    return _simulate(sizes, seed, _intercept(params.xi), params.lam, params.phi)


def simulate_extended(
    spec: ExtendedSpec, xi, layout: SimLayout, seed: int
) -> tuple[Dataset, Latents]:
    """Simulate y = xi + b + eps from the alpha-indexed hierarchy: data and latents.

    Marginal first: y is simulate_cs(CSParams(xi, lambda2, nu2))'s, bytes
    included, so the data do not depend on alpha; b is drawn from its law
    given y (intercept_given_y) with one more normal of the cluster's
    stream, and eps = y - (xi + b). (b, eps) is a law only where admissible
    holds for every cluster size n (at n = 1 for all alpha); elsewhere a
    DomainError names the size and the least eigenvalue of its covariance.
    """
    from unobs_lab.equivalence import admissible, intercept_given_y, least_eigenvalue

    mu, sizes, nu2 = _intercept(xi), np.array(layout.sizes()), spec.nu2
    size_set = sorted(set(sizes.tolist()))
    for n in size_set:
        if not admissible(spec, n):
            low = least_eigenvalue(spec, n)
            raise DomainError(f"joint covariance for n = {n} is not PSD: eigenvalue {low}")
    validate_cs(size_set, spec.lambda2, nu2)  # y is drawn as simulate_cs draws it
    laws = {n: intercept_given_y(spec, n) for n in size_set}
    return _simulate(sizes, seed, mu, spec.lambda2, nu2, laws)
