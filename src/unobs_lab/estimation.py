"""ML fitting of the compound-symmetry marginal model and seeded simulation.

The likelihood never clamps lam at zero: negative between-component values
are legitimate as long as phi + n*lam > 0 for every cluster size. Fitting
profiles xi out via GLS and runs a derivative-free simplex search over
(lam, log phi) with a rejection penalty outside the PD region. A closed-form
one-way ANOVA estimator serves as the oracle on balanced intercept-only data.

Simulation draws each cluster from its own counter-based substream, so
replicates are deterministic and order/thread independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from unobs_lab.equivalence import ExtendedSpec, joint_cov
from unobs_lab.model_core import (
    CSParams,
    Dataset,
    DomainError,
    RankDeficiencyError,
    gls_mean,
    validate_cs,
)
from unobs_lab.rng import substream

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

BOUNDARY_TOL = 1e-6
FTOL_REL = 1e-12  # Nelder-Mead's objective tolerance, relative to |loglik|


class UnsupportedLayoutError(ValueError):
    """Closed-form estimation requested on a layout it does not cover."""


@dataclass(frozen=True)
class FitResult:
    params: CSParams
    loglik: float
    converged: bool
    iterations: int
    constraint_active: bool


@dataclass(frozen=True)
class SimLayout:
    """Cluster layout for simulation: N clusters, balanced size or explicit list.

    design is None for intercept-only, a single (n, p) matrix shared by all
    clusters (balanced only), or one matrix per cluster.
    """

    n_clusters: int
    cluster_size: Union[int, Sequence[int]]
    design: Optional[Union[np.ndarray, Sequence[np.ndarray]]] = None

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        for n in self.sizes():
            if n < 1:
                raise ValueError("cluster sizes must be >= 1")

    def sizes(self) -> list[int]:
        if isinstance(self.cluster_size, int):
            return [self.cluster_size] * self.n_clusters
        sizes = [int(n) for n in self.cluster_size]
        if len(sizes) != self.n_clusters:
            raise ValueError("explicit size list must have n_clusters entries")
        return sizes

    def design_matrix(self) -> np.ndarray:
        """Every cluster's design rows, stacked: (sum of sizes, p)."""
        sizes = self.sizes()
        if self.design is None:
            return np.ones((sum(sizes), 1))
        design = self.design
        if isinstance(design, np.ndarray):  # one matrix shared by all clusters
            design = [design] * self.n_clusters
        blocks = [np.asarray(x, dtype=float) for x in design]
        for i, (x, n) in enumerate(zip(blocks, sizes)):
            if x.shape[0] != n:
                raise ValueError(f"design for cluster {i} has {x.shape[0]} rows, need {n}")
        return np.vstack(blocks)


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


def loglik_cs(data: Dataset, params: CSParams) -> float:
    """Exact Gaussian log-likelihood of the compound-symmetry marginal model.

    Per cluster: log det V = (n-1) log phi + log(phi + n*lam) and
    r' V^-1 r = r'r/phi - lam*(1'r)^2 / (phi*(phi + n*lam)); summed per size.
    """
    lam, phi = params.lam, params.phi
    check = validate_cs(data.stats.n, lam, phi)
    if not check:
        raise DomainError(check.message)
    return data.stats.loglik(params.xi, lam, phi)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _moment_start(data: Dataset) -> tuple[float, float]:
    """Method-of-moments starting values for (lam, phi), clipped feasible.

    From the OLS residuals r: phi0 is the pooled within-cluster variance and
    lam0 the mean squared cluster-mean residual less phi0/nbar.
    """
    st = data.stats
    v = np.append(-st.gls(0.0, 1.0), 1.0)  # GLS at lam = 0 is OLS
    rr = float(v @ st.zz_total @ v)
    rs2 = np.einsum("i,sij,j->s", v, st.ww, v)  # sum of (1'r)^2 per size
    ssw = rr - float(np.sum(rs2 / st.n))
    dfw = st.n_obs - data.n_clusters
    phi0 = ssw / dfw if dfw > 0 and ssw > 0 else float(np.var(data.y)) or 1.0
    lam0 = float(np.sum(rs2 / st.n**2)) / data.n_clusters - phi0 * data.n_clusters / st.n_obs
    n_max = int(st.n[-1])
    if phi0 + n_max * lam0 <= 0:
        lam0 = -0.5 * phi0 / n_max
    return lam0, phi0


def fit_ml(data: Dataset, max_iter: int = 500, xtol: float = 1e-9) -> FitResult:
    """Maximize loglik_cs over {phi > 0, phi + n_i*lam > 0 for all i}.

    Nelder-Mead over (lam, log phi) with profiled xi; infeasible or
    ill-conditioned points get a large rejection penalty. Never restricts lam
    to be nonnegative. The simplex stops when its vertices are within xtol
    and their objective values within FTOL_REL of the objective's magnitude:
    an absolute tolerance would sit below the rounding of a log-likelihood
    summed over many clusters.
    """
    from scipy.optimize import minimize

    if data.n_clusters < 2:
        raise DomainError("fitting requires at least two clusters")
    st = data.stats
    n_max = int(st.n[-1])
    if n_max == 1:
        raise DomainError(
            "lam is unidentified: every cluster has a single observation"
        )

    def neg_loglik(z: np.ndarray) -> float:
        lam, phi = z[0], math.exp(z[1])
        worst = phi + n_max * lam
        if not (phi > 0 and worst > 0 and math.isfinite(phi)):
            return 1e10 * (1.0 + abs(worst))
        try:
            return -st.loglik(st.gls(lam, phi), lam, phi)
        except RankDeficiencyError:
            return 1e10

    lam0, phi0 = _moment_start(data)
    z0 = np.array([lam0, math.log(phi0)])
    res = minimize(
        neg_loglik,
        z0,
        method="Nelder-Mead",
        options={
            "maxiter": max_iter,
            "xatol": xtol,
            "fatol": FTOL_REL * max(1.0, abs(neg_loglik(z0))),
        },
    )
    lam, phi = res.x[0], math.exp(res.x[1])
    xi = gls_mean(data, lam, phi)
    params = CSParams(xi=xi, lam=lam, phi=phi)
    active = phi < BOUNDARY_TOL or bool(np.any(phi + st.n * lam < BOUNDARY_TOL))
    return FitResult(
        params=params,
        loglik=loglik_cs(data, params),
        converged=bool(res.success),
        iterations=int(res.nit),
        constraint_active=active,
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
        constraint_active=phi < BOUNDARY_TOL or phi + n * lam < BOUNDARY_TOL,
    )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _map_clusters(build, count: int, threads: int):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(build, range(count)))
    return [build(i) for i in range(count)]


def simulate_cs(
    params: CSParams, layout: SimLayout, seed: int, threads: int = 1
) -> Dataset:
    """Simulate from the compound-symmetry marginal model, bit-reproducibly.

    For lam >= 0 a real random intercept is drawn; for lam < 0 no hierarchy
    exists, so each cluster is sampled directly from N(X xi, lam*J + phi*I)
    via a Cholesky factor. Both branches share the marginal law.
    """
    sizes = layout.sizes()
    check = validate_cs(sizes, params.lam, params.phi)
    if not check:
        raise DomainError(check.message)
    lam, phi = params.lam, params.phi
    chols = {}
    if lam < 0:
        for n in set(sizes):
            v = np.full((n, n), lam) + phi * np.eye(n)
            chols[n] = np.linalg.cholesky(v)
    X, offsets = layout.design_matrix(), np.cumsum([0] + sizes).tolist()
    mean = X @ params.xi
    y = np.empty(len(mean))

    def build(i: int) -> None:
        a, n = offsets[i], sizes[i]
        rng = substream(seed, i)
        if lam >= 0:
            b = rng.normal(0.0, math.sqrt(lam)) if lam > 0 else 0.0
            y[a : a + n] = mean[a : a + n] + b + rng.normal(0.0, math.sqrt(phi), size=n)
        else:
            y[a : a + n] = mean[a : a + n] + chols[n] @ rng.standard_normal(n)

    _map_clusters(build, layout.n_clusters, threads)
    return Dataset.from_columns(y, X, sizes)


@dataclass(frozen=True)
class Latents:
    """simulate_extended's b per cluster and eps per row; item i is (b_i, eps_i)."""

    b: np.ndarray
    eps: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.b)

    def __getitem__(self, i: int) -> tuple[float, np.ndarray]:
        i = range(len(self.b))[i]
        return float(self.b[i]), self.eps[self.offsets[i] : self.offsets[i + 1]]


def simulate_extended(
    spec: ExtendedSpec,
    xi: np.ndarray,
    layout: SimLayout,
    seed: int,
    threads: int = 1,
) -> tuple[Dataset, Latents]:
    """Simulate from the alpha-indexed hierarchy; returns data plus latents.

    (b, eps) are drawn jointly from the (n+1)-dimensional Gaussian through a
    rank-revealing eigenfactorization, so the rank-deficient boundary
    |alpha| = 1 is handled without failure. Latents are (b_i, eps_i) per
    cluster, aligned with the returned dataset.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    sizes = layout.sizes()
    factors = {}
    for n in set(sizes):
        c = joint_cov(spec, n).array
        w, u = np.linalg.eigh(c)
        scale = max(1.0, float(w.max()))
        if w.min() < -1e-9 * scale:
            raise DomainError(
                f"joint covariance for n = {n} is not PSD: eigenvalue {w.min()}"
            )
        factors[n] = u * np.sqrt(np.clip(w, 0.0, None))
    X, offsets = layout.design_matrix(), np.cumsum([0] + sizes).tolist()
    mean = X @ xi
    y, eps, b = np.empty(len(mean)), np.empty(len(mean)), np.empty(len(sizes))

    def build(i: int) -> None:
        a, n = offsets[i], sizes[i]
        rng = substream(seed, i)
        v = factors[n] @ rng.standard_normal(n + 1)
        b[i], eps[a : a + n] = v[0], v[1:]
        y[a : a + n] = mean[a : a + n] + float(v[0]) + v[1:]

    _map_clusters(build, layout.n_clusters, threads)
    data = Dataset.from_columns(y, X, sizes)
    return data, Latents(b, eps, data.offsets)
