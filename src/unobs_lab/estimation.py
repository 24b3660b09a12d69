"""ML fitting of the compound-symmetry marginal model and seeded simulation.

The likelihood never clamps lam at zero: negative between-component values
are legitimate as long as phi + n*lam > 0 for every cluster size. Fitting
profiles xi (by GLS) and phi out in closed form and searches the one scalar
left, r = lam/(lam+phi), over its open interval, which is exactly the PD
region. A closed-form one-way ANOVA estimator serves as the oracle on
balanced intercept-only data.

Simulation draws each cluster from its own counter-based substream, so
replicates are deterministic and cluster i's draws do not depend on how many
clusters are simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from unobs_lab.equivalence import ExtendedSpec, joint_cov
from unobs_lab.model_core import (
    CSParams,
    Dataset,
    DomainError,
    RankDeficiencyError,
    cs_covariance,
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

GRID = 63  # interior points of the r interval scanned before refining
XTOL = math.sqrt(np.finfo(float).eps)  # a maximum located from values alone
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def simulate_cs(params: CSParams, layout: SimLayout, seed: int) -> Dataset:
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
            chols[n] = np.linalg.cholesky(cs_covariance(n, lam, phi).array)
    X, offsets = layout.design_matrix(), np.cumsum([0] + sizes).tolist()
    mean = X @ params.xi
    y = np.empty(len(mean))
    for i, (a, n) in enumerate(zip(offsets, sizes)):
        rng = substream(seed, i)
        if lam >= 0:
            b = rng.normal(0.0, math.sqrt(lam)) if lam > 0 else 0.0
            y[a : a + n] = mean[a : a + n] + b + rng.normal(0.0, math.sqrt(phi), size=n)
        else:
            y[a : a + n] = mean[a : a + n] + chols[n] @ rng.standard_normal(n)
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
    spec: ExtendedSpec, xi: np.ndarray, layout: SimLayout, seed: int
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
        w, u = np.linalg.eigh(joint_cov(spec, n))
        scale = max(1.0, float(w.max()))
        if w.min() < -1e-9 * scale:
            raise DomainError(
                f"joint covariance for n = {n} is not PSD: eigenvalue {w.min()}"
            )
        factors[n] = u * np.sqrt(np.clip(w, 0.0, None))
    X, offsets = layout.design_matrix(), np.cumsum([0] + sizes).tolist()
    mean = X @ xi
    y, eps, b = np.empty(len(mean)), np.empty(len(mean)), np.empty(len(sizes))
    for i, (a, n) in enumerate(zip(offsets, sizes)):
        v = factors[n] @ substream(seed, i).standard_normal(n + 1)
        b[i], eps[a : a + n] = v[0], v[1:]
        y[a : a + n] = mean[a : a + n] + float(v[0]) + v[1:]
    data = Dataset.from_columns(y, X, sizes)
    return data, Latents(b, eps, data.offsets)
