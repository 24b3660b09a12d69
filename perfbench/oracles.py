"""Oracles for the benchmark's CLI outputs, written without the package.

Every check reads the files the CLI wrote and recomputes the expected
result from the formulas in PAPER.md with numpy/scipy only. A check raises
``CheckFailed`` with a one-line reason; the benchmark counts that call as
failed. Statistical checks use six standard errors (or a KS bound with a
false-alarm rate below 1e-7), so a correct program fails them essentially
never, whatever the seed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import gamma

LOG_2PI = math.log(2.0 * math.pi)
Z = 6.0  # standard errors allowed in statistical checks
KS_C = 3.0  # KS bound c/sqrt(n); P(D > 3/sqrt(n)) ~ 3e-8


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


class KnownDefect(Exception):
    """The output is right except for a documented defect (counted as xfail)."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(got, want, rtol: float, what: str, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want)
    tol = atol + rtol * np.abs(want)
    if not np.all(err <= tol):
        i = int(np.argmax(err - tol))
        raise CheckFailed(
            f"{what}: got {got.ravel()[i]!r}, want {want.ravel()[i]!r} "
            f"(rtol {rtol:g}, atol {atol:g})"
        )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read())


def read_lines_of_floats(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array(fh.read().split(), dtype=float)


def read_long_csv(path, n_clusters: int, sizes: np.ndarray, p: int):
    """Parse ``cluster,unit,y,x1..xp`` and check the layout the writer promises."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        body = fh.read()
    want = ",".join(["cluster", "unit", "y"] + [f"x{j + 1}" for j in range(p)])
    require(header == want, f"header {header!r} != {want!r}")
    n_obs = int(sizes.sum())
    rows = body.count("\n")
    require(rows == n_obs, f"{rows} data rows, expected {n_obs}")
    require(body.count(",") == n_obs * (2 + p), "a data row has the wrong width")
    cells = body.replace(",", "\n").split("\n")[:-1]
    width = 3 + p
    ids = np.repeat(np.arange(1, n_clusters + 1), sizes)
    require(cells[0::width] == [f"c{i}" for i in ids], "cluster ids are not c1..cN in order")
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    require(
        np.array_equal(np.array(cells[1::width], dtype=np.int64), np.arange(n_obs) - starts + 1),
        "unit column is not 1..n within each cluster",
    )
    y = np.array(cells[2::width], dtype=float)
    X = np.array(cells[3::width] if p == 1 else [cells[3 + j :: width] for j in range(p)],
                 dtype=float).reshape(p, n_obs).T
    require(bool(np.all(np.isfinite(y)) and np.all(np.isfinite(X))), "non-finite value")
    return y, X


# ---------------------------------------------------------------------------
# Closed forms of the alpha-indexed family
# ---------------------------------------------------------------------------


def d_tau(lambda2: float, nu2: float, alpha: float) -> tuple[float, float]:
    """d = (s + nu*alpha)^2 + nu2*(1 - alpha^2), tau = -(nu2 + nu*alpha*s)."""
    nu, s = math.sqrt(nu2), math.sqrt(lambda2 + nu2)
    return (s + nu * alpha) ** 2 + nu2 * (1.0 - alpha * alpha), -(nu2 + nu * alpha * s)


def shrinkage(lambda2: float, nu2: float, alpha: float, n: int) -> float:
    """c = n*(d + tau) / (nu2 + n*lambda2), with d + tau = lambda2 + nu2 + nu*alpha*s."""
    nu, s = math.sqrt(nu2), math.sqrt(lambda2 + nu2)
    return n * (lambda2 + nu2 + nu * alpha * s) / (nu2 + n * lambda2)


def _family_scale(lambda2: float, nu2: float) -> float:
    # largest intermediate in d, tau: rounding errors scale with it
    return abs(lambda2) + 2.0 * nu2 + 2.0 * math.sqrt(nu2 * (lambda2 + nu2))


def check_eb(path, lambda2, nu2, alpha, n) -> None:
    rec = read_json(path)
    d, tau = d_tau(lambda2, nu2, alpha)
    tol = 1e-13 * _family_scale(lambda2, nu2)
    close(rec["d"], d, 0.0, "eb d", atol=tol)
    close(rec["tau"], tau, 0.0, "eb tau", atol=tol)
    close(rec["shrinkage"], shrinkage(lambda2, nu2, alpha, n), 1e-12, "eb shrinkage")


def check_equivalence(path, lambda2, nu2, grid, n) -> None:
    """Alpha-invariance of marginal_cov and linearity of the shrinkage."""
    recs = read_json(path)
    require(len(recs) == len(grid), f"{len(recs)} records for {len(grid)} alphas")
    tol = 1e-13 * _family_scale(lambda2, nu2)
    want = np.full((n, n), lambda2) + nu2 * np.eye(n)
    covs = []
    for rec, alpha in zip(recs, grid):
        require(rec["alpha"] == alpha, f"alpha {rec['alpha']!r} != {alpha!r}")
        d, tau = d_tau(lambda2, nu2, alpha)
        close(rec["d"], d, 0.0, f"d at alpha={alpha}", atol=tol)
        close(rec["tau"], tau, 0.0, f"tau at alpha={alpha}", atol=tol)
        close(rec["slack"], d * nu2 - tau * tau, 0.0, "psd slack", atol=tol * (1 + d + nu2))
        mc = np.array(rec["marginal_cov"], dtype=float).reshape(n, n)
        close(mc, want, 0.0, f"marginal_cov at alpha={alpha}", atol=tol)
        covs.append(mc)
        var, cov = rec["decomposition"]["variance"], rec["decomposition"]["covariance"]
        close(var["total"], lambda2 + nu2, 0.0, "variance total", atol=tol)
        close(cov["total"], lambda2, 0.0, "covariance total", atol=tol)
    spread = max(float(np.max(np.abs(c - covs[0]))) for c in covs)
    require(spread <= tol, f"marginal_cov varies with alpha by {spread:.3e}")
    alphas = np.array(grid)
    c = np.array([rec["shrinkage"] for rec in recs], dtype=float)
    close(c, [shrinkage(lambda2, nu2, a, n) for a in grid], 1e-12, "shrinkage")
    slope, icept = np.polyfit(alphas, c, 1)
    resid = float(np.max(np.abs(c - (slope * alphas + icept))))
    require(resid <= 1e-12 * float(np.max(np.abs(c))), f"shrinkage not linear: {resid:.3e}")


def check_moments(path, phi, rho, delta, ks) -> None:
    """Tri-state (formula defined, integral finite) and values via scipy gamma."""
    recs = read_json(path)
    require([r["k"] for r in recs] == list(ks), "moment orders differ from --k")
    for rec in recs:
        k = rec["k"]
        r = k / rho
        pole = abs(r - round(r)) <= 1e-9 and r >= 0.5  # Gamma(1 - r) at 0, -1, ...
        finite = k < rho
        require(rec["formula_defined"] is (not pole), f"k={k}: formula_defined wrong")
        require(rec["integral_finite"] is finite, f"k={k}: integral_finite wrong")
        if finite:
            want = r * (delta / phi) ** r * gamma(1.0 - r) * gamma(r)
            close(rec["value"], want, 1e-10, f"E(Y^{k})")
        else:
            require(rec["value"] is None, f"k={k}: value present for an infinite moment")


# ---------------------------------------------------------------------------
# Simulation outputs
# ---------------------------------------------------------------------------


def anova(y: np.ndarray, n_clusters: int, n: int):
    """One-way ANOVA ML for balanced intercept-only data: (mu, lam, phi)."""
    Y = y.reshape(n_clusters, n)
    means = Y.mean(axis=1)
    mu = float(Y.mean())
    ssw = float(np.sum((Y - means[:, None]) ** 2))
    ssb = n * float(np.sum((means - mu) ** 2))
    phi = ssw / (n_clusters * (n - 1))
    return mu, ssb / (n_clusters * n) - phi / n, phi


def check_cs_truth(y, n_clusters, n, mu, lam, phi, what) -> None:
    """ANOVA estimates lie within Z standard errors of the simulation truth."""
    mu_h, lam_h, phi_h = anova(y, n_clusters, n)
    big = phi + n * lam
    se_mu = math.sqrt(big / (n_clusters * n))
    se_phi = phi * math.sqrt(2.0 / (n_clusters * (n - 1)))
    se_lam = math.sqrt(2.0 * big**2 / n_clusters + se_phi**2) / n
    for name, got, want, se in (
        ("mean", mu_h, mu, se_mu),
        ("lambda", lam_h, lam, se_lam),
        ("phi", phi_h, phi, se_phi),
    ):
        require(
            abs(got - want) <= Z * se,
            f"{what}: {name} estimate {got:.6g} vs truth {want:.6g} (> {Z:g} SE = {se:.3g})",
        )


def check_simulate_cs(path, n_clusters, n, lam, phi) -> None:
    y, X = read_long_csv(path, n_clusters, np.full(n_clusters, n), 1)
    require(bool(np.all(X == 1.0)), "intercept column is not all ones")
    check_cs_truth(y, n_clusters, n, 0.0, lam, phi, "simulate cs")


def check_simulate_extended(path, latent_path, n_clusters, n, lambda2, nu2, alpha) -> None:
    """y = b + eps per row, (b, eps) ~ N(0, joint cov), y marginally CS(lambda2, nu2)."""
    y, _ = read_long_csv(path, n_clusters, np.full(n_clusters, n), 1)
    with open(latent_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = "cluster,b," + ",".join(f"eps{j + 1}" for j in range(n))
    require(lines[0] == header, f"latent header {lines[0]!r}")
    require(len(lines) == n_clusters + 1, "latent file has the wrong row count")
    lat = np.array([line.split(",")[1:] for line in lines[1:]], dtype=float)
    b, eps = lat[:, 0], lat[:, 1:]
    close(y.reshape(n_clusters, n), b[:, None] + eps, 1e-15, "y vs b + eps", atol=1e-15)
    d, tau = d_tau(lambda2, nu2, alpha)
    want = nu2 * np.eye(n + 1)
    want[0, 0] = d
    want[0, 1:] = want[1:, 0] = tau
    got = lat.T @ lat / n_clusters
    se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / n_clusters)
    worst = np.max(np.abs(got - want) / se)
    require(worst <= Z, f"latent covariance off by {worst:.2f} SE")
    check_cs_truth(y, n_clusters, n, 0.0, lambda2, nu2, "simulate extended")


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------


def loglik_cs(y, X, cluster, xi, lam, phi) -> float:
    """Rank-one CS log-likelihood, vectorised over clusters with bincount."""
    r = y - X @ np.asarray(xi, dtype=float)
    n = np.bincount(cluster).astype(float)
    rs = np.bincount(cluster, weights=r)
    rr = np.bincount(cluster, weights=r * r)
    quad = rr / phi - lam * rs * rs / (phi * (phi + n * lam))
    logdet = (n - 1.0) * math.log(phi) + np.log(phi + n * lam)
    return float(-0.5 * np.sum(n * LOG_2PI + logdet + quad))


def _fit_record(path):
    rec = read_json(path)
    require(rec["constraint_active"] is False, "fit reports an active PD constraint")
    for key in ("lambda", "phi", "loglik"):
        require(math.isfinite(rec[key]), f"{key} is not finite")
    return rec


def _converged(rec) -> None:
    """Called last: the likelihood checks have passed, so the fit is at the ML."""
    if rec["converged"] is not True:
        raise KnownDefect(
            f"converged=false after {rec['iterations']} iterations at the ML point: "
            f"Nelder-Mead's fatol 1e-12 is below the rounding of a loglik of "
            f"{abs(rec['loglik']):.1e}"
        )


def check_fit_balanced(path, y, n_clusters, n) -> None:
    """fit_ml on balanced intercept-only data reproduces the ANOVA ML."""
    rec = _fit_record(path)
    mu, lam, phi = anova(y, n_clusters, n)
    cluster = np.repeat(np.arange(n_clusters), n)
    ones = np.ones((len(y), 1))
    ll = loglik_cs(y, ones, cluster, [mu], lam, phi)
    close(rec["xi"][0], mu, 0.0, "fit mean", atol=1e-6 * math.sqrt(phi + n * abs(lam)))
    close(rec["lambda"], lam, 0.0, "fit lambda", atol=1e-5 * phi)
    close(rec["phi"], phi, 1e-5, "fit phi")
    close(rec["loglik"], ll, 1e-10, "fit loglik vs ANOVA maximum", atol=1e-6)
    reported = loglik_cs(y, ones, cluster, rec["xi"], rec["lambda"], rec["phi"])
    close(rec["loglik"], reported, 1e-12, "loglik at the reported params", atol=1e-7)
    _converged(rec)


def check_fit_unbalanced(path, y, X, cluster, truth) -> None:
    """Reported loglik is the likelihood at the reported params and beats the truth."""
    rec = _fit_record(path)
    ll_hat = loglik_cs(y, X, cluster, rec["xi"], rec["lambda"], rec["phi"])
    close(rec["loglik"], ll_hat, 1e-12, "loglik at the reported params", atol=1e-7)
    xi, lam, phi = truth
    ll_true = loglik_cs(y, X, cluster, xi, lam, phi)
    require(
        ll_hat >= ll_true - 1e-9 * abs(ll_true),
        f"ML loglik {ll_hat!r} is below the loglik at the truth {ll_true!r}",
    )
    _converged(rec)


# ---------------------------------------------------------------------------
# Heavy-tail samplers and the running-mean trace
# ---------------------------------------------------------------------------


def we_cdf(y, phi, rho, delta):
    return 1.0 - delta / (delta + phi * y**rho)


def check_we_draws(path, n, phi, rho, delta, what) -> np.ndarray:
    """n finite non-negative draws whose KS distance to F is below KS_C/sqrt(n)."""
    draws = read_lines_of_floats(path)
    require(len(draws) == n, f"{what}: {len(draws)} draws, expected {n}")
    require(bool(np.all(np.isfinite(draws)) and np.all(draws >= 0)), f"{what}: bad draw")
    u = np.sort(we_cdf(draws, phi, rho, delta))
    i = np.arange(1, n + 1)
    ks = max(float(np.max(i / n - u)), float(np.max(u - (i - 1) / n)))
    require(ks <= KS_C / math.sqrt(n), f"{what}: KS distance {ks:.4g} > {KS_C:g}/sqrt(n)")
    return draws


def check_trace(path, n, stride, sample) -> None:
    """Rows n = stride..N; rows within the sample equal its cumulative mean."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        body = np.array(fh.read().replace(",", " ").split(), dtype=float)
    require(header == "n,running_mean", f"trace header {header!r}")
    rows = body.reshape(-1, 2)
    require(len(rows) == n // stride, f"{len(rows)} trace rows, expected {n // stride}")
    require(
        np.array_equal(rows[:, 0], np.arange(stride, n + 1, stride, dtype=float)),
        "trace n column is not stride, 2*stride, ..., N",
    )
    m = len(sample) // stride
    want = np.cumsum(sample)[stride - 1 :: stride][:m] / rows[:m, 0]
    close(rows[:m, 1], want, 1e-9, "running mean vs cumulative mean of sample")
