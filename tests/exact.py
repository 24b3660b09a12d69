"""The tests' exact references, each written once; a new one goes here. The decimal ones
take float inputs as exact, work at prec digits and return a Decimal, so a caller rounds
once. scipy is imported only where it is used."""

import decimal
import itertools
import math

import numpy as np

from unobs_lab.model_core import Dataset

D = decimal.Decimal
PI = D("3.1415926535897932384626433832795028841971693993751")


def digits(prec: int):
    """A decimal context of prec digits where an overflow gives Infinity, for `with`."""
    return decimal.localcontext(decimal.Context(prec, traps=[decimal.InvalidOperation,
                                                             decimal.DivisionByZero]))


def claim1(lambda2: float, nu2: float, alpha: float, n: int, prec: int = 50):
    """Claim (1) at cluster size n: d, tau, the shrinkage c and the slack d*nu2 - n*tau^2,
    written nu2*(lambda2 + nu2)*(1 - alpha^2) - (n - 1)*tau^2 to be 0 at n = 1, |alpha| = 1."""
    with digits(prec):
        lambda2, nu2, alpha = D(lambda2), D(nu2), D(alpha)
        s = nu2.sqrt() * alpha * (lambda2 + nu2).sqrt()
        d, tau = lambda2 + 2 * nu2 + 2 * s, -(nu2 + s)
        slack = nu2 * (lambda2 + nu2) * (1 - alpha * alpha) - (n - 1) * tau * tau
        return d, tau, n * (d + tau) / (nu2 + n * lambda2), slack


def least_eigenvalue(lambda2: float, nu2: float, alpha: float, n: int, prec: int = 50):
    """The joint covariance of (b, eps)'s eigenvalue that may be below 0: slack/top, top =
    (d + nu2)/2 + sqrt(((d - nu2)/2)^2 + n*tau^2). The others are nu2."""
    d, tau, _, slack = claim1(lambda2, nu2, alpha, n, prec)
    with digits(prec):
        return slack / ((d + D(nu2)) / 2 + (((d - D(nu2)) / 2) ** 2 + n * tau * tau).sqrt())


def a_n(lambda2: float, nu2: float, n: int, prec: int = 50):
    """A_n's ends (lo, hi), the alphas whose (b, eps) law exists at cluster size n, or None
    where A_n is empty: u = nu2 + nu*alpha*s, s = sqrt(lambda2 + nu2), lies in
    [(nu2 - R)/n, (nu2 + R)/n], R = sqrt(nu2*(nu2 + n*lambda2)), so alpha = (u - nu2)/(nu*s),
    cut to [-1, 1]."""
    with digits(prec):
        lambda2, nu2 = D(lambda2), D(nu2)
        m = nu2 + n * lambda2
        if m < 0:
            return None
        r, nu_s = (nu2 * m).sqrt(), (nu2 * (lambda2 + nu2)).sqrt()
        lo, hi = (((nu2 + sign * r) / n - nu2) / nu_s for sign in (-1, 1))
        lo, hi = max(lo, D(-1)), min(hi, D(1))
        return (lo, hi) if lo <= hi else None


def cs_root_lam(n: int, lam: float, phi: float, prec: int = 50):
    """The a of CSMatrix.sqrt's a*J + sqrt(phi)*I: (sqrt(phi + n*lam) - sqrt(phi))/n."""
    with digits(prec):
        return ((D(phi) + n * D(lam)).sqrt() - D(phi).sqrt()) / n


def quantile(phi: float, rho: float, delta: float, u: float, prec: int = 50):
    """The Weibull-exponential quantile t^(1/rho), t = delta*u / (phi*(1 - u)), as
    exp(log(t)/rho): a non-integer power costs decimal half again as much."""
    with digits(prec):
        return ((D(u) * D(delta) / ((1 - D(u)) * D(phi))).ln() / D(rho)).exp()


def running_means(phi: float, rho: float, delta: float, us, prec: int = 50) -> list:
    """The mean of the quantiles at us[:i], for each i, from one running sum."""
    with digits(prec):
        sums = itertools.accumulate(quantile(phi, rho, delta, u, prec) for u in us)
        return [s / i for i, s in enumerate(sums, 1)]


def ratio_pow(num: float, den: float, r: float, prec: int = 50):
    """(num/den)^r, the power heavytail._ratio_pow forms."""
    with digits(prec):
        return (D(num) / D(den)) ** D(r)


def moment(phi: float, rho: float, delta: float, k: int, prec: int = 50):
    """E(Y^k) for k < rho: r*pi/sin(pi*r)*(delta/phi)^r, r = k/rho, the factor in floats."""
    r = k / rho
    with digits(prec):
        return D(r * math.pi / math.sin(math.pi * r)) * ratio_pow(delta, phi, r, prec)


def moment_log10(phi: float, rho: float, delta: float, k: int, prec: int = 50):
    """log10 of E(Y^k) for k < rho, with r = k/rho in decimal and sin(pi*r) in floats."""
    with digits(prec):
        r = D(k) / D(rho)
        sin = D(math.sin(math.pi * float(r)))
        return (r * (D(delta) / D(phi)).ln() + (r * PI / sin).ln()) / D(10).ln()


def moment_at_k_equal_rho(phi: float, rho: float, delta: float, T: float, prec: int = 60):
    """E(Y^k; Y <= T) at integer k = rho: (delta/phi)*(log(1 + u) - u/(1 + u)), u =
    phi*T^rho/delta, with 2*|log10 u| more digits for u < 1, where it is about u^2/2."""
    with digits(prec) as ctx:
        u = D(phi) * D(T) ** int(rho) / D(delta)
        ctx.prec -= 2 * min(u.adjusted(), 0)
        return D(delta) / D(phi) * ((1 + u).ln() - u / (1 + u))


def moment_by_quadrature(spec, k: int) -> float:
    """E(Y^k) by quad in u = phi*y^rho/delta: c*u^r/(1 + u)^2 on [0, inf), c = (delta/phi)^r."""
    from scipy.integrate import quad

    r = k / spec.rho
    c = (spec.delta / spec.phi) ** r
    val, err = quad(lambda u: c * u**r / (1.0 + u) ** 2, 0.0, np.inf, limit=500)
    assert err < 1e-8
    return val


def intercept_dataset(clusters) -> Dataset:
    """Intercept-only Dataset from lists of y values, or from {cluster id: y values}."""
    ids = list(clusters) if isinstance(clusters, dict) else None
    rows = [np.asarray(r, dtype=float) for r in (clusters if ids is None else clusters.values())]
    sizes = [len(r) for r in rows]
    return Dataset(np.concatenate(rows), np.ones((sum(sizes), 1)), sizes, ids)


def cluster_blocks(data):
    """(y, X) of each cluster."""
    cuts = data.offsets[1:-1]
    return zip(np.split(data.y, cuts), np.split(data.X, cuts))


def dense_gls(data, lam: float, phi: float):
    """GLS through an explicit per-cluster solve with V = lam*J + phi*I."""
    A, b = np.zeros((data.p, data.p)), np.zeros(data.p)
    for y, X in cluster_blocks(data):
        v = np.full((len(y), len(y)), lam) + phi * np.eye(len(y))
        A += X.T @ np.linalg.solve(v, X)
        b += X.T @ np.linalg.solve(v, y)
    return np.linalg.solve(A, b)


def expected(row, *columns) -> str:
    """The row writers' text by Python's % operator on each row of Python values."""
    lists = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    return "".join(row % r for r in zip(*lists))


def expected_csv(data) -> str:
    """write_dataset_csv's text: per row its cluster id, unit 1..size, y and x1..xp."""
    sizes = data.sizes.tolist()
    ids = [cid for cid, n in zip(data.cluster_ids, sizes) for _ in range(n)]
    head = "cluster,unit,y," + ",".join(f"x{j + 1}" for j in range(data.p)) + "\n"
    return head + expected("%s,%d" + ",%.17g" * (data.p + 1) + "\n", ids,
                           [u + 1 for n in sizes for u in range(n)], data.y, *data.X.T)
