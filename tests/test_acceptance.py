"""End-to-end acceptance suite.

One test per criterion; each prints a single ``criterion NN ...: PASS/FAIL``
line (visible under ``pytest -s``) and the test name itself doubles as the
pass/fail line under ``pytest -v``.
"""

import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from exact import moment_by_quadrature
import unobs_lab.equivalence as eq
import unobs_lab.estimation as est
import unobs_lab.heavytail as ht
from unobs_lab.cs import CSMatrix
from unobs_lab.model_core import CSParams


class criterion:
    """Context manager emitting one pass/fail line per acceptance criterion."""

    def __init__(self, num, label):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num:2d} [{self.label}]: {status}")
        return False


def random_grid(size=1000, seed=20240817):
    """Valid (lambda2, nu2, alpha, n) points with n <= 8 and PD marginals."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(size):
        nu2 = rng.uniform(0.1, 3.0)
        lambda2 = rng.uniform(-nu2 / 10.0, 4.0)  # keeps nu2 + 8*lambda2 > 0
        alpha = rng.uniform(-1.0, 1.0)
        n = int(rng.integers(1, 9))
        pts.append((lambda2, nu2, alpha, n))
    return pts


GRID = random_grid()


def test_criterion_01_marginal_invariance():
    with criterion(1, "marginal invariance"):
        worst = 0.0
        for lambda2, nu2, alpha, n in GRID:
            spec = eq.ExtendedSpec(lambda2=lambda2, nu2=nu2, alpha=alpha)
            got = eq.marginal_cov_extended(spec, n).array
            want = CSMatrix(n, lambda2, nu2).array
            worst = max(worst, np.max(np.abs(got - want)))
        assert worst <= 1e-12, worst


def test_criterion_02_decomposition_identities():
    with criterion(2, "decomposition identities"):
        for lambda2, nu2, alpha, n in GRID:
            d, tau = eq.derive_d_tau(lambda2, nu2, alpha)
            assert abs(d + 2.0 * tau - lambda2) <= 1e-12
            var_row, _ = eq.decomposition_table(lambda2, nu2, alpha)
            assert abs(var_row.total - (lambda2 + nu2)) <= 1e-12
            slack = eq.psd_slack(eq.ExtendedSpec(lambda2, nu2, alpha))
            target = nu2 * (lambda2 + nu2) * (1.0 - alpha * alpha)
            assert abs(slack - target) <= 1e-12


def test_criterion_03_negative_component_and_tau_zero():
    with criterion(3, "negative-lambda2 tau sign / tau=0 member"):
        alphas = np.linspace(-1.0, 1.0, 21)
        rng = np.random.default_rng(5)
        # tau < 0 for every alpha whenever lambda2 in (-nu2, 0)
        for _ in range(200):
            nu2 = rng.uniform(0.1, 3.0)
            lambda2 = rng.uniform(-nu2 * 0.999, -1e-6)
            for alpha in alphas:
                _, tau = eq.derive_d_tau(lambda2, nu2, alpha)
                assert tau < 0.0
        # for lambda2 >= 0 the choice alpha* = -nu/s makes tau vanish
        for lambda2, nu2, alpha, n in GRID:
            if lambda2 < 0:
                continue
            alpha_star = -math.sqrt(nu2) / math.sqrt(lambda2 + nu2)
            _, tau = eq.derive_d_tau(lambda2, nu2, alpha_star)
            assert abs(tau) < 1e-12


def test_criterion_04_equivalence_pair_exact():
    with criterion(4, "equivalence pair exact"):
        rng = np.random.default_rng(11)
        n_invalid = 0
        for _ in range(1000):
            lambda2 = rng.uniform(0.0, 5.0)
            nu1sq = rng.uniform(0.05, 4.0)
            # keep nu2sq within the exact-subtraction range of nu1sq
            nu2sq = nu1sq * rng.uniform(0.51, 1.99)
            spec_a = eq.SpecA(lambda2=lambda2, nu1sq=nu1sq, nu2sq=nu2sq)
            spec_b = eq.map_a_to_b(spec_a)
            if not spec_b.is_valid_hierarchy:
                n_invalid += 1
            assert np.array_equal(eq.v1_matrix(spec_a), eq.v2_matrix(spec_b))
        assert n_invalid > 100  # hierarchy-invalid images are exercised too


def test_criterion_05_likelihood_invariance_eb_sensitivity():
    with criterion(5, "likelihood invariance vs EB sensitivity"):
        lambda2, nu2 = 0.6, 1.0
        params = CSParams(xi=np.array([0.5]), lam=lambda2, phi=nu2)
        layout = est.SimLayout(n_clusters=50, cluster_size=3)
        data = est.simulate_cs(params, layout, seed=314)
        alphas = [-1.0, -0.5, 0.0, 0.5, 1.0]
        logliks, shrinkages = [], []
        for alpha in alphas:
            spec = eq.ExtendedSpec(lambda2=lambda2, nu2=nu2, alpha=alpha)
            d, tau = spec.d, spec.tau
            marginal = CSParams(xi=np.array([0.5]), lam=d + 2.0 * tau, phi=nu2)
            logliks.append(est.loglik_cs(data, marginal))
            shrinkages.append(eq.eb_shrinkage(spec, 3))
        assert max(logliks) - min(logliks) <= 1e-12
        diffs = np.diff(shrinkages)
        assert np.all(diffs > 0.0)  # strictly monotone in alpha
        assert np.max(np.abs(diffs - diffs[0])) <= 1e-10  # collinear


def test_criterion_06_fit_vs_closed_form():
    with criterion(6, "ML fit vs closed form"):
        layout = est.SimLayout(n_clusters=60, cluster_size=3)
        n_negative = 0
        for rep in range(20):
            lam = 0.8 if rep < 12 else -0.25
            params = CSParams(xi=np.array([1.0]), lam=lam, phi=1.0)
            data = est.simulate_cs(params, layout, seed=1000 + rep)
            full = est.fit_ml(data)
            closed = est.fit_balanced_closed_form(data)
            assert abs(full.params.lam - closed.params.lam) < 1e-6
            assert abs(full.params.phi - closed.params.phi) < 1e-6
            assert np.max(np.abs(full.params.xi - closed.params.xi)) < 1e-6
            if closed.params.lam < 0:
                n_negative += 1
        assert n_negative >= 5


def test_criterion_07_moment_formula_vs_quadrature():
    with criterion(7, "moment formula vs quadrature"):
        cases = [(2.0, 1, 1.0, 1.0), (3.0, 1, 1.0, 1.0), (3.0, 2, 1.0, 1.0), (2.5, 2, 2.0, 3.0)]
        for rho, k, delta, phi in cases:
            spec = ht.WeibullExpSpec(phi=phi, rho=rho, delta=delta)
            analytic = ht.we_moment(spec, k)
            assert analytic.integral_finite
            assert abs(analytic.value - moment_by_quadrature(spec, k)) < 1e-5
        half_pi = ht.we_moment(ht.WeibullExpSpec(phi=1.0, rho=2.0, delta=1.0), 1)
        assert abs(half_pi.value - math.pi / 2.0) < 1e-6


def test_criterion_08_cauchy_type_pathology():
    with criterion(8, "no finite moments at rho=1 / log growth"):
        spec = ht.WeibullExpSpec(phi=1.0, rho=1.0, delta=1.0)
        for k in range(1, 7):
            assert not ht.we_moment(spec, k).integral_finite
        growth = ht.truncated_moment(spec, 1, 1e6) - ht.truncated_moment(spec, 1, 1e3)
        assert abs(growth - math.log(1e3)) < 0.01


def test_criterion_09_pole_detection():
    with criterion(9, "gamma-pole detection"):
        assert ht.wg_moment_defined(1.0, 1.0, 1) is False
        m = ht.we_moment(ht.WeibullExpSpec(phi=1.0, rho=1.0, delta=1.0), 1)
        assert m.formula_defined is False
        spec = ht.WeibullExpSpec(phi=1.0, rho=math.pi, delta=1.0)
        for k in range(1, 11):
            m = ht.we_moment(spec, k)
            assert m.formula_defined
            assert m.integral_finite == (k < math.pi)


def test_criterion_10_sampler_distribution_agreement():
    with criterion(10, "sampler / distribution agreement"):
        n = 100_000
        crit = math.sqrt(-0.5 * math.log(0.001 / 2.0)) / math.sqrt(n)
        spec = ht.WeibullExpSpec(phi=1.0, rho=1.5, delta=2.0)
        draws = ht.we_sample(spec, n, seed=2718)
        d_stat = stats.kstest(draws, lambda y: ht.we_cdf(spec, y)).statistic
        assert d_stat < crit
        pit = ht.pit_sample(lambda u: ht.we_quantile(spec, u), n, seed=1618)
        d_pit = stats.kstest(pit, lambda y: ht.we_cdf(spec, y)).statistic
        assert d_pit < crit


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "unobs_lab.cli", *args], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha256(proc.stdout).hexdigest()


def test_criterion_11_byte_determinism():
    with criterion(11, "byte-level determinism"):
        sim = [
            "simulate", "--model", "extended", "--lambda2", "1.5", "--nu2", "1",
            "--alpha", "0.1", "--n-clusters", "80", "--cluster-size", "2",
            "--seed", "42",
        ]
        trace = [
            "heavytail", "trace", "--phi", "1", "--rho", "1", "--delta", "1",
            "--n", "20000", "--stride", "100", "--seed", "9",
        ]
        for cmd in (sim, trace):
            assert _run_cli(cmd) == _run_cli(cmd)
