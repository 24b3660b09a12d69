import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unobs_lab.equivalence import ExtendedSpec, eb_shrinkage, marginal_cov_extended
from unobs_lab.estimation import (
    FitResult,
    SimLayout,
    UnsupportedLayoutError,
    fit_balanced_closed_form,
    fit_ml,
    loglik_cs,
    simulate_cs,
    simulate_extended,
)
from unobs_lab.model_core import ClusterData, CSParams, Dataset, DomainError, gls_mean

# Monte-Carlo standard errors frozen from 200-replicate oracle runs
# (simulate_cs at lam=-0.3, phi=1, n=2, N=500; simulate_extended at
# lam2=1.5, nu2=1, alpha=0.3, n=2, N=400)
MC_SE_LAM_NEG = 0.036
MC_SE_LAM_EXT = 0.16
MC_SE_PHI_EXT = 0.07


def intercept_dataset(rows):
    clusters = tuple(
        ClusterData(cluster_id=f"c{i}", y=np.asarray(y, dtype=float), X=np.ones((len(y), 1)))
        for i, y in enumerate(rows)
    )
    return Dataset(clusters, ("x1",))


def dense_loglik(data, params):
    ll = 0.0
    for c in data.clusters:
        v = np.full((c.n, c.n), params.lam) + params.phi * np.eye(c.n)
        r = c.y - c.X @ params.xi
        sign, logdet = np.linalg.slogdet(v)
        assert sign > 0
        ll -= 0.5 * (c.n * math.log(2 * math.pi) + logdet + r @ np.linalg.solve(v, r))
    return ll


# ---------------------------------------------------------------------------
# loglik_cs
# ---------------------------------------------------------------------------


class TestLoglik:
    def test_standard_normal_point(self):
        data = intercept_dataset([[0.0]])
        got = loglik_cs(data, CSParams([0.0], 0.0, 1.0))
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)

    def test_two_zeros(self):
        data = intercept_dataset([[0.0, 0.0]])
        got = loglik_cs(data, CSParams([0.0], 2.0, 1.0))
        assert got == pytest.approx(
            -math.log(2 * math.pi) - 0.5 * math.log(5), abs=1e-14
        )

    def test_matches_dense_factorization(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            data = intercept_dataset(
                [rng.normal(size=rng.integers(1, 6)) for _ in range(4)]
            )
            n_max = max(data.cluster_sizes())
            phi = float(rng.uniform(0.3, 2.0))
            lam = float(rng.uniform(-phi / n_max + 1e-2, 2.0))
            params = CSParams([float(rng.normal())], lam, phi)
            assert loglik_cs(data, params) == pytest.approx(
                dense_loglik(data, params), abs=1e-10
            )

    def test_pd_violation_is_error_not_minus_inf(self):
        data = intercept_dataset([[0.0, 1.0]])
        with pytest.raises(DomainError):
            loglik_cs(data, CSParams([0.0], -0.5, 1.0))


# ---------------------------------------------------------------------------
# The sufficient-statistics kernel against a dense-V brute force
# ---------------------------------------------------------------------------


def dense_gls(data, lam, phi):
    """GLS through an explicit per-cluster solve with V = lam*J + phi*I."""
    A, b = np.zeros((data.p, data.p)), np.zeros(data.p)
    for c in data.clusters:
        v = np.full((c.n, c.n), lam) + phi * np.eye(c.n)
        A += c.X.T @ np.linalg.solve(v, c.X)
        b += c.X.T @ np.linalg.solve(v, c.y)
    return np.linalg.solve(A, b)


class TestKernelOracle:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_clusters=st.integers(3, 40),
        p=st.integers(1, 3),
        near_boundary=st.booleans(),
        margin=st.floats(1e-3, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_unbalanced_design_matches_dense(self, seed, n_clusters, p, near_boundary, margin):
        rng = np.random.default_rng(seed)
        clusters = []
        for _ in range(n_clusters):
            n = int(rng.integers(1, 9))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
            clusters.append((rng.normal(1.0, 2.0, size=n), X))
        data = Dataset(
            tuple(ClusterData(f"c{i}", y, X) for i, (y, X) in enumerate(clusters)),
            tuple(f"x{j + 1}" for j in range(p)),
        )
        n_max = max(data.cluster_sizes())
        phi = float(rng.uniform(0.3, 2.0))
        if near_boundary:  # phi + n_max*lam = margin*phi
            lam = -phi * (1.0 - margin) / n_max
        else:
            lam = float(rng.uniform(0.0, 3.0))
        want_xi = dense_gls(data, lam, phi)
        got_xi = gls_mean(data, lam, phi)
        assert np.max(np.abs(got_xi - want_xi)) <= 1e-10 * max(1.0, np.max(np.abs(want_xi)))
        params = CSParams(want_xi + rng.normal(0.0, 0.3, size=p), lam, phi)
        want = dense_loglik(data, params)
        got = loglik_cs(data, params)
        assert abs(got - want) <= 1e-10 * abs(want)


# ---------------------------------------------------------------------------
# fit_balanced_closed_form
# ---------------------------------------------------------------------------


class TestClosedForm:
    def test_zero_within_variation_boundary(self):
        data = intercept_dataset([[1.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(DomainError):
            fit_balanced_closed_form(data)

    def test_hand_arithmetic(self):
        data = intercept_dataset([[0.0, 2.0], [-1.0, 1.0]])
        res = fit_balanced_closed_form(data)
        assert res.params.xi == pytest.approx([0.5])
        assert res.params.phi == pytest.approx(2.0)
        assert res.params.lam == pytest.approx(-0.75)
        assert res.params.phi + 2 * res.params.lam == pytest.approx(0.5)
        assert res.loglik == pytest.approx(loglik_cs(data, res.params), abs=1e-12)

    def test_local_maximality(self):
        data = simulate_cs(CSParams([1.0], 0.8, 1.2), SimLayout(50, 3), seed=21)
        res = fit_balanced_closed_form(data)
        base = res.loglik
        for dlam, dphi, dmu in [
            (1e-4, 0, 0), (-1e-4, 0, 0), (0, 1e-4, 0), (0, -1e-4, 0),
            (0, 0, 1e-4), (0, 0, -1e-4),
        ]:
            perturbed = CSParams(
                res.params.xi + dmu, res.params.lam + dlam, res.params.phi + dphi
            )
            assert loglik_cs(data, perturbed) <= base

    def test_unbalanced_rejected(self):
        data = intercept_dataset([[1.0, 2.0], [3.0]])
        with pytest.raises(UnsupportedLayoutError):
            fit_balanced_closed_form(data)

    def test_non_intercept_rejected(self):
        c = ClusterData("a", [1.0, 2.0], np.array([[1.0, 0.0], [1.0, 1.0]]))
        d = ClusterData("b", [1.0, 2.0], np.array([[1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(UnsupportedLayoutError):
            fit_balanced_closed_form(Dataset((c, d), ("x1", "x2")))


# ---------------------------------------------------------------------------
# fit_ml
# ---------------------------------------------------------------------------


class TestFitMl:
    def test_matches_closed_form(self):
        data = simulate_cs(CSParams([0.5], 1.0, 1.0), SimLayout(200, 2), seed=42)
        got = fit_ml(data)
        oracle = fit_balanced_closed_form(data)
        assert got.params.lam == pytest.approx(oracle.params.lam, abs=1e-6)
        assert got.params.phi == pytest.approx(oracle.params.phi, abs=1e-6)
        assert got.params.xi[0] == pytest.approx(oracle.params.xi[0], abs=1e-6)
        assert got.converged

    def test_recovers_negative_lambda(self):
        data = simulate_cs(CSParams([0.0], -0.3, 1.0), SimLayout(500, 2), seed=101)
        got = fit_ml(data)
        assert got.params.lam < 0
        assert abs(got.params.lam - (-0.3)) < 3 * MC_SE_LAM_NEG
        assert not got.constraint_active

    def test_uncorrelated_data_gives_near_zero_lambda(self):
        data = simulate_cs(CSParams([0.0], 0.0, 1.0), SimLayout(2000, 2), seed=5)
        got = fit_ml(data)
        assert abs(got.params.lam) < 0.05
        assert not got.constraint_active

    def test_loglik_recomputes(self):
        data = simulate_cs(CSParams([0.0], 0.5, 1.0), SimLayout(50, 2), seed=3)
        got = fit_ml(data)
        assert got.loglik == pytest.approx(loglik_cs(data, got.params), abs=1e-8)

    def test_all_singletons_unidentified(self):
        data = intercept_dataset([[1.0], [2.0], [3.0]])
        with pytest.raises(DomainError, match="unidentified"):
            fit_ml(data)

    def test_needs_two_clusters(self):
        data = intercept_dataset([[1.0, 2.0]])
        with pytest.raises(DomainError):
            fit_ml(data)

    def test_converges_at_large_loglik_near_boundary(self):
        # |loglik| ~ 5e4: the search is over r = lam/(lam+phi) alone, so its
        # stopping rule does not depend on the size of the log-likelihood
        data = simulate_cs(CSParams([0.5], -0.2, 1.0), SimLayout(10_000, 4), seed=4)
        got = fit_ml(data)
        assert got.converged
        assert got.iterations < 500
        assert abs(got.params.lam + 0.2) < 0.02

    @pytest.mark.parametrize("c", [1e-4, 1e4])
    def test_scale_equivariance(self, c):
        rng = np.random.default_rng(8)
        sizes = rng.integers(1, 6, 80)
        cluster = np.repeat(np.arange(len(sizes)), sizes)
        X = np.column_stack([np.ones(len(cluster)), rng.normal(size=len(cluster))])
        y = X @ [0.5, -1.0] + rng.normal(0.0, 0.8, len(sizes))[cluster] + rng.normal(size=len(cluster))
        base = fit_ml(Dataset.from_columns(y, X, sizes))
        got = fit_ml(Dataset.from_columns(c * y, X, sizes))
        assert got.params.lam == pytest.approx(c**2 * base.params.lam, rel=1e-6)
        assert got.params.phi == pytest.approx(c**2 * base.params.phi, rel=1e-6)
        np.testing.assert_allclose(got.params.xi, c * base.params.xi, rtol=1e-6)
        assert not base.constraint_active and not got.constraint_active

    def test_zero_within_variation_is_on_the_boundary(self):
        # the likelihood rises without bound as phi -> 0
        data = intercept_dataset([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [0.5, 0.5]])
        got = fit_ml(data)
        assert got.constraint_active
        assert np.isfinite([got.params.lam, got.params.phi, got.loglik]).all()
        assert 0 < got.params.phi < 1e-6 * got.params.lam

    def test_zero_residual_sums_of_largest_clusters_is_on_the_boundary(self):
        # xi = 0 at every lam, so the size-2 clusters' sums vanish and the
        # likelihood rises without bound as phi + 2*lam -> 0
        data = intercept_dataset(
            [[1.0, -1.0], [2.0, -2.0], [0.5, -0.5], [3.0, -3.0], [1.5], [-1.5]]
        )
        got = fit_ml(data)
        assert got.constraint_active
        assert np.isfinite([got.params.lam, got.params.phi, got.loglik]).all()
        assert 0 < got.params.phi + 2 * got.params.lam < 1e-6 * got.params.phi

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_clusters=st.integers(3, 40),
        p=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_unbalanced_fit_against_dense_oracle(self, seed, n_clusters, p):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 9, n_clusters)
        sizes[0] = max(sizes[0], 2)  # lam identified
        cluster = np.repeat(np.arange(n_clusters), sizes)
        X = np.column_stack([np.ones(len(cluster)), rng.normal(size=(len(cluster), p - 1))])
        y = rng.normal(1.0, 2.0, len(cluster)) + rng.normal(0.0, 1.0, n_clusters)[cluster]
        data = Dataset.from_columns(y, X, sizes)
        got = fit_ml(data)
        lam, phi, n_max = got.params.lam, got.params.phi, int(sizes.max())
        assert np.isfinite([lam, phi, got.loglik]).all()
        assert phi > 0 and phi + n_max * lam > 0
        if got.constraint_active:
            # the supremum lies on the PD boundary, where no point is a maximum
            return
        want = dense_loglik(data, got.params)
        # relative to the size of the terms the loglik sums, which can cancel
        scale = abs(want) + len(y) * (1.0 + abs(math.log(phi)))
        assert abs(got.loglik - want) <= 1e-10 * scale
        for dlam, dphi in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]:
            lam_s, phi_s = lam * (1 + 1e-4 * dlam), phi * (1 + 1e-4 * dphi)
            if phi_s + n_max * lam_s > 0:
                xi_s = gls_mean(data, lam_s, phi_s)
                near = loglik_cs(data, CSParams(xi_s, lam_s, phi_s))
                assert near <= got.loglik + 1e-9 * abs(got.loglik)

    def test_consistency_error_shrinks_with_n(self):
        errs = {100: [], 400: []}
        for n_clusters in errs:
            for rep in range(50):
                data = simulate_cs(
                    CSParams([0.0], 0.6, 1.0),
                    SimLayout(n_clusters, 2),
                    seed=50_000 + rep,
                )
                got = fit_ml(data)
                errs[n_clusters].append(abs(got.params.lam - 0.6))
        assert np.median(errs[400]) < np.median(errs[100])


# ---------------------------------------------------------------------------
# simulate_cs
# ---------------------------------------------------------------------------


def pair_matrix(data):
    return np.array([c.y for c in data.clusters])


class TestSimulateCs:
    def test_zero_lambda_uncorrelated(self):
        data = simulate_cs(CSParams([0.0], 0.0, 1.0), SimLayout(2000, 2), seed=8)
        y = pair_matrix(data)
        assert abs(np.corrcoef(y[:, 0], y[:, 1])[0, 1]) < 0.05

    def test_sample_covariance(self):
        data = simulate_cs(CSParams([0.0], 2.0, 1.0), SimLayout(5000, 2), seed=34)
        y = pair_matrix(data)
        got = np.cov(y.T)
        assert np.max(np.abs(got - [[3.0, 2.0], [2.0, 3.0]])) < 0.15

    def test_negative_lambda_negative_correlation(self):
        data = simulate_cs(CSParams([0.0], -0.4, 1.0), SimLayout(5000, 2), seed=1)
        y = pair_matrix(data)
        r = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
        assert r == pytest.approx(-2.0 / 3.0, abs=0.03)

    def test_deterministic_and_thread_invariant(self):
        params = CSParams([0.5], 0.7, 1.0)
        layout = SimLayout(100, 3)
        a = simulate_cs(params, layout, seed=77)
        b = simulate_cs(params, layout, seed=77)
        for c1, c2 in zip(a.clusters, b.clusters):
            assert np.array_equal(c1.y, c2.y)

    def test_pd_violation(self):
        with pytest.raises(DomainError):
            simulate_cs(CSParams([0.0], -0.5, 1.0), SimLayout(10, 2), seed=0)


class TestSubstreamPrefix:
    """rng.py: cluster i's draws do not depend on how many clusters are simulated."""

    @pytest.mark.parametrize("lam", [0.7, -0.2])  # random intercept; Cholesky
    @given(
        seed=st.integers(0, 2**64 - 1),
        sizes=st.lists(st.integers(1, 4), min_size=2, max_size=30),
        k=st.integers(1, 29),
        balanced=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_simulate_cs_prefix(self, lam, seed, sizes, k, balanced):
        k = min(k, len(sizes) - 1)
        size = sizes[0] if balanced else sizes
        head = sizes[0] if balanced else sizes[:k]
        params = CSParams([0.5], lam, 1.0)
        full = simulate_cs(params, SimLayout(len(sizes), size), seed=seed)
        part = simulate_cs(params, SimLayout(k, head), seed=seed)
        assert np.array_equal(full.y[: len(part.y)], part.y)

    @given(
        seed=st.integers(0, 2**64 - 1),
        sizes=st.lists(st.integers(1, 2), min_size=2, max_size=30),
        k=st.integers(1, 29),
    )
    @settings(max_examples=25, deadline=None)
    def test_simulate_extended_prefix(self, seed, sizes, k):
        k = min(k, len(sizes) - 1)
        spec = ExtendedSpec(1.0, 1.0, 0.2)
        full, lat_full = simulate_extended(spec, [0.5], SimLayout(len(sizes), sizes), seed=seed)
        part, lat_part = simulate_extended(spec, [0.5], SimLayout(k, sizes[:k]), seed=seed)
        rows = len(part.y)
        assert np.array_equal(full.y[:rows], part.y)
        assert np.array_equal(lat_full.b[:k], lat_part.b)
        assert np.array_equal(lat_full.eps[:rows], lat_part.eps)


# ---------------------------------------------------------------------------
# simulate_extended
# ---------------------------------------------------------------------------


class TestSimulateExtended:
    def test_tau_zero_decouples_latents(self):
        spec = ExtendedSpec(3.0, 1.0, -0.5)  # alpha* -> tau = 0
        _, latents = simulate_extended(spec, [0.0], SimLayout(2000, 2), seed=9)
        b = np.array([l[0] for l in latents])
        eps0 = np.array([l[1][0] for l in latents])
        assert abs(np.corrcoef(b, eps0)[0, 1]) < 0.05

    def test_boundary_correlation_is_minus_one(self):
        # |corr(b, eps)| = 1 at |alpha| = 1; the joint exists only for n = 1
        # there (n >= 2 would need n*tau^2 <= d*sigma2)
        spec = ExtendedSpec(2.0, 1.0, 1.0)
        _, latents = simulate_extended(spec, [0.0], SimLayout(2000, 1), seed=13)
        b = np.array([l[0] for l in latents])
        eps0 = np.array([l[1][0] for l in latents])
        assert np.corrcoef(b, eps0)[0, 1] < -0.99

    def test_joint_psd_failure_names_eigenvalue(self):
        with pytest.raises(DomainError, match="eigenvalue"):
            simulate_extended(
                ExtendedSpec(2.0, 1.0, 1.0), [0.0], SimLayout(10, 2), seed=0
            )

    def test_roundtrip_fit_recovers_marginal(self):
        for alpha in (-0.6, 0.0, 0.3):
            spec = ExtendedSpec(1.5, 1.0, alpha)
            data, _ = simulate_extended(spec, [0.0], SimLayout(400, 2), seed=31)
            got = fit_ml(data)
            assert abs(got.params.lam - 1.5) < 3 * MC_SE_LAM_EXT
            assert abs(got.params.phi - 1.0) < 3 * MC_SE_PHI_EXT

    def test_cluster_size_beyond_64(self):
        spec = ExtendedSpec(3.0, 1.0, -0.5)  # tau = 0: the joint is PSD for every n
        data, latents = simulate_extended(spec, [0.0], SimLayout(3, 100), seed=2)
        assert data.cluster_sizes() == [100] * 3
        assert np.array_equal(data.y, np.repeat(latents.b, 100) + latents.eps)

    def test_deterministic(self):
        spec = ExtendedSpec(1.0, 1.0, 0.2)
        a, la = simulate_extended(spec, [0.0], SimLayout(50, 2), seed=4)
        b, lb = simulate_extended(spec, [0.0], SimLayout(50, 2), seed=4)
        for c1, c2 in zip(a.clusters, b.clusters):
            assert np.array_equal(c1.y, c2.y)
        for (b1, e1), (b2, e2) in zip(la, lb):
            assert b1 == b2 and np.array_equal(e1, e2)


# ---------------------------------------------------------------------------
# Likelihood invariance vs EB sensitivity
# ---------------------------------------------------------------------------


class TestInvarianceVsSensitivity:
    def test_loglik_identical_but_shrinkage_moves(self):
        data = simulate_cs(CSParams([0.0], 1.2, 1.0), SimLayout(100, 2), seed=55)
        alphas = (-1.0, -0.5, 0.0, 0.5, 1.0)
        logliks = []
        shrinkages = []
        for alpha in alphas:
            spec = ExtendedSpec(1.2, 1.0, alpha)
            marg = marginal_cov_extended(spec, 2).array
            lam_implied = marg[0, 1]
            phi_implied = marg[0, 0] - lam_implied
            logliks.append(
                loglik_cs(data, CSParams([0.0], lam_implied, phi_implied))
            )
            shrinkages.append(eb_shrinkage(spec, 2))
        assert max(logliks) - min(logliks) < 1e-12
        diffs = np.diff(shrinkages)
        assert np.all(diffs > 0)  # strictly monotone in alpha
        assert np.max(np.abs(diffs - diffs[0])) < 1e-10  # collinear
