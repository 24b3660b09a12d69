import decimal
import hashlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unobs_lab.cs import CSMatrix, DomainError, RankDeficiencyError
from unobs_lab.equivalence import (
    EPS,
    ExtendedSpec,
    eb_shrinkage,
    joint_cov,
    least_eigenvalue,
    marginal_cov_extended,
)
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
from unobs_lab.model_core import CSParams, Dataset, gls_mean, write_dataset_csv
from unobs_lab.rng import normals

# Monte-Carlo standard errors frozen from 200-replicate oracle runs
# (simulate_cs at lam=-0.3, phi=1, n=2, N=500; simulate_extended at
# lam2=1.5, nu2=1, alpha=0.3, n=2, N=400)
MC_SE_LAM_NEG = 0.036
MC_SE_LAM_EXT = 0.16
MC_SE_PHI_EXT = 0.07


def intercept_dataset(rows):
    y = np.concatenate([np.asarray(r, dtype=float) for r in rows])
    return Dataset(y, np.ones((len(y), 1)), [len(r) for r in rows])


def cluster_blocks(data):
    """(y, X) of each cluster, for the dense-V oracles."""
    cuts = data.offsets[1:-1]
    return zip(np.split(data.y, cuts), np.split(data.X, cuts))


def dense_loglik(data, params):
    ll = 0.0
    for y, X in cluster_blocks(data):
        n = len(y)
        v = np.full((n, n), params.lam) + params.phi * np.eye(n)
        r = y - X @ params.xi
        sign, logdet = np.linalg.slogdet(v)
        assert sign > 0
        ll -= 0.5 * (n * math.log(2 * math.pi) + logdet + r @ np.linalg.solve(v, r))
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
            n_max = int(data.sizes.max())
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
    for y, X in cluster_blocks(data):
        v = np.full((len(y), len(y)), lam) + phi * np.eye(len(y))
        A += X.T @ np.linalg.solve(v, X)
        b += X.T @ np.linalg.solve(v, y)
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
        sizes = rng.integers(1, 9, n_clusters)
        X = np.column_stack([np.ones(sizes.sum()), rng.normal(size=(sizes.sum(), p - 1))])
        data = Dataset(rng.normal(1.0, 2.0, size=sizes.sum()), X, sizes)
        n_max = int(sizes.max())
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


class TestBatchedProfile:
    """SuffStats.profile at a batch of g = lam/phi against its one-point kernel."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_clusters=st.integers(3, 40),
        p=st.integers(1, 3),
        inner=st.lists(st.floats(1e-9, 1.0 - 1e-9), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_one_point(self, seed, n_clusters, p, inner):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 9, n_clusters)
        sizes[0] = max(sizes[0], 2)
        X = np.column_stack([np.ones(sizes.sum()), rng.normal(size=(sizes.sum(), p - 1))])
        data = Dataset(rng.normal(1.0, 2.0, size=sizes.sum()), X, sizes)
        lo = -1.0 / (int(sizes.max()) - 1)
        ends = [lo + 1e-9, lo + 1e-6, 1.0 - 1e-6, 1.0 - 1e-9]  # within 1e-9 of both ends
        r = np.array(ends + [lo + (1.0 - lo) * t for t in inner])
        g = r / (1.0 - r)
        stats = data.stats
        ll, xi, phi = stats.profile(g)
        n_max = stats.n[-1]
        for k in range(len(g)):
            try:
                want_xi = stats.gls(g[k])
            except RankDeficiencyError:
                assert ll[k] == -math.inf and np.isnan(xi[k]).all()
                continue
            assert np.max(np.abs(xi[k] - want_xi)) <= 1e-12 * np.max(np.abs(want_xi))
            if not (phi[k] > 0 and phi[k] + n_max * (g[k] * phi[k]) > 0):
                assert ll[k] == -math.inf
                continue
            want = stats.loglik(xi[k], g[k], phi[k])
            assert abs(ll[k] - want) <= 1e-12 * abs(want)
            assert stats.loglik(xi[k], g[k], phi[k] * 1.001) < ll[k]  # phi is profiled out
            assert stats.loglik(xi[k], g[k], phi[k] / 1.001) < ll[k]

    def test_rank_deficient_point_is_minus_inf_in_a_finite_batch(self):
        # the within part of x2 is 5, its between part singular at w = -2.5, i.e. g = -0.6
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 3.0]])
        stats = Dataset([0.0, 1.0, 3.0, 2.0], X, [2, 2]).stats
        with pytest.raises(RankDeficiencyError):
            stats.gls(-0.6)
        ll, xi, phi = stats.profile([0.0, -0.6, 1.0, -0.4999])
        assert ll[1] == -math.inf and np.isnan(xi[1]).all()
        assert np.isfinite(np.delete(ll, 1)).all() and np.isfinite(np.delete(xi, 1, axis=0)).all()


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
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(UnsupportedLayoutError):
            fit_balanced_closed_form(Dataset([1.0, 2.0, 1.0, 2.0], X, [2, 2]))


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
        base = fit_ml(Dataset(y, X, sizes))
        got = fit_ml(Dataset(c * y, X, sizes))
        assert got.params.lam == pytest.approx(c**2 * base.params.lam, rel=1e-6)
        assert got.params.phi == pytest.approx(c**2 * base.params.phi, rel=1e-6)
        np.testing.assert_allclose(got.params.xi, c * base.params.xi, rtol=1e-6)
        assert not base.constraint_active and not got.constraint_active

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: SuffStats holds raw cluster "
                       "sums, so shifting y cancels digits (lam 4.2e-3 off at 1e6)")
    def test_translation_equivariance(self):
        data = simulate_cs(CSParams([0.0], 1.0, 1.0), SimLayout(1000, 4), seed=5)
        shifted = Dataset(data.y + 1e6, data.X, data.sizes)
        want = fit_balanced_closed_form(shifted).params.lam
        assert fit_ml(shifted).params.lam == pytest.approx(want, rel=1e-6)

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
        data = Dataset(y, X, sizes)
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
    return data.y.reshape(data.n_clusters, -1)


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
        assert np.array_equal(a.y, b.y)

    def test_pd_violation(self):
        with pytest.raises(DomainError):
            simulate_cs(CSParams([0.0], -0.5, 1.0), SimLayout(10, 2), seed=0)

    @pytest.mark.parametrize("lam", [0.7, -0.2])
    def test_cluster_i_reads_stream_i(self, lam):
        # sizes interleave, so a cluster's place within its size group is not i
        sizes, phi = [3, 1, 3, 2, 1, 3], 1.3
        data = simulate_cs(CSParams([0.5], lam, phi), SimLayout(6, sizes), seed=41)
        for i, y in enumerate(np.split(data.y, data.offsets[1:-1])):
            n = sizes[i]  # the symmetric root, built by eigh: last bits may differ
            w, u = np.linalg.eigh(CSMatrix(n, lam, phi).array)
            want = 0.5 + (u * np.sqrt(w)) @ u.T @ normals(41, [i], n)[0]
            np.testing.assert_allclose(y, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("lam", [0.7, -0.2])  # random intercept; no hierarchy
    def test_numpy_integer_size_gives_the_same_bytes(self, lam):
        """A numpy integer cluster size is a balanced layout, as a Python int is."""
        params, texts = CSParams([0.5], lam, 1.0), []
        for size in (2, np.int64(2)):
            buf = io.StringIO()
            write_dataset_csv(simulate_cs(params, SimLayout(5, size), seed=3), buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1] and texts[0].count("\n") == 11

    def test_intercept_only(self):
        data = simulate_cs(CSParams([1.5], 0.7, 1.0), SimLayout(5, 3), seed=2)
        assert np.array_equal(data.X, np.ones((15, 1))) and data.covariate_names == ("x1",)
        with pytest.raises(DomainError, match="xi has 2 entries"):
            simulate_cs(CSParams([1.0, 2.0], 0.7, 1.0), SimLayout(5, 3), seed=2)


class TestSubstreamPrefix:
    """rng.py: cluster i's draws do not depend on how many clusters are simulated."""

    @pytest.mark.parametrize("lam", [0.7, -0.2])  # random intercept; no hierarchy
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

    @given(
        seed=st.integers(0, 2**64 - 1),
        sizes=st.lists(st.integers(1, 9), min_size=2, max_size=40),
        k=st.integers(1, 39),
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_block_counts_prefix(self, seed, sizes, k):
        # sizes 1..9 draw 1 to 3 Philox blocks per cluster in one run
        k = min(k, len(sizes) - 1)
        full_layout, part_layout = SimLayout(len(sizes), sizes), SimLayout(k, sizes[:k])
        for lam in (0.7, -0.1):  # -0.1 keeps phi + 9*lam > 0
            params = CSParams([0.5], lam, 1.0)
            full = simulate_cs(params, full_layout, seed=seed)
            part = simulate_cs(params, part_layout, seed=seed)
            assert np.array_equal(full.y[: len(part.y)], part.y)
        spec = ExtendedSpec(3.0, 1.0, -0.5)  # tau = 0: PSD for every size
        full, lat_full = simulate_extended(spec, [0.5], full_layout, seed=seed)
        part, lat_part = simulate_extended(spec, [0.5], part_layout, seed=seed)
        rows = len(part.y)
        assert np.array_equal(full.y[:rows], part.y)
        assert np.array_equal(lat_full.b[:k], lat_part.b)
        assert np.array_equal(lat_full.eps[:rows], lat_part.eps)


def test_simulators_factor_no_matrix(monkeypatch):
    """Both simulators draw through the closed-form CS root, never through LAPACK."""
    def refuse(*args, **kwargs):
        raise AssertionError("a simulator called np.linalg")

    for name in ("cholesky", "eigh", "eig", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    simulate_cs(CSParams([0.0], -0.2, 1.0), SimLayout(4, [1, 3, 2, 3]), seed=1)
    simulate_extended(ExtendedSpec(1.0, 1.0, 0.2), [0.0], SimLayout(4, [1, 2, 2, 1]), seed=1)


# ---------------------------------------------------------------------------
# simulate_extended
# ---------------------------------------------------------------------------


def exact_slack(spec, n):
    """d*sigma2 - n*tau^2 at 50 digits, from the floats lambda2, nu2, alpha taken as exact."""
    with decimal.localcontext(decimal.Context(prec=50)):
        lam2, nu2, alpha = map(decimal.Decimal, spec[:3])
        tau = -(nu2 + nu2.sqrt() * alpha * (lam2 + nu2).sqrt())
        return nu2 * (lam2 + nu2) * (1 - alpha * alpha) - (n - 1) * tau * tau


def slack_bound(spec, n):
    """The rounding bound of equivalence.admissible: accepted slacks lie above -bound."""
    t = spec.nu2 + math.sqrt(spec.nu2) * abs(spec.alpha) * math.sqrt(spec.lambda2 + spec.nu2)
    return 16 * EPS * (spec.nu2 * (spec.lambda2 + spec.nu2) + (n - 1) * (abs(spec.tau) + t) * t)


def assert_marginal_first(spec, xi, layout, seed):
    """The identities of the marginal-first draw: y is simulate_cs's, bytes included,
    and eps is y - (xi + b) exactly; y = (xi + b) + eps then holds to rounding only."""
    data, latents = simulate_extended(spec, xi, layout, seed=seed)
    cs = simulate_cs(CSParams(xi, spec.lambda2, spec.nu2), layout, seed=seed)
    mean = xi[0] + np.repeat(latents.b, data.sizes)  # mu + b, row by row
    assert np.array_equal(data.y, cs.y)
    assert np.array_equal(latents.eps, data.y - mean)
    ulp = np.spacing(np.maximum(np.abs(data.y), np.abs(latents.eps)))
    assert np.all(np.abs(data.y - (mean + latents.eps)) <= 2 * ulp)
    return data, latents


class TestSimulateExtended:
    def test_tau_zero_decouples_latents(self):
        spec = ExtendedSpec(3.0, 1.0, -0.5)  # alpha* -> tau = 0
        data, latents = simulate_extended(spec, [0.0], SimLayout(2000, 2), seed=9)
        eps0 = latents.eps[data.offsets[:-1]]
        assert abs(np.corrcoef(latents.b, eps0)[0, 1]) < 0.05

    def test_boundary_correlation_is_minus_one(self):
        # |corr(b, eps)| = 1 at |alpha| = 1; the joint exists only for n = 1
        # there (n >= 2 would need n*tau^2 <= d*sigma2)
        spec = ExtendedSpec(2.0, 1.0, 1.0)
        data, latents = simulate_extended(spec, [0.0], SimLayout(2000, 1), seed=13)
        eps0 = latents.eps[data.offsets[:-1]]
        assert np.corrcoef(latents.b, eps0)[0, 1] < -0.99

    def test_joint_psd_failure_names_eigenvalue(self):
        with pytest.raises(DomainError, match="eigenvalue"):
            simulate_extended(
                ExtendedSpec(2.0, 1.0, 1.0), [0.0], SimLayout(10, 2), seed=0
            )

    def test_accepts_and_refuses_exactly_where_n_tau_sq_meets_d_sigma2(self):
        # the joint of (b, eps) is PSD iff n*tau^2 <= d*sigma2 (as in test_equivalence),
        # decided here at 50 digits; between 0 and -bound, rounding may go either way
        rng = np.random.default_rng(3)
        for _ in range(200):
            nu2 = float(rng.uniform(0.2, 2.0))
            lam2 = float(rng.uniform(-nu2 + 1e-3, 2.0))
            spec = ExtendedSpec(lam2, nu2, float(rng.uniform(-1, 1)))
            n = int(rng.integers(1, 7))
            slack, bound = exact_slack(spec, n), slack_bound(spec, n)
            if slack >= 0:
                simulate_extended(spec, [0.0], SimLayout(2, n), seed=1)
            elif slack < -bound:
                with pytest.raises(DomainError, match=f"n = {n} is not PSD: eigenvalue"):
                    simulate_extended(spec, [0.0], SimLayout(2, n), seed=1)

    @pytest.mark.parametrize("lam2", [0.3, 1.5, 2.0])
    @pytest.mark.parametrize("alpha", [-1.0, 1.0])
    def test_single_error_boundary_is_accepted(self, lam2, alpha):
        """At n = 1, |alpha| = 1 makes the law singular, and rounding may put its
        least eigenvalue just below 0 (-2.2e-16 at lambda2 = 1.5, alpha = 1)."""
        spec = ExtendedSpec(lam2, 1.0, alpha)
        data, latents = assert_marginal_first(spec, [0.0], SimLayout(50, 1), seed=5)
        assert np.all(np.isfinite(data.y)) and np.all(np.isfinite(latents.b))

    def test_point_mass_intercept(self):
        spec = ExtendedSpec(0.0, 1.0, -1.0)  # d = 0 and tau = 0: b is 0, eps ~ N(0, I)
        assert (spec.d, spec.tau) == (0.0, 0.0)
        N, n = 20_000, 3
        data, latents = assert_marginal_first(spec, [0.5], SimLayout(N, n), seed=8)
        assert np.all(latents.b == 0.0)
        eps = latents.eps.reshape(N, n)
        se = np.sqrt((1.0 + np.eye(n)) / N)
        assert np.max(np.abs(eps.T @ eps / N - np.eye(n)) / se) < 4.5

    # d*sigma2 - n*tau^2 is -3e-12 with d ~ 1e-12, and -1e-12 with sigma2 = 1e-12:
    # not PSD, and far beyond psd_slack's rounding bound (5e-14 and 1e-26)
    @pytest.mark.parametrize("spec, n", [(ExtendedSpec(2e-6, 1.0, -1.0), 4),
                                         (ExtendedSpec(1.0, 1e-12, 1.0), 2)])
    def test_tiny_negative_eigenvalue_is_refused(self, spec, n):
        low = np.linalg.eigvalsh(joint_cov(spec, n))[0]
        assert -1e-11 < low < 0
        assert exact_slack(spec, n) < -10 * slack_bound(spec, n)
        with pytest.raises(DomainError, match=f"n = {n} is not PSD: eigenvalue -"):
            simulate_extended(spec, [0.0], SimLayout(10, n), seed=606)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_a_n_does_not_move_with_the_scale(self, scale):
        """A_4 at lambda2 = nu2 holds -0.5 and not 0.2 where the slack is 1e-400 or 1e400."""
        spec = ExtendedSpec(scale, scale, -0.5)
        data, latents = assert_marginal_first(spec, [0.0], SimLayout(4000, 4), seed=4)
        assert np.std(latents.b) == pytest.approx(math.sqrt(spec.d), rel=0.05)
        bad = ExtendedSpec(scale, scale, 0.2)
        low = least_eigenvalue(bad, 4)  # about -0.59 * scale
        assert -0.6 * scale < low < -0.5 * scale
        with pytest.raises(DomainError, match=re.escape(f"n = 4 is not PSD: eigenvalue {low}")):
            simulate_extended(bad, [0.0], SimLayout(10, 4), seed=4)

    @pytest.mark.parametrize("nu2", [0.01, 0.3, 7.0])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_exact_ends_of_a_n_are_accepted(self, nu2, n):
        # at lambda2 = 0, d*sigma2 - n*tau^2 = nu2^2*(1 + alpha)*(2 - n*(1 + alpha)),
        # so A_n = [-1, 2/n - 1]; psd_slack may round below 0 at both ends
        layout = SimLayout(30, n)
        want = simulate_cs(CSParams([0.5], 0.0, nu2), layout, seed=19).y
        for alpha in (-1.0, 2.0 / n - 1.0):
            data, _ = simulate_extended(ExtendedSpec(0.0, nu2, alpha), [0.5], layout, seed=19)
            assert np.array_equal(data.y, want)
        with pytest.raises(DomainError, match=f"n = {n} is not PSD"):
            simulate_extended(ExtendedSpec(0.0, nu2, 2.0 / n - 1.0 + 1e-6), [0.5], layout, seed=19)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: b given y is ill-conditioned "
                       "within a few ulp of the singular marginal nu2 + n*lambda2 = 0")
    def test_latent_scale_next_to_a_singular_marginal(self):
        # lambda2 one ulp above -nu2/n, which validate_cs accepts
        spec, n, N = ExtendedSpec(-1.4285714285714282e-07, 1e-06, -0.9258200997725513), 7, 20_000
        _, latents = simulate_extended(spec, [0.0], SimLayout(N, n), seed=7)
        sd, want = float(np.std(latents.b)), math.sqrt(spec.d)
        assert abs(sd - want) < 4.5 * want / math.sqrt(2 * N)

    def test_roundtrip_fit_recovers_marginal(self):
        for alpha in (-0.6, 0.0, 0.3):
            spec = ExtendedSpec(1.5, 1.0, alpha)
            data, _ = simulate_extended(spec, [0.0], SimLayout(400, 2), seed=31)
            got = fit_ml(data)
            assert abs(got.params.lam - 1.5) < 3 * MC_SE_LAM_EXT
            assert abs(got.params.phi - 1.0) < 3 * MC_SE_PHI_EXT

    def test_cluster_size_beyond_64(self):
        spec = ExtendedSpec(3.0, 1.0, -0.5)  # tau = 0: the joint is PSD for every n
        data, _ = assert_marginal_first(spec, [0.0], SimLayout(3, 100), seed=2)
        assert data.sizes.tolist() == [100] * 3

    @pytest.mark.parametrize("n, alpha", [(1, 1.0), (2, 0.2), (3, -0.3)])
    def test_latent_covariance_matches_joint_cov(self, n, alpha):
        spec = ExtendedSpec(1.5, 1.0, alpha)
        N = 20_000
        data, latents = simulate_extended(spec, [0.0], SimLayout(N, n), seed=606)
        lat = np.column_stack([latents.b, latents.eps.reshape(N, n)])
        want = joint_cov(spec, n)
        got = lat.T @ lat / N
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / N)
        assert np.max(np.abs(got - want) / se) < 4.5
        assert np.max(np.abs(lat.mean(axis=0)) / np.sqrt(np.diag(want) / N)) < 4.5

    def test_deterministic(self):
        spec = ExtendedSpec(1.0, 1.0, 0.2)
        a, la = simulate_extended(spec, [0.0], SimLayout(50, 2), seed=4)
        b, lb = simulate_extended(spec, [0.0], SimLayout(50, 2), seed=4)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(la.b, lb.b) and np.array_equal(la.eps, lb.eps)

    @pytest.mark.parametrize("xi", [[], [1.0, 2.0]])
    def test_xi_must_be_one_intercept(self, xi):
        spec = ExtendedSpec(1.0, 1.0, 0.2)
        with pytest.raises(DomainError, match=f"xi has {len(xi)} entries"):
            simulate_extended(spec, xi, SimLayout(5, 2), seed=4)
        assert_marginal_first(spec, [1.5], SimLayout(5, 2), seed=4)


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
