import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unobs_lab.equivalence import (
    ExtendedSpec,
    SpecA,
    SpecB,
    conditional_error_dist,
    decomposition_table,
    derive_d_tau,
    eb_shrinkage,
    joint_cov,
    map_a_to_b,
    marginal_cov_extended,
    psd_slack,
    v1_matrix,
    v2_matrix,
)
from unobs_lab.model_core import DomainError, cs_covariance

finite = {"allow_nan": False, "allow_infinity": False}


# ---------------------------------------------------------------------------
# Two-measurement equivalence pair
# ---------------------------------------------------------------------------


class TestEquivalencePair:
    def test_v1_examples(self):
        assert np.array_equal(v1_matrix(SpecA(1, 1, 2)), [[2, 1], [1, 3]])
        assert np.array_equal(v1_matrix(SpecA(0, 1, 1)), np.eye(2))
        assert np.array_equal(v1_matrix(SpecA(2, 0.5, 0.5)), [[2.5, 2], [2, 2.5]])

    def test_v2_examples(self):
        assert np.array_equal(v2_matrix(SpecB(1, 1, 1)), [[2, 1], [1, 3]])
        assert np.array_equal(v2_matrix(SpecB(0, 0, 1)), np.eye(2))
        assert np.array_equal(
            v2_matrix(SpecB(2, -0.25, 0.5)), [[2.5, 2], [2, 2.25]]
        )

    def test_map_examples(self):
        b = map_a_to_b(SpecA(1, 1, 2))
        assert (b.lambda1sq, b.lambda2sq, b.nusq) == (1, 1, 1)
        assert b.is_valid_hierarchy

        b = map_a_to_b(SpecA(1, 1, 1))
        assert (b.lambda1sq, b.lambda2sq, b.nusq) == (1, 0, 1)
        assert b.is_valid_hierarchy

        b = map_a_to_b(SpecA(2, 1, 0.5))
        assert (b.lambda1sq, b.lambda2sq, b.nusq) == (2, -0.5, 1)
        assert not b.is_valid_hierarchy

    @given(
        lam2=st.floats(0, 50, **finite),
        nu1=st.floats(1e-3, 50, **finite),
        ratio=st.floats(0.51, 1.99, **finite),
    )
    def test_matrices_match_exactly(self, lam2, nu1, ratio):
        # variance ratios within [1/2, 2] make nu2sq - nu1sq exact in floats
        # (Sterbenz), so the matrix identity holds bit for bit
        a = SpecA(lam2, nu1, nu1 * ratio)
        assert np.array_equal(v1_matrix(a), v2_matrix(map_a_to_b(a)))

    @given(
        lam2=st.floats(0, 50, **finite),
        nu1=st.floats(1e-3, 50, **finite),
        nu2=st.floats(1e-3, 50, **finite),
    )
    def test_matrices_match_to_rounding(self, lam2, nu1, nu2):
        # arbitrary variance ratios: the mapped slope variance is a rounded
        # difference, so agreement is only up to one rounding of the sum
        a = SpecA(lam2, nu1, nu2)
        diff = np.abs(v1_matrix(a) - v2_matrix(map_a_to_b(a)))
        assert diff.max() <= 2 * np.spacing(max(lam2 + nu1, lam2 + nu2))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SpecA(-0.1, 1, 1)
        with pytest.raises(DomainError):
            SpecB(1, 0, 0)


# ---------------------------------------------------------------------------
# derive_d_tau and the alpha box
# ---------------------------------------------------------------------------


class TestDeriveDTau:
    def test_alpha_zero(self):
        d, tau = derive_d_tau(2, 1, 0)
        assert (d, tau) == (4.0, -1.0)
        assert d + 2 * tau == 2.0

    def test_degenerate_point_mass(self):
        d, tau = derive_d_tau(0, 1, -1)
        assert d == pytest.approx(0.0, abs=1e-15)
        assert tau == pytest.approx(0.0, abs=1e-15)

    def test_conventional_recovery(self):
        # alpha* = -nu/s gives tau = 0, d = lam2
        d, tau = derive_d_tau(3, 1, -0.5)
        assert tau == pytest.approx(0.0, abs=1e-15)
        assert d == pytest.approx(3.0, abs=1e-12)

    def test_negative_lambda2(self):
        d, tau = derive_d_tau(-0.5, 1, -1)
        assert d == pytest.approx((math.sqrt(0.5) - 1) ** 2, abs=1e-12)
        assert tau == pytest.approx(-0.2928932188134524, abs=1e-12)
        assert tau < 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            derive_d_tau(2, 1, 1.5)
        with pytest.raises(DomainError):
            derive_d_tau(-1.0, 1, 0)
        with pytest.raises(DomainError):
            derive_d_tau(2, 0, 0)

    @given(
        nu2=st.floats(1e-3, 20, **finite),
        excess=st.floats(1e-6, 20, **finite),
        alpha=st.floats(-1, 1, **finite),
    )
    @settings(max_examples=300)
    def test_identities(self, nu2, excess, alpha):
        lam2 = excess - nu2  # spans negative and positive lam2 with lam2+nu2 > 0
        d, tau = derive_d_tau(lam2, nu2, alpha)
        assert d >= 0
        assert d + 2 * tau == pytest.approx(lam2, abs=1e-12 * max(1, abs(lam2)))
        slack = d * nu2 - tau * tau
        assert slack == pytest.approx(
            nu2 * (lam2 + nu2) * (1 - alpha * alpha),
            abs=1e-12 * max(1.0, nu2 * (lam2 + nu2)),
        )
        assert tau * tau <= d * nu2 + 1e-12

    def test_all_tau_negative_for_negative_lambda2(self):
        for lam2 in np.linspace(-0.99, -0.01, 25):
            for alpha in np.linspace(-1, 1, 21):
                _, tau = derive_d_tau(float(lam2), 1.0, float(alpha))
                assert tau < 0


# ---------------------------------------------------------------------------
# Decomposition table
# ---------------------------------------------------------------------------


class TestDecomposition:
    def test_alpha_zero(self):
        var_row, cov_row = decomposition_table(2, 1, 0)
        assert (var_row.sigma2_part, var_row.d_part, var_row.two_tau_part) == (1, 4, -2)
        assert var_row.total == 3
        assert (cov_row.sigma2_part, cov_row.d_part, cov_row.two_tau_part) == (0, 4, -2)
        assert cov_row.total == 2

    def test_degenerate(self):
        var_row, cov_row = decomposition_table(0, 1, -1)
        assert var_row.total == pytest.approx(1.0, abs=1e-15)
        assert cov_row.total == pytest.approx(0.0, abs=1e-15)

    def test_negative_lambda2(self):
        var_row, cov_row = decomposition_table(-0.5, 1, 0)
        assert var_row.d_part == pytest.approx(1.5)
        assert var_row.two_tau_part == pytest.approx(-2.0)
        assert var_row.total == pytest.approx(0.5)
        assert cov_row.total == pytest.approx(-0.5)


# ---------------------------------------------------------------------------
# Joint covariance and conditioning
# ---------------------------------------------------------------------------


class TestJointCov:
    def test_alpha_zero(self):
        got = joint_cov(ExtendedSpec(2, 1, 0), 2)
        assert np.array_equal(got, [[4, -1, -1], [-1, 1, 0], [-1, 0, 1]])

    def test_point_mass(self):
        got = joint_cov(ExtendedSpec(0, 1, -1), 2)
        assert np.allclose(got, np.diag([0.0, 1.0, 1.0]), atol=1e-15)

    def test_tau_zero_is_diagonal(self):
        got = joint_cov(ExtendedSpec(3, 1, -0.5), 3)
        assert np.allclose(got, np.diag([3.0, 1.0, 1.0, 1.0]), atol=1e-15)

    def test_psd_condition_is_n_tau_sq_le_d_sigma2(self):
        # The (n+1)-dim joint is PSD iff n*tau^2 <= d*sigma2, which is
        # stricter than the pairwise slack for every n >= 2; at |alpha| = 1
        # the joint already fails for n = 2.
        rng = np.random.default_rng(3)
        for _ in range(100):
            nu2 = float(rng.uniform(0.2, 2.0))
            lam2 = float(rng.uniform(-nu2 + 1e-3, 2.0))
            alpha = float(rng.uniform(-1, 1))
            n = int(rng.integers(1, 7))
            spec = ExtendedSpec(lam2, nu2, alpha)
            d, tau = derive_d_tau(lam2, nu2, alpha)
            min_eig = np.linalg.eigvalsh(joint_cov(spec, n)).min()
            if n * tau * tau <= d * nu2 - 1e-9:
                assert min_eig > -1e-12
            elif n * tau * tau >= d * nu2 + 1e-9:
                assert min_eig < 0
        min_eig = np.linalg.eigvalsh(joint_cov(ExtendedSpec(2, 1, 1.0), 2)).min()
        assert min_eig < -1e-3


class TestConditionalErrorDist:
    def test_alpha_zero(self):
        dist = conditional_error_dist(ExtendedSpec(2, 1, 0), b=1.0, n=2)
        assert dist.mean == pytest.approx([-0.25, -0.25])
        assert np.allclose(dist.cov.array, [[0.75, -0.25], [-0.25, 0.75]])

    def test_tau_zero_decouples(self):
        dist = conditional_error_dist(ExtendedSpec(3, 1, -0.5), b=5.0, n=2)
        assert dist.mean == pytest.approx([0.0, 0.0], abs=1e-15)
        assert np.allclose(dist.cov.array, np.eye(2), atol=1e-12)

    def test_boundary_singular_for_single_error(self):
        # at |alpha| = 1 the pairwise slack vanishes: the n = 1 conditional
        # variance is exactly zero
        dist = conditional_error_dist(ExtendedSpec(2, 1, 1.0), b=0.0, n=1)
        assert dist.mean == pytest.approx([0.0])
        assert dist.cov.array[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_boundary_breaks_down_for_n2(self):
        # det = sigma2*(sigma2 - 2*tau^2/d) turns negative at |alpha| = 1:
        # the construction yields no valid conditional law for n >= 2 there
        spec = ExtendedSpec(2, 1, 1.0)
        d, tau = derive_d_tau(2, 1, 1.0)
        dist = conditional_error_dist(spec, b=0.0, n=2)
        det = np.linalg.det(dist.cov.array)
        assert det == pytest.approx(1.0 * (1.0 - 2 * tau * tau / d), abs=1e-10)
        assert det < 0

    def test_degenerate_conditioning(self):
        with pytest.raises(DomainError):
            conditional_error_dist(ExtendedSpec(0, 1, -1), b=0.0, n=2)

    def test_reconstruction_law_of_total_covariance(self):
        # Var(eps) = E Var(eps|b) + Var(E(eps|b)) and Cov(b, eps) = tau
        rng = np.random.default_rng(23)
        for _ in range(30):
            nu2 = float(rng.uniform(0.2, 2.0))
            lam2 = float(rng.uniform(-nu2 + 1e-3, 2.0))
            alpha = float(rng.uniform(-0.99, 0.99))
            n = int(rng.integers(1, 5))
            spec = ExtendedSpec(lam2, nu2, alpha)
            d, tau = derive_d_tau(lam2, nu2, alpha)
            if d < 1e-8:
                continue
            dist = conditional_error_dist(spec, b=1.0, n=n)
            slope = np.asarray(dist.mean)  # mean at b = 1, i.e. (tau/d) 1_n
            var_eps = dist.cov.array + d * np.outer(slope, slope)
            joint = np.zeros((n + 1, n + 1))
            joint[0, 0] = d
            joint[0, 1:] = joint[1:, 0] = d * slope  # Cov(b, eps) = d * tau/d
            joint[1:, 1:] = var_eps
            assert np.allclose(joint, joint_cov(spec, n), atol=1e-10)


# ---------------------------------------------------------------------------
# Marginal invariance and EB sensitivity
# ---------------------------------------------------------------------------


class TestMarginalInvariance:
    def test_alpha_does_not_matter(self):
        for alpha in (-1.0, 0.0, 1.0):
            got = marginal_cov_extended(ExtendedSpec(2, 1, alpha), 2).array
            assert np.allclose(got, [[3, 2], [2, 3]], atol=1e-12)

    def test_no_clustering(self):
        got = marginal_cov_extended(ExtendedSpec(0, 1, 0.7), 4).array
        assert np.allclose(got, np.eye(4), atol=1e-12)

    def test_matches_model_core_example(self):
        got = marginal_cov_extended(ExtendedSpec(-0.4, 1, 0.3), 2).array
        assert np.allclose(got, [[0.6, -0.4], [-0.4, 0.6]], atol=1e-12)

    def test_exact_beyond_64(self):
        # grid points where d + 2*tau rounds to lambda2 exactly
        want = np.full((100, 100), 2.0) + np.eye(100)
        for alpha in (-1.0, -0.5, -0.25, 0.0, 0.25, 1.0):
            got = marginal_cov_extended(ExtendedSpec(2, 1, alpha), 100).array
            assert np.array_equal(got, want)

    @given(
        nu2=st.floats(1e-2, 10, **finite),
        excess=st.floats(1e-3, 10, **finite),
        alpha=st.floats(-1, 1, **finite),
        n=st.integers(1, 8),
    )
    @settings(max_examples=200)
    def test_property(self, nu2, excess, alpha, n):
        lam2 = excess / n - nu2 / n  # keeps nu2 + n*lam2 = excess > 0
        got = marginal_cov_extended(ExtendedSpec(lam2, nu2, alpha), n).array
        want = cs_covariance(n, lam2, nu2).array
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, nu2 + abs(lam2))


def brute_force_shrinkage(spec, n):
    """Condition b on Y in the joint normal assembled from joint_cov."""
    d, tau = derive_d_tau(spec.lambda2, spec.nu2, spec.alpha)
    cov_by = np.full(n, d + tau)  # Cov(b, Y_j) = Cov(b, b + eps_j)
    var_y = marginal_cov_extended(spec, n).array
    w = np.linalg.solve(var_y, cov_by)  # E(b|Y) = w'(Y - mu)
    # exchangeability makes w constant; c relates to the cluster mean
    assert np.allclose(w, w[0])
    return float(n * w[0])


class TestEbShrinkage:
    def test_tau_zero_recovers_textbook(self):
        assert eb_shrinkage(ExtendedSpec(3, 1, -0.5), 2) == pytest.approx(6 / 7)

    def test_point_mass_marginal(self):
        spec = ExtendedSpec(0, 1, 0)
        assert eb_shrinkage(spec, 5) == pytest.approx(5.0)
        assert brute_force_shrinkage(spec, 5) == pytest.approx(5.0, abs=1e-10)

    def test_collinear_in_alpha(self):
        vals = [eb_shrinkage(ExtendedSpec(2, 1, a), 2) for a in (-1.0, 0.0, 1.0)]
        assert vals[1] == pytest.approx(1.2)
        assert vals[0] + vals[2] == pytest.approx(2 * vals[1], abs=1e-10)

    def test_brute_force_conditioning(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            nu2 = float(rng.uniform(0.2, 2.0))
            n = int(rng.integers(1, 7))
            lam2 = float(rng.uniform(-nu2 / n + 1e-3, 2.0))
            alpha = float(rng.uniform(-1, 1))
            spec = ExtendedSpec(lam2, nu2, alpha)
            assert eb_shrinkage(spec, n) == pytest.approx(
                brute_force_shrinkage(spec, n), abs=1e-10
            )

    def test_pd_violation(self):
        with pytest.raises(DomainError):
            eb_shrinkage(ExtendedSpec(-0.4, 1, 0), 3)


class TestPsdSlack:
    @pytest.mark.parametrize(
        "lam2,nu2,alpha,expect",
        [(2, 1, 1, 0.0), (2, 1, -1, 0.0), (2, 1, 0, 3.0), (0, 1, 0.5, 0.75)],
    )
    def test_values(self, lam2, nu2, alpha, expect):
        assert psd_slack(ExtendedSpec(lam2, nu2, alpha)) == pytest.approx(
            expect, abs=1e-12
        )
