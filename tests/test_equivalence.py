import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import D, a_n, claim1
from unobs_lab.cs import CSMatrix, DomainError
from unobs_lab.equivalence import (
    ExtendedSpec,
    SpecA,
    SpecB,
    admissible,
    decomposition_table,
    derive_d_tau,
    eb_shrinkage,
    intercept_given_y,
    joint_cov,
    least_eigenvalue,
    map_a_to_b,
    marginal_cov_extended,
    psd_slack,
    v1_matrix,
    v2_matrix,
)

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

    def test_scaled_by_powers_of_four(self):
        """d and tau are of degree 1 in (lambda2, nu2), and derived at the unit scale: 4^k
        times the values at scale 1, bit for bit, out to the float maximum."""
        for lam2, nu2, alpha in ((3.0, 1.0, -0.5), (1.0, 1.0, 0.2), (0.25, 1.5, -0.9)):
            d, tau = derive_d_tau(lam2, nu2, alpha)
            for k in (-400, -100, 100, 400, 510):
                assert derive_d_tau(lam2 * 4.0**k, nu2 * 4.0**k, alpha) == (
                    d * 4.0**k, tau * 4.0**k)

    def test_near_the_float_maximum(self):
        # lambda2 + nu2 = 2e308 passes the floats; d and tau do not (50-digit decimal)
        d, tau = derive_d_tau(1e308, 1e308, -0.5)
        assert d == pytest.approx(1.5857864376269049e308, rel=1e-15)
        assert tau == pytest.approx(-2.9289321881345245e307, rel=1e-15)
        assert derive_d_tau(1.7e308, 1.7e308, 0.0) == (math.inf, -1.7e308)  # d = 5.1e308

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

    def test_needs_one_error_at_least(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            joint_cov(ExtendedSpec(2, 1, 0), 0)

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
        want = CSMatrix(n, lam2, nu2).array
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, nu2 + abs(lam2))


def brute_force_law(spec, n):
    """(c, v) of b given Y from the dense joint of (b, eps)."""
    joint = joint_cov(spec, n)
    to_b_y = np.vstack([np.eye(1, n + 1), np.hstack([np.ones((n, 1)), np.eye(n)])])
    cov = to_b_y @ joint @ to_b_y.T  # of (b, Y_1, ..., Y_n)
    w = np.linalg.solve(cov[1:, 1:], cov[1:, 0])  # E(b|Y) = w'(Y - mu)
    assert np.allclose(w, w[0])
    return float(n * w[0]), float(cov[0, 0] - cov[1:, 0] @ w)


class TestEbShrinkage:
    def test_tau_zero_recovers_textbook(self):
        assert eb_shrinkage(ExtendedSpec(3, 1, -0.5), 2) == pytest.approx(6 / 7)

    def test_point_mass_marginal(self):
        spec = ExtendedSpec(0, 1, 0)
        assert eb_shrinkage(spec, 5) == pytest.approx(5.0)
        assert brute_force_law(spec, 5)[0] == pytest.approx(5.0, abs=1e-10)

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
            assert eb_shrinkage(spec, n) == pytest.approx(brute_force_law(spec, n)[0], abs=1e-10)

    def test_pd_violation(self):
        with pytest.raises(DomainError):
            eb_shrinkage(ExtendedSpec(-0.4, 1, 0), 3)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 14: near alpha = -1 with |lambda2| "
                       "<< nu2, d, tau and d + tau are small differences of large terms")
    def test_no_cancellation_near_alpha_minus_one(self):
        """d, tau and the shrinkage within 1e-12 relative of 60-digit decimal: 6.42e-32,
        -3.94e-15 and -1.63e-16, where the closed forms give 0, +2.84e-14 and +1.18e-15."""
        lambda2, nu2, alpha, n = -7.874218644204262e-15, 241.36871758169488, -1.0, 10
        got = (*derive_d_tau(lambda2, nu2, alpha), eb_shrinkage(ExtendedSpec(lambda2, nu2, alpha), n))
        want = claim1(lambda2, nu2, alpha, n, prec=60)[:3]
        off = [abs(D(g) - w) / abs(w) for g, w in zip(got, want)]
        assert max(off) <= D("1e-12"), (got, [float(w) for w in want])


class TestInterceptGivenY:
    def test_brute_force_conditioning(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            nu2 = float(rng.uniform(0.2, 2.0))
            n = int(rng.integers(1, 7))
            lam2 = float(rng.uniform(-nu2 / n + 1e-3, 2.0))
            spec = ExtendedSpec(lam2, nu2, float(rng.uniform(-1, 1)))
            c, v = intercept_given_y(spec, n)
            want_c, want_v = brute_force_law(spec, n)
            assert c == pytest.approx(want_c, abs=1e-10)
            assert v == pytest.approx(want_v, abs=1e-10)

    def test_shrinkage_keeps_its_bits(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            nu2 = float(rng.uniform(0.2, 2.0))
            n = int(rng.integers(1, 9))
            spec = ExtendedSpec(float(rng.uniform(-nu2 / n + 1e-3, 2.0)), nu2,
                                float(rng.uniform(-1, 1)))
            d, tau = spec.d, spec.tau
            assert eb_shrinkage(spec, n) == n * (d + tau) / (nu2 + n * (d + 2.0 * tau))
            assert intercept_given_y(spec, n)[0] == eb_shrinkage(spec, n)

    def test_variance_is_the_psd_condition(self):
        # v has the sign of d*sigma2 - n*tau^2; at n = 1, |alpha| = 1 b is a function of y
        for alpha in (-1.0, -0.4, 0.2, 1.0):
            spec = ExtendedSpec(2.0, 1.0, alpha)
            for n in (1, 2, 3):
                excess = spec.d * spec.nu2 - n * spec.tau**2
                v = intercept_given_y(spec, n)[1]
                assert v == pytest.approx(excess / (1.0 + 2.0 * n), abs=1e-12)
        assert intercept_given_y(ExtendedSpec(2.0, 1.0, 1.0), 1)[1] == pytest.approx(0.0, abs=1e-15)

    def test_tau_zero_is_the_textbook_law(self):
        c, v = intercept_given_y(ExtendedSpec(3, 1, -0.5), 2)  # d = 3, tau = 0
        assert c == pytest.approx(6 / 7) and v == pytest.approx(3 / 7)

    def test_constant_cluster_mean_has_the_marginal_law(self):
        # lambda2 = -nu2/n: ybar is a constant, so b given y is b, with no division by 0
        spec = ExtendedSpec(-0.5, 1.0, -math.sqrt(0.5))
        assert spec.nu2 + 2 * (spec.d + 2 * spec.tau) == 0.0
        assert intercept_given_y(spec, 2) == (0.0, spec.d)
        assert spec.d == pytest.approx(0.5)


class TestPsdSlack:
    @pytest.mark.parametrize(
        "lam2,nu2,alpha,expect",
        [(2, 1, 1, 0.0), (2, 1, -1, 0.0), (2, 1, 0, 3.0), (0, 1, 0.5, 0.75)],
    )
    def test_values(self, lam2, nu2, alpha, expect):
        assert psd_slack(ExtendedSpec(lam2, nu2, alpha)) == pytest.approx(
            expect, abs=1e-12
        )

    @pytest.mark.parametrize("lam2", [0.3, 1.5, 2.0, -0.2])
    @pytest.mark.parametrize("alpha", [-1.0, 1.0])
    def test_exactly_zero_at_the_ends_of_the_box(self, lam2, alpha):
        # d*nu2 - tau^2 cancels: 3.3e-16 at (2, 1, -1)
        assert psd_slack(ExtendedSpec(lam2, 1.0, alpha)) == 0.0

    def test_is_d_sigma2_minus_n_tau_sq(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            nu2 = float(rng.uniform(0.2, 2.0))
            spec = ExtendedSpec(float(rng.uniform(-nu2 + 1e-3, 2.0)), nu2,
                                float(rng.uniform(-1, 1)))
            n = int(rng.integers(1, 9))
            want = spec.d * nu2 - n * spec.tau**2
            assert psd_slack(spec, n) == pytest.approx(want, abs=1e-13 * (1 + spec.d + n))


class TestAdmissible:
    """admissible(spec, n) is the sign of d*sigma2 - n*tau^2 up to psd_slack's rounding."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("lam2, nu2", [(1.0, 1.0), (0.0, 0.3), (2.0, 0.5), (-0.1, 1.0)])
    def test_matches_the_least_eigenvalue(self, lam2, nu2, n):
        lo, hi = map(float, a_n(lam2, nu2, n))
        for alpha in np.linspace(-1, 1, 41).tolist():
            spec = ExtendedSpec(lam2, nu2, alpha)
            low = np.linalg.eigvalsh(joint_cov(spec, n))[0]
            if lo + 1e-9 < alpha < hi - 1e-9:
                assert admissible(spec, n) and low > -1e-12
            elif alpha < lo - 1e-9 or alpha > hi + 1e-9:
                assert not admissible(spec, n) and low < 0

    def test_every_alpha_at_one_error(self):
        for alpha in np.linspace(-1, 1, 201).tolist():
            assert admissible(ExtendedSpec(1.5, 1.0, alpha), 1)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_point_mass_carries_rounding_in_tau(self, n):
        # exactly tau = 0, but nu*nu != nu2 in floats: a bound of 0 would refuse it
        spec = ExtendedSpec(0.0, 0.01, -1.0)
        assert spec.tau != 0.0 and psd_slack(spec, n) < 0.0
        assert admissible(spec, n)

    def test_bound_is_relative(self):
        # the same alpha at every scale where the squares neither under- nor overflow
        for scale in (1e-100, 1e-8, 1.0, 1e8, 1e100):
            assert admissible(ExtendedSpec(scale, scale, -0.5), 4)
            assert not admissible(ExtendedSpec(scale, scale, 0.2), 4)

    def test_scales_where_the_slack_under_or_overflows(self):
        """A slack of size 1e-400 or 1e400 keeps its sign: a signed zero or infinity."""
        for scale in (1e-200, 1e200, 5e-324, 1e300):
            assert admissible(ExtendedSpec(scale, scale, -0.5), 4)
            assert not admissible(ExtendedSpec(scale, scale, 0.2), 4)
        assert math.copysign(1.0, psd_slack(ExtendedSpec(1e-200, 1e-200, 0.2), 4)) == -1.0
        assert psd_slack(ExtendedSpec(1e200, 1e200, -0.5), 4) == math.inf
        assert psd_slack(ExtendedSpec(1e200, 1e200, 0.2), 4) == -math.inf

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_least_eigenvalue_is_joint_covs(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            nu2 = float(rng.uniform(0.1, 3.0))
            spec = ExtendedSpec(float(rng.uniform(-nu2 / n, 3.0)), nu2, float(rng.uniform(-1, 1)))
            want = np.linalg.eigvalsh(joint_cov(spec, n))[0]
            assert least_eigenvalue(spec, n) == pytest.approx(want, rel=1e-9, abs=1e-12)
        low = least_eigenvalue(ExtendedSpec(1.0, 1.0, 0.2), 4)
        for k in (-300, 300):  # 4^k times the value at scale 1, where psd_slack is 0 or inf
            assert least_eigenvalue(ExtendedSpec(4.0**k, 4.0**k, 0.2), 4) == low * 4.0**k < 0

    def test_law_given_y_at_extreme_scales(self):
        """v is of degree 1 in (lambda2, nu2): 4^k times v at scale 1, and c the same."""
        c, v = intercept_given_y(ExtendedSpec(1.0, 1.0, -0.5), 4)
        for k in (-300, 300):  # slack 16^k: beyond floats
            big = ExtendedSpec(4.0**k, 4.0**k, -0.5)
            assert intercept_given_y(big, 4) == (c, v * 4.0**k)

    @given(
        nu2=st.floats(1e-3, 1e3),
        ratio=st.one_of(st.just(0.0), st.floats(-1.0, 10.0, exclude_min=True)),
        alpha=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
        n=st.integers(1, 50),
        k=st.integers(-120, 120),
    )
    @settings(max_examples=300, deadline=None)
    def test_decision_is_scale_free(self, nu2, ratio, alpha, n, k):
        """admissible(spec, n) is unchanged when (lambda2, nu2) is scaled by 4^k."""
        lambda2 = nu2 * ratio
        if not lambda2 + nu2 > 0 or math.ldexp(math.ldexp(lambda2, 2 * k), -2 * k) != lambda2:
            return  # no such spec, or 4^k does not scale lambda2 exactly
        scaled = ExtendedSpec(math.ldexp(lambda2, 2 * k), math.ldexp(nu2, 2 * k), alpha)
        assert admissible(scaled, n) is admissible(ExtendedSpec(lambda2, nu2, alpha), n)
