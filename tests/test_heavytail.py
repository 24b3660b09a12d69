import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import ks_2samp, kstest

from unobs_lab.heavytail import (
    BLOCK,
    FRAILTY_TOL,
    MomentResult,
    QuadratureError,
    WeibullExpSpec,
    WeibullGammaSpec,
    pit_sample,
    running_mean_trace,
    truncated_moment,
    we_cdf,
    we_moment,
    we_pdf,
    we_quantile,
    we_sample,
    wg_moment_defined,
    wg_sample,
)
from unobs_lab.model_core import DomainError
from unobs_lab.rng import substream

finite = {"allow_nan": False, "allow_infinity": False}

UNIT = WeibullExpSpec(1.0, 1.0, 1.0)

GRID = [
    WeibullExpSpec(1.0, 0.7, 1.0),
    WeibullExpSpec(1.0, 1.0, 1.0),
    WeibullExpSpec(2.0, 1.5, 0.5),
    WeibullExpSpec(0.5, 2.0, 3.0),
    WeibullExpSpec(3.0, 2.5, 2.0),
]


def ks_critical(n, level=0.001):
    """Asymptotic one-sample Kolmogorov-Smirnov critical value."""
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)


def moment_by_quadrature(spec, k):
    """Full-range quadrature oracle via u = phi*y^rho/delta substitution."""
    r = k / spec.rho
    c = (spec.delta / spec.phi) ** r
    val, err = quad(lambda u: c * u**r / (1.0 + u) ** 2, 0.0, np.inf, limit=500)
    assert err < 1e-8
    return val


# ---------------------------------------------------------------------------
# Density, CDF, quantile
# ---------------------------------------------------------------------------


class TestPdf:
    def test_values(self):
        assert we_pdf(UNIT, 0.0) == 1.0
        assert we_pdf(UNIT, 1.0) == 0.25
        assert we_pdf(WeibullExpSpec(1, 2, 1), 1.0) == 0.5

    def test_zero_with_rho_below_one_is_inf(self):
        assert we_pdf(WeibullExpSpec(1, 0.5, 1), 0.0) == np.inf

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            we_pdf(UNIT, -0.1)

    def test_integrates_to_one(self):
        for spec in GRID:
            hi = we_quantile(spec, 1 - 1e-8)
            cuts = [0.0]
            edge = 1.0
            while edge < hi:
                cuts.append(edge)
                edge *= 10.0
            cuts.append(hi)
            total = sum(
                quad(lambda y: we_pdf(spec, y), lo, up, limit=300)[0]
                for lo, up in zip(cuts[:-1], cuts[1:])
            )
            tail = spec.delta / (spec.delta + spec.phi * hi**spec.rho)
            assert total + tail == pytest.approx(1.0, abs=1e-8)


class TestCdfQuantile:
    def test_values(self):
        assert we_cdf(UNIT, 1.0) == 0.5
        assert we_quantile(UNIT, 0.5) == 1.0
        for spec in GRID:
            assert we_cdf(spec, 0.0) == 0.0

    def test_mutually_inverse(self):
        u = np.linspace(1e-6, 1 - 1e-6, 501)
        for spec in GRID:
            back = we_cdf(spec, we_quantile(spec, u))
            assert np.max(np.abs(back - u)) < 1e-10

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                we_quantile(UNIT, bad)

    @given(
        phi=st.floats(0.1, 10, **finite),
        rho=st.floats(0.3, 4, **finite),
        delta=st.floats(0.1, 10, **finite),
        y=st.floats(0, 100, **finite),
        c=st.floats(0.1, 10, **finite),
    )
    @settings(max_examples=200)
    def test_scaling_law(self, phi, rho, delta, y, c):
        # Y ~ WE(phi, rho, delta)  =>  c*Y ~ WE(phi / c^rho, rho, delta)
        a = we_cdf(WeibullExpSpec(phi, rho, delta), y)
        b = we_cdf(WeibullExpSpec(phi / c**rho, rho, delta), c * y)
        assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


class TestMoments:
    def test_half_gamma_squared(self):
        m = we_moment(WeibullExpSpec(1, 2, 1), 1)
        assert m.formula_defined and m.integral_finite
        assert m.value == pytest.approx(math.pi / 2, abs=1e-12)
        assert m.value == math.pi / 2  # no log-gamma round trip
        assert m.value == pytest.approx(
            moment_by_quadrature(WeibullExpSpec(1, 2, 1), 1), abs=1e-6
        )

    def test_cauchy_type_pole(self):
        m = we_moment(UNIT, 1)
        assert not m.formula_defined
        assert not m.integral_finite
        assert m.value is None

    def test_reflection_formula_value(self):
        m = we_moment(WeibullExpSpec(1, 3, 1), 1)
        assert m.value == pytest.approx(2 * math.pi / (3 * math.sqrt(3)), abs=1e-12)
        want = 2 * math.pi / (3 * math.sqrt(3))
        assert abs(m.value - want) <= math.ulp(want)

    def test_formula_defined_but_divergent(self):
        m = we_moment(WeibullExpSpec(1, 2.5, 1), 3)
        assert m.formula_defined  # 3/2.5 = 1.2 is not an integer
        assert not m.integral_finite  # 3 > 2.5
        assert m.value is None

    def test_oracle_agreement_on_grid(self):
        for spec in GRID:
            for k in (1, 2, 3):
                m = we_moment(spec, k)
                if m.integral_finite:
                    assert m.value == pytest.approx(
                        moment_by_quadrature(spec, k), abs=1e-5
                    )

    @given(rho=st.floats(0.2, 12, **finite), k=st.integers(1, 10))
    @settings(max_examples=300)
    def test_momentresult_lattice(self, rho, k):
        m = we_moment(WeibullExpSpec(1.0, rho, 1.0), k)
        if m.integral_finite:
            assert m.formula_defined
        assert (m.value is not None) == m.integral_finite

    def test_irrational_rho_sweep(self):
        for k in range(1, 11):
            m = we_moment(WeibullExpSpec(1.0, math.pi, 1.0), k)
            assert m.formula_defined
            assert m.integral_finite == (k < math.pi)

    def test_momentresult_invariants(self):
        with pytest.raises(ValueError):
            MomentResult(k=1, formula_defined=False, integral_finite=True, value=1.0)
        with pytest.raises(ValueError):
            MomentResult(k=1, formula_defined=True, integral_finite=True, value=None)


class TestWgMomentDefined:
    def test_examples(self):
        assert not wg_moment_defined(1.0, 1.0, 1)  # alpha - k/rho = 0
        assert wg_moment_defined(2.5, 1.0, 1)
        assert not wg_moment_defined(1.0, 0.5, 2)  # 1 - 4 = -3

    def test_tolerance(self):
        assert not wg_moment_defined(1.0, 1.0 + 1e-12, 1)
        assert wg_moment_defined(1.0, 1.001, 1)


# ---------------------------------------------------------------------------
# Truncated moments (quadrature oracle)
# ---------------------------------------------------------------------------


def closed_form_trunc(spec, T):
    # rho = 1, k = 1 only
    z = spec.phi * T / spec.delta
    return (spec.delta / spec.phi) * (math.log(1 + z) + 1 / (1 + z) - 1)


class TestTruncatedMoment:
    def test_hand_value(self):
        got = truncated_moment(UNIT, 1, math.e - 1)
        assert got == pytest.approx(1 / math.e, abs=1e-9)

    def test_converges_to_half_pi(self):
        got = truncated_moment(WeibullExpSpec(1, 2, 1), 1, 1e6)
        assert got == pytest.approx(math.pi / 2, abs=1e-3)

    def test_logarithmic_divergence(self):
        diff = truncated_moment(UNIT, 1, 1e6) - truncated_moment(UNIT, 1, 1e3)
        assert diff == pytest.approx(math.log(1e3), abs=0.01)

    def test_matches_closed_form(self):
        for spec in (UNIT, WeibullExpSpec(2.0, 1.0, 0.5)):
            for T in (0.5, 10.0, 1e4):
                assert truncated_moment(spec, 1, T) == pytest.approx(
                    closed_form_trunc(spec, T), abs=1e-9
                )

    def test_truncation_plus_tail_bound_brackets_moment(self):
        # T* at the 1 - 1e-10 quantile; tail bounded by the integrand with
        # (delta + phi*y^rho)^2 >= (phi*y^rho)^2
        for spec in GRID:
            for k in (1, 2):
                m = we_moment(spec, k)
                if not m.integral_finite:
                    continue
                t_star = we_quantile(spec, 1 - 1e-10)
                trunc = truncated_moment(spec, k, t_star)
                tail_bound = (
                    spec.delta
                    * spec.rho
                    / spec.phi
                    * t_star ** (k - spec.rho)
                    / (spec.rho - k)
                )
                assert abs(m.value - trunc) < 1e-5 + tail_bound

    def test_domain(self):
        with pytest.raises(DomainError):
            truncated_moment(UNIT, 1, 0.0)

    @pytest.mark.parametrize("k,T", [(1, 0.0), (0, 1.0), (1, float("nan"))])
    def test_arguments_are_refused_before_scipy_is_imported(self, k, T):
        code = (
            "import sys\n"
            "from unobs_lab.heavytail import WeibullExpSpec, truncated_moment\n"
            "from unobs_lab.model_core import DomainError\n"
            "try:\n"
            f"    truncated_moment(WeibullExpSpec(1.0, 1.0, 1.0), {k}, float({str(T)!r}))\n"
            "except DomainError:\n"
            "    print('scipy' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
        assert proc.stdout == "False\n", proc.stderr


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWeSample:
    def test_median(self):
        draws = we_sample(UNIT, 100_000, seed=2)
        assert np.median(draws) == pytest.approx(1.0, abs=0.02)

    def test_convergent_mean(self):
        draws = we_sample(WeibullExpSpec(1, 2, 1), 100_000, seed=2)
        assert draws.mean() == pytest.approx(math.pi / 2, abs=0.05)

    def test_ks_against_cdf(self):
        n = 100_000
        draws = we_sample(UNIT, n, seed=6)
        stat = kstest(draws, lambda y: we_cdf(UNIT, y)).statistic
        assert stat < ks_critical(n)

    def test_deterministic(self):
        assert np.array_equal(we_sample(UNIT, 100, seed=9), we_sample(UNIT, 100, seed=9))

    def test_in_place_equals_quantile_of_uniforms(self):
        """Drawn BLOCK at a time, the uniforms are one long stream's."""
        spec = WeibullExpSpec(1.3, 2.5, 0.8)
        n = 3 * BLOCK + 5
        u = substream(9, 0).random(n)
        assert np.array_equal(we_sample(spec, n, seed=9), we_quantile(spec, u))
        assert np.array_equal(u, substream(9, 0).random(n))  # input left as it was

    def test_peak_memory_is_one_output(self):
        n = 1_000_000
        peak = traced_peak(lambda: we_sample(UNIT, n, seed=1))
        assert peak < 1.1 * 8 * n + 2 * 8 * BLOCK  # the draws, u and one temporary block

    def test_overflow_names_the_first_u(self):
        spec = WeibullExpSpec(phi=1e-300, rho=0.01, delta=1.0)
        u = substream(4, 0).random(10)
        want = f"quantile returned a non-finite value at u = {float(u[0])!r}"
        for call in (lambda: we_sample(spec, 10, seed=4),
                     lambda: running_mean_trace(spec, 10, 1, seed=4)):
            with pytest.raises(ArithmeticError, match=re.escape(want)):
                call()

    def test_first_non_finite_draw_is_named(self):
        spec = WeibullExpSpec(phi=1.0, rho=0.003, delta=1.0)  # overflows for u > 0.9
        u = substream(5, 0).random(200)
        with np.errstate(over="ignore"):
            first = np.flatnonzero(~np.isfinite((u / (1 - u)) ** (1 / 0.003)))[0]
        assert 0 < first
        with pytest.raises(ArithmeticError, match=re.escape(f"u = {float(u[first])!r}")):
            we_sample(spec, 200, seed=5)

    def test_first_non_finite_draw_in_a_later_block_is_named(self):
        spec = WeibullExpSpec(phi=1.0, rho=0.016, delta=1.0)  # overflows for 1-u < ~1e-5
        N = 4 * BLOCK
        u = np.clip(substream(10, 0).random(N), 1e-300, 1.0 - 1e-16)
        with np.errstate(over="ignore"):
            first = np.flatnonzero(~np.isfinite((u / (1 - u)) ** (1 / spec.rho)))[0]
        assert first >= 2 * BLOCK
        want = f"quantile returned a non-finite value at u = {float(u[first])!r}"
        for call in (lambda: we_sample(spec, N, seed=10),
                     lambda: running_mean_trace(spec, N, 7, seed=10)):
            with pytest.raises(ArithmeticError, match=re.escape(want)):
                call()


class TestRunningMeanTrace:
    def test_convergent_control(self):
        _, mean = running_mean_trace(WeibullExpSpec(1, 2, 1), 100_000, 1000, seed=2)
        assert mean[-1] == pytest.approx(math.pi / 2, abs=0.05)

    def test_stride_equals_n(self):
        n, mean = running_mean_trace(UNIT, 5000, 5000, seed=4)
        assert n.tolist() == [5000]
        assert mean[0] == pytest.approx(we_sample(UNIT, 5000, seed=4).mean())

    def test_heavy_tail_jumps(self):
        # statistical smoke test: over ten frozen seeds at least one trace
        # jumps past 5x its median (calibrated on seeds 0..9; 2 and 5 fire)
        hits = 0
        for seed in range(10):
            _, means = running_mean_trace(UNIT, 100_000, 100, seed=seed)
            if means.max() > 5 * np.median(means):
                hits += 1
        assert hits >= 1

    def test_invalid_stride(self):
        with pytest.raises(DomainError):
            running_mean_trace(UNIT, 10, 11, seed=0)

    @pytest.mark.parametrize("N", [2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 7])
    @pytest.mark.parametrize("stride", [1, 7, BLOCK + 1])
    def test_is_the_cumulative_mean_of_the_sample(self, N, stride):
        """Summed BLOCK draws at a time, with the same bits as one cumsum."""
        spec = WeibullExpSpec(1.3, 0.7, 0.7)
        n, mean = running_mean_trace(spec, N, stride, seed=8)
        want = np.arange(stride, N + 1, stride)
        assert np.array_equal(n, want)
        expected = np.cumsum(we_sample(spec, N, seed=8))[want - 1] / want
        assert mean.tobytes() == expected.tobytes()

    def test_peak_memory_keeps_only_every_stride_th_sum(self):
        N = 1_000_000
        peak = traced_peak(lambda: running_mean_trace(UNIT, N, 10, seed=1))
        assert peak < 0.5 * 8 * N  # n, the means and three blocks


class TestPitSample:
    def test_identity_quantile_gives_uniform(self):
        draws = pit_sample(lambda u: u, 100_000, seed=3)
        assert kstest(draws, "uniform").statistic < ks_critical(100_000)

    def test_matches_we_sample_in_distribution(self):
        n = 100_000
        a = pit_sample(lambda u: we_quantile(UNIT, u), n, seed=11)
        b = we_sample(UNIT, n, seed=12)
        stat = ks_2samp(a, b).statistic
        # two-sample critical value at level 0.001
        assert stat < math.sqrt(-0.5 * math.log(0.0005)) * math.sqrt(2 / n)

    def test_draws_are_the_quantile_of_ndtr_of_the_normals(self):
        u = np.clip(ndtr(substream(5, 0).standard_normal(1000)), 1e-300, 1.0 - 1e-16)
        draws = pit_sample(lambda v: we_quantile(UNIT, v), 1000, seed=5)
        assert np.array_equal(draws, we_quantile(UNIT, u))

    def test_blocks_are_one_stream(self):
        """Mapped BLOCK normals at a time, the draws are one long call's."""
        spec = WeibullExpSpec(1.3, 0.7, 0.8)
        n = 2 * BLOCK + 7
        u = np.clip(ndtr(substream(6, 0).standard_normal(n)), 1e-300, 1.0 - 1e-16)
        seen = []
        draws = pit_sample(lambda v: seen.append(len(v)) or we_quantile(spec, v), n, seed=6)
        assert seen == [BLOCK, BLOCK, 7]
        assert draws.tobytes() == we_quantile(spec, u).tobytes()

    def test_peak_memory_is_below_one_and_a_half_outputs(self):
        n = 1_000_000
        pit_sample(lambda u: we_quantile(UNIT, u), 10, seed=1)  # ndtr loaded before tracing
        peak = traced_peak(lambda: pit_sample(lambda u: we_quantile(UNIT, u), n, seed=1))
        assert peak < 1.5 * 8 * n  # the draws and a few blocks of ndtr's temporaries

    def test_exponential_mean(self):
        draws = pit_sample(lambda u: -np.log(1 - u), 100_000, seed=7)
        assert draws.mean() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize(
        "quantile,shape", [(lambda u: 1.0, "()"), (lambda u: np.ones((len(u), 1)), "(10, 1)")]
    )
    def test_unvectorised_quantile_names_shape(self, quantile, shape):
        want = f"shape {shape} for probabilities of shape (10,)"
        with pytest.raises(TypeError, match=re.escape(want)):
            pit_sample(quantile, 10, seed=0)

    def test_nonfinite_quantile_reported(self):
        with pytest.raises(ArithmeticError, match="u ="):
            pit_sample(lambda u: np.full_like(np.asarray(u, float), np.nan), 10, seed=0)

    def test_overflow_names_the_first_u_like_we_sample(self):
        spec = WeibullExpSpec(phi=1e-300, rho=0.01, delta=1.0)
        u = ndtr(substream(3, 0).standard_normal(20))
        want = f"quantile returned a non-finite value at u = {float(u[0])!r}"
        with pytest.raises(ArithmeticError, match=re.escape(want)):
            pit_sample(lambda v: we_quantile(spec, v), 20, seed=3)


# ---------------------------------------------------------------------------
# Weibull-gamma hierarchy
# ---------------------------------------------------------------------------


def make_wg(mode, alpha, beta, rho=1.0):
    return WeibullGammaSpec(
        lam=1.0,
        rho=rho,
        xi=[0.0],
        x=[[0.0]],
        alpha_g=[alpha],
        beta_g=[beta],
        constraint_mode=mode,
    )


class TestWgSample:
    def test_bayarri_mode_matches_exp_exp_median(self):
        spec = make_wg("bayarri", 1.0, 1.0)  # delta = 1, phi = 1, rho = 1
        draws = wg_sample(spec, 100_000, seed=15)[0]
        ecdf_at_1 = np.mean(draws <= 1.0)
        assert ecdf_at_1 == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("delta", [0.5, 2.0])
    def test_bayarri_mode_is_weibull_exponential(self, rho, delta):
        """Exponential frailties of rate delta give WE(phi = lam * e^(x'xi), rho, delta)."""
        n, lam, xi, x = 20_000, 0.7, [0.4, -1.1], [[1.5, 0.2], [-0.8, 0.9]]
        spec = WeibullGammaSpec(lam=lam, rho=rho, xi=xi, x=x, alpha_g=[1.0, 1.0],
                                beta_g=[1.0 / delta, 1.0 / delta], constraint_mode="bayarri")
        for j, draws in enumerate(wg_sample(spec, n, seed=18)):
            phi = lam * math.exp(float(np.dot(x[j], xi)))
            we = WeibullExpSpec(phi, rho, delta)
            assert kstest(draws, lambda y: we_cdf(we, y)).statistic < ks_critical(n)

    def test_degenerate_frailty_limit_is_weibull(self):
        spec = make_wg("frailty", 1e4, 1e-4, rho=1.5)
        draws = wg_sample(spec, 100_000, seed=16)[0]
        grid = np.linspace(0.01, 4.0, 200)
        weibull_cdf = 1 - np.exp(-(grid**1.5))
        ecdf = np.searchsorted(np.sort(draws), grid) / len(draws)
        assert np.max(np.abs(ecdf - weibull_cdf)) < 0.02

    def test_conditional_law_is_exponential_in_y_rho(self):
        # huge gamma shape pins theta ~= 1: Y^rho ~ Exponential(lam)
        n = 100_000
        spec = make_wg("frailty", 1e8, 1e-8, rho=2.0)
        draws = wg_sample(spec, n, seed=17)[0]
        stat = kstest(draws**2.0, "expon").statistic
        assert stat < 1.95 / math.sqrt(n)

    def test_constraint_validation(self):
        want = f"frailty mode requires |alpha_g * beta_g - 1| <= {FRAILTY_TOL!r}"
        with pytest.raises(DomainError, match=re.escape(want)):
            make_wg("frailty", 2.0, 1.0)
        with pytest.raises(DomainError):
            make_wg("bayarri", 2.0, 1.0)

    @pytest.mark.parametrize("alpha", [49.0, 98.0, 103.0])
    def test_frailty_mode_accepts_a_rounded_unit_mean(self, alpha):
        assert alpha * (1.0 / alpha) == 1.0 - 2.0**-53
        spec = make_wg("frailty", alpha, 1.0 / alpha)
        assert spec.beta_g.tolist() == [1.0 / alpha]

    def test_frailty_mode_tolerance_is_a_few_ulps(self):
        make_wg("frailty", 1.0 + FRAILTY_TOL, 1.0)
        with pytest.raises(DomainError):
            make_wg("frailty", 1.0 + 2 * FRAILTY_TOL, 1.0)

    def test_free_mode_aliasing_flag(self):
        spec = make_wg("free", 2.0, 3.0)
        assert spec.aliasing_warning


# ---------------------------------------------------------------------------
# rho = 1 specialization guard
# ---------------------------------------------------------------------------


def ee_pdf(phi, delta, y):
    return phi * delta / (delta + phi * y) ** 2


def ee_cdf(phi, delta, y):
    return 1 - delta / (delta + phi * y)


def ee_quantile(phi, delta, u):
    return delta * u / (phi * (1 - u))


def ee_moment_finite(k):
    return False  # no exponential-exponential moment is finite


class TestExpExpReduction:
    def test_pdf_cdf_quantile_match(self):
        spec = WeibullExpSpec(2.0, 1.0, 0.7)
        ys = np.linspace(0.0, 20.0, 101)
        assert np.max(np.abs(we_pdf(spec, ys) - ee_pdf(2.0, 0.7, ys))) < 1e-12
        assert np.max(np.abs(we_cdf(spec, ys) - ee_cdf(2.0, 0.7, ys))) < 1e-12
        us = np.linspace(1e-4, 1 - 1e-4, 101)
        assert np.max(np.abs(we_quantile(spec, us) - ee_quantile(2.0, 0.7, us))) < 1e-12

    def test_no_finite_moments(self):
        spec = WeibullExpSpec(2.0, 1.0, 0.7)
        for k in range(1, 6):
            m = we_moment(spec, k)
            assert m.integral_finite == ee_moment_finite(k)
            assert not m.formula_defined  # Gamma(1 - k) pole for every k >= 1
