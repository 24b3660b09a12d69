import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import ks_2samp, kstest

from exact import (moment_at_k_equal_rho, moment_by_quadrature, moment_log10, quantile,
                   ratio_pow)
from unobs_lab import heavytail
from unobs_lab.cs import DomainError
from unobs_lab.heavytail import (
    BLOCK,
    MAX_PANELS,
    TAIL_LOG_U,
    MomentResult,
    QuadratureError,
    WeibullExpSpec,
    _ratio_pow,
    pit_sample,
    running_mean_trace,
    truncated_moment,
    we_cdf,
    we_moment,
    we_quantile,
    we_sample,
    wg_moment_defined,
)
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


# scales where (delta*u / (phi*(1-u)))^(1/rho) leaves the floats, as a whole or on the way
EXTREME = [
    WeibullExpSpec(phi=1e300, rho=50.0, delta=1e-300),  # delta/phi underflows: median 1e-12
    WeibullExpSpec(phi=1e-300, rho=50.0, delta=1e300),  # delta/phi overflows: median 1e12
    WeibullExpSpec(phi=1e-30, rho=1.0, delta=1e-30),  # u * delta underflows
    WeibullExpSpec(phi=1e-320, rho=0.5, delta=1e-320),  # u*delta and (1-u)*phi are subnormal
]


def ks_critical(n, level=0.001):
    """Asymptotic one-sample Kolmogorov-Smirnov critical value."""
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)


# ---------------------------------------------------------------------------
# CDF, quantile
# ---------------------------------------------------------------------------


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
        for bad in (0.0, 1.0, -0.2, 1.5, math.nan):
            with pytest.raises(DomainError):
                we_quantile(UNIT, bad)

    def test_cdf_domain(self):
        for bad in ([1.0, -0.5], math.nan, [2.0, math.nan]):
            with pytest.raises(DomainError, match="support is y >= 0"):
                we_cdf(UNIT, bad)

    @pytest.mark.parametrize("spec", EXTREME)
    def test_quantile_where_the_direct_form_leaves_the_floats(self, spec):
        u = np.array([1e-300, 1e-20, 0.1, 0.5, 0.8462040482315447, 0.9, 1 - 1e-16])
        want = [float(quantile(*spec, v)) for v in u.tolist()]
        assert we_quantile(spec, u) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_entries_the_direct_form_settles_keep_their_bits(self):
        spec = EXTREME[2]  # u * delta underflows for u below ~1e-294
        u = np.geomspace(1e-300, 0.5, 200)
        direct = (u * spec.delta / ((1 - u) * spec.phi)) ** (1 / spec.rho)
        got = we_quantile(spec, u)
        kept = direct >= sys.float_info.min
        assert 0 < kept.sum() < len(u)
        assert got[kept].tobytes() == direct[kept].tobytes()
        want = [float(quantile(*spec, v)) for v in u[~kept].tolist()]
        assert got[~kept] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_only_entries_with_a_subnormal_product_are_recomputed(self):
        """delta < TINY: u*delta is subnormal below u = 2.2e-8, though t stays normal."""
        spec = WeibullExpSpec(phi=1e-20, rho=1.0, delta=1e-300)
        u = np.geomspace(1e-27, 0.5, 200)
        direct = u * spec.delta / ((1 - u) * spec.phi)
        got = we_quantile(spec, u)
        kept = u * spec.delta >= sys.float_info.min
        assert 0 < kept.sum() < len(u)
        assert (u / (1 - u) * (spec.delta / spec.phi)).min() >= sys.float_info.min  # t
        assert got[kept].tobytes() == direct[kept].tobytes()
        want = [float(quantile(*spec, v)) for v in u[~kept].tolist()]
        assert got[~kept] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_scale_outside_the_floats_keeps_the_direct_form(self):
        """(delta/phi)^(1/rho) = inf times (u/(1-u))^(1/rho) = 0 would be nan: the 0 stands."""
        assert we_quantile(WeibullExpSpec(phi=1.0, rho=0.01, delta=1e10), 1e-300) == 0.0

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
        assert m.value == pytest.approx(moment_by_quadrature(WeibullExpSpec(1, 2, 1), 1), abs=1e-6)

    def test_cauchy_type_pole(self):
        m = we_moment(UNIT, 1)
        assert not m.formula_defined
        assert not m.integral_finite
        assert m.value is None

    @pytest.mark.parametrize("rho", [1e-300, 1e-320, 5e-324])
    def test_pole_at_a_subnormal_rho(self, rho):
        """k/rho = 1e300 is an integer, and k/rho = inf (a subnormal rho) is one too,
        not an OverflowError from round(-inf)."""
        m = we_moment(WeibullExpSpec(1, rho, 1), 1)
        assert (m.formula_defined, m.integral_finite, m.value) == (False, False, None)
        assert not wg_moment_defined(1.0, rho, 1)

    def test_reflection_formula_value(self):
        m = we_moment(WeibullExpSpec(1, 3, 1), 1)
        assert m.value == pytest.approx(2 * math.pi / (3 * math.sqrt(3)), abs=1e-12)
        want = 2 * math.pi / (3 * math.sqrt(3))
        assert abs(m.value - want) <= math.ulp(want)

    @pytest.mark.parametrize("phi,delta,want", [
        (1e300, 1e-300, 1e-300 * math.pi / 2),  # delta/phi underflows to 0
        (1e-300, 1e300, 1e300 * math.pi / 2),  # delta/phi overflows to inf
        (1e10, 1e-300, 1e-155 * math.pi / 2),  # delta/phi is subnormal
    ])
    def test_value_where_delta_over_phi_leaves_the_floats(self, phi, delta, want):
        m = we_moment(WeibullExpSpec(phi, 2, delta), 1)
        assert m.value == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("num,den", [(1e-300, 1e300), (1e300, 1e-300), (1e-300, 1e10),
                                         (5e-324, 1.0), (1.7e308, 0.5), (3.0, 7.0)])
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 1.0 / 3.0])
    def test_ratio_power_against_decimal(self, num, den, r):
        """we_moment and the quantile form (delta/phi)^r by _ratio_pow."""
        want = float(ratio_pow(num, den, r, prec=40))
        assert _ratio_pow(num, den, r) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("num,den,r", [(1e300, 1.0, 2.0), (1e300, 1e-300, 2.0),
                                           (1e200, 1e-200, 1.0)])
    def test_ratio_power_overflows_to_inf_in_both_branches(self, num, den, r):
        """num/den normal with q**r past the floats, and num/den itself inf, alike."""
        assert _ratio_pow(num, den, r) == math.inf

    @pytest.mark.parametrize("phi,delta", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_moment_outside_the_floats_is_refused_by_its_exponent(self, phi, delta):
        """About 1e-545 and 1e546: the message names k and the decimal exponent."""
        with pytest.raises(ArithmeticError, match=r"^moment k=1 is about 1e(-?\d+), ") as info:
            we_moment(WeibullExpSpec(phi, 1.1, delta), 1)
        log10 = moment_log10(phi, 1.1, delta, 1)  # pi/1.1 is far from a multiple of pi
        assert int(re.search(r"1e(-?\d+)", str(info.value)).group(1)) == math.floor(log10)
        assert math.floor(log10) == (-545 if phi > 1 else 546)

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
                    assert m.value == pytest.approx(moment_by_quadrature(spec, k), abs=1e-5)

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

    @pytest.mark.parametrize("k", [0, -1])
    def test_order_below_one_is_refused(self, k):
        with pytest.raises(DomainError, match="moment order k must be a positive integer"):
            we_moment(UNIT, k)


class TestWgMomentDefined:
    def test_examples(self):
        assert not wg_moment_defined(1.0, 1.0, 1)  # alpha - k/rho = 0
        assert wg_moment_defined(2.5, 1.0, 1)
        assert not wg_moment_defined(1.0, 0.5, 2)  # 1 - 4 = -3

    def test_tolerance(self):
        assert not wg_moment_defined(1.0, 1.0 + 1e-12, 1)
        assert wg_moment_defined(1.0, 1.001, 1)

    @pytest.mark.parametrize("alpha_g,rho,k", [(0.0, 1.0, 1), (1.0, -1.0, 1), (1.0, 1.0, 0)])
    def test_domain(self, alpha_g, rho, k):
        with pytest.raises(DomainError, match="alpha_g, rho, k must be positive"):
            wg_moment_defined(alpha_g, rho, k)


# ---------------------------------------------------------------------------
# Truncated moments (quadrature oracle)
# ---------------------------------------------------------------------------


# phi, rho, delta, k, T: the 450 cases of ROADMAP item 4, half of them k >= rho and T >= 1e3
TRUNCATED_GRID = [
    (phi, rho, delta, k, T)
    for phi in (0.3, 1.0, 7.0) for rho in (0.2, 0.7, 1.0, 2.5, 6.0) for delta in (0.5, 2.0)
    for k in (1, 2, 4) for T in (1e-3, 0.5, 3.0, 1e3, 1e8)
]


def truncated_by_quad(phi, rho, delta, k, T):
    """c * integral of u^r (1+u)^-2 over [0, U] by quad in s = log u, relative error only."""
    r = k / rho

    def h(s):  # u^(r+1) (1+u)^-2, written so that no exp overflows
        if s <= 0:
            return math.exp((r + 1) * s) / (1 + math.exp(s)) ** 2
        return math.exp((r - 1) * s) / (1 + math.exp(-s)) ** 2

    log_u = math.log(phi * T**rho / delta)
    pieces = [(-np.inf, min(log_u, 0.0))] + ([(0.0, log_u)] if log_u > 0 else [])
    total = sum(quad(h, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] for lo, hi in pieces)
    return (delta / phi) ** r * total


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
                want = float(moment_at_k_equal_rho(*spec, T))
                assert truncated_moment(spec, 1, T) == pytest.approx(want, abs=1e-9)

    def test_grid_against_quad(self):
        """Every case of the grid, none refused, within 1e-12 of quad at epsabs=0."""
        for phi, rho, delta, k, T in TRUNCATED_GRID:
            got = truncated_moment(WeibullExpSpec(phi, rho, delta), k, T)
            want = truncated_by_quad(phi, rho, delta, k, T)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (phi, rho, delta, k, T)

    @pytest.mark.parametrize("rho", [1.0, 2.0, 4.0])
    def test_k_equal_rho_against_log_closed_form(self, rho):
        """At k = rho: c * (log(1+U) - U/(1+U)) in decimal, growing as log T."""
        for phi in (0.3, 1.0, 7.0, 1e-200):
            for delta in (0.5, 2.0, 1e200):
                for T in (1e-3, 0.5, 3.0, 1e3, 1e8, 1e300):
                    want = float(moment_at_k_equal_rho(phi, rho, delta, T))
                    got = truncated_moment(WeibullExpSpec(phi, rho, delta), int(rho), T)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (phi, delta, T)

    def test_converging_moments_reach_we_moment(self):
        """With k < rho the tail past T = 1e300 is below 1e-100 of the moment."""
        for phi, rho, delta, k in sorted({case[:4] for case in TRUNCATED_GRID}):
            spec = WeibullExpSpec(phi, rho, delta)
            if k < rho:
                got = truncated_moment(spec, k, 1e300)
                assert got == pytest.approx(we_moment(spec, k).value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec,k,T,want", [
        (WeibullExpSpec(1e-300, 0.5, 1.0), 2, 1.0, 2e-301),  # (1e300)^4 * (1e-300)^5 / 5
        (WeibullExpSpec(1e10, 2.0, 1e-300), 1, 0.1, math.pi / 2 * 1e-155),  # U = 1e308
        (WeibullExpSpec(1e10, 2.0, 1e-300), 1, 1e-80, math.pi / 2 * 1e-155),
    ])
    def test_extreme_scales(self, spec, k, T, want):
        """c = (delta/phi)^r and U never formed alone: no OverflowError, no lost digits."""
        assert truncated_moment(spec, k, T) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_no_overflow_error_up_to_t_1e300(self):
        """Every result is a float; a moment past the floats is inf or 0, without a warning."""
        scales = (1e-300, 1.0, 1e300)
        cases = itertools.product(scales, (0.2, 1.0, 6.0), scales, (1, 4),
                                  (1e-300, 1.0, 1e10, 1e100, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for phi, rho, delta, k, T in cases:
                got = truncated_moment(WeibullExpSpec(phi, rho, delta), k, T)
                assert isinstance(got, float) and got >= 0.0, (phi, rho, delta, k, T)
        assert truncated_moment(WeibullExpSpec(1e-300, 0.2, 1e300), 4, 1e300) == math.inf
        assert truncated_moment(WeibullExpSpec(1e300, 0.2, 1e-300), 4, 1e-300) == 0.0

    def test_panel_count_is_bounded(self):
        """Panels stop at log u = TAIL_LOG_U, the rest is closed form: 41*max(1, r) of them
        at most, whatever T, within 1e-12; past MAX_PANELS, refused.

        u^r (1+u)^-2 = u^(r-2) (1 - 2/u + ...), so with U = 1e304 the moment is
        c*U^(r-1)/(r-1) = (delta/phi) T^(k-rho)/(r-1) to 1e-300 relative.
        """
        for k in (10, 40):  # r = 50 and 200: 2,035 and 8,139 panels
            got = truncated_moment(WeibullExpSpec(1e304, 0.2, 1.0), k, 1.0)
            assert got == pytest.approx(1.0 / 1e304 / (5 * k - 1), rel=1e-12, abs=0.0)
        assert math.ceil((TAIL_LOG_U + math.log(2)) * 4000) > MAX_PANELS
        with pytest.raises(QuadratureError, match="panels needed, more than MAX_PANELS"):
            truncated_moment(WeibullExpSpec(1e304, 0.01, 1.0), 40, 1.0)  # r = 4000

    @pytest.mark.parametrize("rho", [50.0, 1e6])
    def test_tail_past_tail_log_u_in_closed_form(self, monkeypatch, rho):
        """T = 1e300 puts log U at 3.5e4 (rho = 50: 34,540 panels) or 6.9e8 (rho = 1e6:
        refused); past log u = 40, 41 panels and the closed-form tail reach we_moment, the
        T -> inf limit at k < rho."""
        monkeypatch.setattr("unobs_lab.heavytail.MAX_PANELS", 41)
        spec = WeibullExpSpec(1.0, rho, 1.0)
        got = truncated_moment(spec, 1, 1e300)
        assert got == pytest.approx(we_moment(spec, 1).value, rel=1e-12, abs=0.0)

    def test_refusal_names_the_relative_estimate(self, monkeypatch):
        monkeypatch.setattr("unobs_lab.heavytail.QUAD_RTOL", -1.0)  # a bound no estimate meets
        with pytest.raises(QuadratureError, match=r"^relative error \S+ > -1.0$"):
            truncated_moment(UNIT, 1, 1e3)

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
        with pytest.raises(DomainError, match="finite"):
            truncated_moment(UNIT, 1, math.inf)
        with pytest.raises(DomainError, match="moment order k must be a positive integer"):
            truncated_moment(UNIT, 0, 1.0)

    @pytest.mark.parametrize("k,T", [(1, 0.0), (0, 1.0), (1, float("nan")), (1, float("inf"))])
    def test_arguments_are_refused_before_scipy_is_imported(self, k, T):
        """scipy is never imported; numpy, which the quadrature needs, not before the checks."""
        code = (
            "import sys\n"
            "from unobs_lab.heavytail import WeibullExpSpec, truncated_moment\n"
            "from unobs_lab.cs import DomainError\n"
            "try:\n"
            f"    truncated_moment(WeibullExpSpec(1.0, 1.0, 1.0), {k}, float({str(T)!r}))\n"
            "except DomainError:\n"
            "    print('scipy' in sys.modules, 'numpy' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
        assert proc.stdout == "False False\n", proc.stderr


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


@pytest.mark.parametrize(
    "sample", [lambda n: we_sample(UNIT, n, seed=1),
               lambda n: pit_sample(lambda u: we_quantile(UNIT, u), n, seed=1)],
    ids=["we_sample", "pit_sample"])
def test_negative_draw_count_is_refused_by_name(sample):
    """Not numpy's "negative dimensions are not allowed"."""
    with pytest.raises(DomainError, match=r"^n_draws = -1: the number of draws must be >= 0$"):
        sample(-1)
    assert len(sample(0)) == 0


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

    @pytest.mark.parametrize("spec", EXTREME)
    def test_draws_at_extreme_scales(self, spec):
        """Every sampler's draws are the quantiles of its u, within 1e-14 of decimal."""
        n = 3 * BLOCK // 2
        u = np.clip(substream(2, 0).random(n), 1e-300, 1.0 - 1e-16)
        pick = np.arange(0, n, 97)
        want = np.array([float(quantile(*spec, v)) for v in u[pick].tolist()])
        draws = we_sample(spec, n, seed=2)
        assert draws[pick] == pytest.approx(want, rel=1e-14, abs=0.0)
        _, mean = running_mean_trace(spec, n, 1, seed=2)
        assert mean.tobytes() == (np.cumsum(draws) / np.arange(1, n + 1)).tobytes()
        v = np.clip(ndtr(substream(2, 0).standard_normal(n)), 1e-300, 1.0 - 1e-16)
        pit = pit_sample(lambda w: we_quantile(spec, w), n, seed=2)
        want = np.array([float(quantile(*spec, w)) for w in v[pick].tolist()])
        assert pit[pick] == pytest.approx(want, rel=1e-14, abs=0.0)

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

    @staticmethod
    def scaled_reference(draws, n):
        """cumsum(draws)/n where the sums stay finite; from the first infinite sum on, the
        sums of the draws times 2^-64, divided by n and times 2^64."""
        with np.errstate(over="ignore"):
            plain = np.cumsum(draws)[n - 1] / n
        scaled = np.cumsum(draws * 2.0**-64)[n - 1] / n * 2.0**64
        return np.where(np.isinf(plain), scaled, plain)

    @pytest.mark.parametrize("stride", [1, 7, BLOCK + 3])
    def test_sums_past_the_float_maximum_are_carried_scaled(self, stride):
        """Seed 2's running sum passes the float maximum at draw 121,850, in block 3; the
        means before keep their bits, and every mean after is finite."""
        spec, N = WeibullExpSpec(1e-300, 1.0, 100.0), 4 * BLOCK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n, mean = running_mean_trace(spec, N, stride, seed=2)
        want = self.scaled_reference(we_sample(spec, N, seed=2), n)
        assert np.isfinite(mean).all()
        assert mean.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_sums_past_the_float_maximum_from_a_block_start(self, monkeypatch, block):
        """At BLOCK = 1 the sum first passes the floats at the first entry of a block."""
        spec = WeibullExpSpec(1e-300, 1.0, 6e5)  # seed 1's sum passes the floats at n = 41
        draws = we_sample(spec, 50, seed=1)
        with np.errstate(over="ignore"):
            assert np.flatnonzero(np.isinf(np.cumsum(draws)))[0] == 40
        monkeypatch.setattr(heavytail, "BLOCK", block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, mean = running_mean_trace(spec, 50, 1, seed=1)
        assert mean.tobytes() == self.scaled_reference(draws, np.arange(1, 51)).tobytes()

    def test_peak_memory_keeps_only_every_stride_th_sum(self):
        N = 1_000_000
        peak = traced_peak(lambda: running_mean_trace(UNIT, N, 10, seed=1))
        assert peak < 0.5 * 8 * N  # n, the means and three blocks


def test_samplers_start_no_thread(monkeypatch):
    """Only cs.write_rows runs a fill in a worker; the library samplers drain it here."""
    def refuse(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    N = 2 * BLOCK + 3
    assert len(we_sample(UNIT, N, seed=1)) == N
    assert len(running_mean_trace(UNIT, N, 7, seed=1)[1]) == N // 7
    assert len(pit_sample(lambda u: we_quantile(UNIT, u), N, seed=1)) == N


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
# The Weibull-exponential hierarchy
# ---------------------------------------------------------------------------


class TestHierarchy:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("delta", [0.5, 2.0])
    def test_exponential_frailty_gives_weibull_exponential(self, rho, delta):
        """A Weibull outcome, survival exp(-phi*theta*y^rho), over a frailty theta of
        rate delta is Weibull-exponential (phi, rho, delta): claim (2)'s marginal.

        Y = (E/(phi*theta))^(1/rho), E ~ Exp(1), by inverse survival, drawn here with
        numpy, so the step from hierarchy to marginal rests on we_cdf alone.
        """
        n, phi = 20_000, 0.7
        rng = np.random.default_rng(18)
        theta = rng.exponential(scale=1.0 / delta, size=n)
        draws = (rng.exponential(size=n) / (phi * theta)) ** (1.0 / rho)
        we = WeibullExpSpec(phi, rho, delta)
        assert kstest(draws, lambda y: we_cdf(we, y)).statistic < ks_critical(n)


# ---------------------------------------------------------------------------
# rho = 1 specialization guard
# ---------------------------------------------------------------------------


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
        assert np.max(np.abs(we_cdf(spec, ys) - ee_cdf(2.0, 0.7, ys))) < 1e-12
        us = np.linspace(1e-4, 1 - 1e-4, 101)
        assert np.max(np.abs(we_quantile(spec, us) - ee_quantile(2.0, 0.7, us))) < 1e-12

    def test_no_finite_moments(self):
        spec = WeibullExpSpec(2.0, 1.0, 0.7)
        for k in range(1, 6):
            m = we_moment(spec, k)
            assert m.integral_finite == ee_moment_finite(k)
            assert not m.formula_defined  # Gamma(1 - k) pole for every k >= 1
