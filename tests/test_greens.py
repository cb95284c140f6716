"""Fourier-side Green function and critical-kernel integrals."""

import math

import pytest
from scipy import integrate

from kgqv import experiments
from kgqv.errors import DomainError, UsageError
from kgqv.experiments import ExperimentConfig
from kgqv.greens import (
    PhysParams,
    fourier_green_branch,
    fourier_green_unified,
    kernel_second_difference_lp,
)

SQRT2 = math.sqrt(2.0)


def lp_dblquad(a, t, eps, p):
    # Independent reference: scipy's adaptive dblquad over the explicit
    # polygonal region bounds in the characteristic offsets (h, g), the
    # eps x eps diamond, two strips and the interior, each with its
    # smooth exponential integrand.
    al = a / (2.0 * SQRT2)
    s_tot = SQRT2 * t
    kappa = abs(math.expm1(al * eps))

    def region(coeff, h_lo, h_hi, g_lo, g_hi):
        if coeff == 0.0:
            return 0.0
        val, err = integrate.dblquad(
            lambda g, h: coeff * math.exp(-p * al * (h + g)),
            h_lo, h_hi, g_lo, g_hi, epsabs=1e-14, epsrel=1e-11,
        )
        assert err <= max(1e-8 * abs(val), 1e-12)
        return val

    d4 = region(0.5**p, 0.0, eps, lambda h: 0.0, lambda h: eps)
    strip_coeff = (0.5 * kappa) ** p
    strip = region(strip_coeff, eps, s_tot - eps, lambda h: 0.0, lambda h: eps)
    # the sliver h > S - eps where the initial line cuts the strip
    strip += region(strip_coeff, s_tot - eps, s_tot, lambda h: 0.0, lambda h: s_tot - h)
    interior = region(
        (0.5 * kappa * kappa) ** p,
        eps,
        s_tot - eps,
        lambda h: eps,
        lambda h: max(eps, s_tot - h),
    )
    return d4 + 2.0 * strip + interior


class TestParams:
    def test_defaults_valid(self):
        p = PhysParams()
        assert p.a == 1.0 and p.m == 0.5 and p.theta == 1.0

    def test_drift_coef(self):
        assert PhysParams(a=2.0, m=1.0).drift_coef == 0.0
        assert PhysParams(a=1.0, m=0.5).drift_coef == 0.0
        assert PhysParams(a=0.0, m=1.0).drift_coef == -1.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(m=-0.5), dict(theta=0.0), dict(theta=-1.0), dict(diffusion_id="nope")],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(UsageError):
            PhysParams(**kwargs)


class TestFourierGreen:
    def test_zero_time_vanishes(self):
        for xi in (0.0, 0.3, 2.0, 50.0):
            assert fourier_green_branch(1.0, 0.5, 0.0, xi) == 0.0
            assert fourier_green_unified(1.0, 0.5, 0.0, xi) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            fourier_green_branch(1.0, 0.5, -0.1, 1.0)
        with pytest.raises(DomainError):
            fourier_green_unified(1.0, 0.5, -0.1, 1.0)

    def test_unit_time_derivative(self):
        h = 1e-7
        for a, m, xi in [(0.0, 0.0, 1.0), (1.0, 0.5, 0.7), (3.0, 0.5, 0.2)]:
            d = fourier_green_unified(a, m, h, xi) / h
            assert abs(d - 1.0) < 1e-6

    @pytest.mark.parametrize("a,m", [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0), (3.0, 0.5), (-1.0, 0.5)])
    @pytest.mark.parametrize("t", [0.6, 1.3])
    def test_solves_damped_oscillator(self, a, m, t):
        # G'' + a G' + (xi^2 + m^2) G = 0 via central differences.
        h = 1e-4
        for xi in (0.0, 0.3, 1.7):
            g = lambda s: fourier_green_unified(a, m, s, xi)
            d2 = (g(t + h) - 2.0 * g(t) + g(t - h)) / (h * h)
            d1 = (g(t + h) - g(t - h)) / (2.0 * h)
            resid = d2 + a * d1 + (xi * xi + m * m) * g(t)
            z = xi * xi + m * m - 0.25 * a * a
            scale = (1.0 + abs(z)) ** 2 * max(1.0, abs(g(t)))
            assert abs(resid) < 1e-4 * scale

    def test_branch_matches_unified_generic(self):
        for a in (0.0, 1.0, 2.0, 3.0, -1.0):
            for m in (0.0, 0.5, 1.0):
                for t in (0.25, 1.0, 2.0):
                    for xi in (0.0, 0.1, 1.0, 4.0, 27.0):
                        b = fourier_green_branch(a, m, t, xi)
                        u = fourier_green_unified(a, m, t, xi)
                        assert b == pytest.approx(u, rel=1e-13, abs=1e-300)

    def test_series_window_matches_raw_branch(self):
        # m = a/2 puts z = xi^2; tiny xi lands inside the series window
        # where the two evaluators take genuinely different code paths.
        a, m, t = 2.0, 1.0, 1.3
        for xi in (0.0, 1e-6, 3e-5, 9.9e-5):
            b = fourier_green_branch(a, m, t, xi)
            u = fourier_green_unified(a, m, t, xi)
            assert u == pytest.approx(b, rel=1e-12)

    def test_critical_kernel_fourier_pair(self):
        # At m = a/2 the kernel is explicit, (1/2) exp(-a t / 2) on
        # |x| < t; its cosine transform must reproduce the Fourier-side
        # evaluator.
        a, t, xi = 2.0, 1.1, 1.7
        val, err = integrate.quad(
            lambda x: 0.5 * math.exp(-0.5 * a * t) * math.cos(xi * x), -t, t
        )
        assert err < 1e-9
        assert val == pytest.approx(fourier_green_unified(a, 0.5 * a, t, xi), abs=1e-9)


class TestKernelSecondDifference:
    @pytest.mark.parametrize("a", [0.0, 1.0, 2.0, 3.0, -1.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("t,eps", [(1.0, 1.0 / 16), (0.7, 1.0 / 64), (1.0, 2.0**-10)])
    def test_matches_adaptive_quadrature(self, a, p, t, eps):
        got = kernel_second_difference_lp(a, t, eps, p)
        want = lp_dblquad(a, t, eps, p)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_undamped_value_is_exact(self, p):
        eps = 1.0 / 32
        got = kernel_second_difference_lp(0.0, 1.0, eps, p)
        assert got == eps * eps / 2.0**p

    @pytest.mark.parametrize("a,constant", [(1.0, 0.9386), (2.0, 1.2642)])
    def test_p1_note_constants_are_the_small_eps_limits(self, a, constant):
        # at p = 1 the strips carry as much eps^2 mass as the diamond:
        # value / eps^2 tends to 1/2 + (3/2)(1 - e^-x) - (x/2) e^-x, x = a t / 2
        t = 1.0
        x = 0.5 * a * t
        limit = 0.5 + 1.5 * -math.expm1(-x) - 0.5 * x * math.exp(-x)
        note = experiments.run(
            ExperimentConfig(experiment="kernel_lemma", n=64)
        ).summary["p1_note"]
        assert f"{constant:.4f} at a={a:g}" in note
        assert round(limit, 4) == constant
        eps = 2.0**-12
        ratio = kernel_second_difference_lp(a, t, eps, 1.0) / (eps * eps)
        assert abs(ratio - limit) < 1e-3

    def test_leading_order_mass(self):
        # The diamond carries eps^2/2^p; corrections are higher order.
        eps = 2.0**-8
        got = kernel_second_difference_lp(1.0, 1.0, eps, 2.0)
        assert abs(got / (eps * eps) - 0.25) < 0.05 * 0.25

    def test_preconditions(self):
        with pytest.raises(DomainError):
            kernel_second_difference_lp(1.0, 0.1, 0.25, 2.0)
        with pytest.raises(UsageError):
            kernel_second_difference_lp(1.0, 1.0, 1.0 / 16, 0.5)
