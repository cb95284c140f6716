"""Remainders, MC norms, quadratic variation, and the theta estimator."""

import math

import numpy as np
import pytest

from kgqv import analysis, noise
from kgqv.analysis import (
    estimate_theta,
    fit_loglog,
    limit_functional,
    linearization_remainder,
    lp_norm_mc,
    quad_var,
)
from kgqv.coords import RotatedGrid, RotPoint
from kgqv.errors import DomainError, NumericError, UsageError
from kgqv.greens import PhysParams
from kgqv.solver import (
    FieldSample,
    affine,
    constant_one,
    march,
    march_linear,
    shifted_sine,
)


def make_field(grid, fill, params=None):
    vals = np.zeros(grid.shape)
    for i in range(grid.i_min, grid.i_max + 1):
        for j in range(grid.j_min, grid.j_max + 1):
            if grid.contains_index(i, j):
                vals[i - grid.i_min, j - grid.j_min] = fill(i, j)
    return FieldSample(grid=grid, values=vals, params=params or PhysParams())


class TestRemainder:
    def test_constant_coefficient_remainder_vanishes(self):
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="constant_one")
        nf = noise.generate(RotatedGrid(16), 2)
        F = constant_one()
        v = march(params, F, nf)
        V = march_linear(params, nf)
        g = nf.grid
        for sign in (1, -1):
            for q in (RotPoint(0.25, 0.5), RotPoint(0.5, 0.5)):
                i, j = g.index_of(q)
                for k in (1, 4):
                    corners = ((i, j), (i + sign * k, j), (i, j + k), (i + sign * k, j + k))
                    r = linearization_remainder(
                        [v.value(*c) for c in corners], [V.value(*c) for c in corners],
                        params.theta, F,
                    )
                    assert r == 0.0

    def test_matches_hand_stencil(self):
        g = RotatedGrid(4)
        v = make_field(g, lambda i, j: 0.1 * i * i + 0.2 * j + 0.05 * i * j)
        V = make_field(g, lambda i, j: 0.3 * i - 0.7 * j + 0.01 * i * j)
        F = affine(0.5, 2.0)
        i, j = 2, 1
        for sign in (1, -1):
            vf, Vf = v.value, V.value
            ddv = (vf(i + sign, j + 1) - vf(i + sign, j)) - (vf(i, j + 1) - vf(i, j))
            ddV = (Vf(i + sign, j + 1) - Vf(i + sign, j)) - (Vf(i, j + 1) - Vf(i, j))
            want = ddv - F(vf(i, j)) * ddV
            corners = ((i, j), (i + sign, j), (i, j + 1), (i + sign, j + 1))
            got = linearization_remainder([vf(*c) for c in corners], [Vf(*c) for c in corners],
                                          1.0, F)
            assert got == pytest.approx(want, rel=1e-15)


class TestLpNormMc:
    def test_gaussian_moments(self):
        rng = np.random.default_rng(7)
        est2, se2 = lp_norm_mc(rng.standard_normal(100000), 2.0)
        assert abs(est2 - 1.0) < 4 * se2
        est4, se4 = lp_norm_mc(rng.standard_normal(100000), 4.0)
        assert abs(est4 - 3.0**0.25) < 4 * se4
        assert se4 > 0.0

    def test_constant_sampler(self):
        est, se = lp_norm_mc(np.full(500, -1.7), 3.0)
        assert est == pytest.approx(1.7, rel=1e-14)
        assert se < 1e-15

    def test_scaling(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal(5000)
        e1, _ = lp_norm_mc(base, 3.0)
        e2, _ = lp_norm_mc(2.5 * base, 3.0)
        assert e2 == pytest.approx(2.5 * e1, rel=1e-12)

    def test_validation(self):
        with pytest.raises(UsageError):
            lp_norm_mc(np.zeros(50), 2.0)
        with pytest.raises(UsageError):
            lp_norm_mc(np.zeros(500), 0.5)
        with pytest.raises(NumericError):
            lp_norm_mc(np.full(500, np.inf), 2.0)


class TestQuadVar:
    def test_bilinear_field(self):
        n = 8
        g = RotatedGrid(n)
        c = 3.0
        f = make_field(g, lambda i, j: c * i * j / n**2)
        assert quad_var(f) == pytest.approx(c * c / n**2, rel=1e-12)

    def test_shift_invariance(self):
        n = 8
        g = RotatedGrid(n)
        f = make_field(g, lambda i, j: 0.2 * i * j)
        gshift = make_field(g, lambda i, j: 0.2 * i * j + 4.0 + 0.3 * i - 0.1 * j)
        assert quad_var(gshift) == pytest.approx(quad_var(f), rel=1e-12)

    def test_requires_unit_square_coverage(self):
        g = RotatedGrid(8, i_max=6, j_max=8)
        f = make_field(g, lambda i, j: 0.0)
        with pytest.raises(DomainError):
            quad_var(f)

    def test_scale_quadratic(self):
        g = RotatedGrid(8)
        nf = noise.generate(g, 3)
        v = march(PhysParams(), shifted_sine(), nf)
        scaled = FieldSample(grid=g, values=3.0 * v.values, params=v.params)
        assert quad_var(scaled) == pytest.approx(9.0 * quad_var(v), rel=1e-12)


class TestLimitFunctional:
    def test_constant_one(self):
        g = RotatedGrid(8)
        f = make_field(g, lambda i, j: 123.0)
        assert limit_functional(f, constant_one()) == 0.25

    def test_constant_coefficient_value(self):
        g = RotatedGrid(8)
        f = make_field(g, lambda i, j: 0.0)
        c = 1.7
        assert limit_functional(f, affine(c, 0.0)) == pytest.approx(
            0.25 * c * c, rel=1e-14
        )


class TestEstimateTheta:
    def test_scale_equivariance(self):
        nf = noise.generate(RotatedGrid(16), 6)
        v = march(PhysParams(), constant_one(), nf)
        F = constant_one()
        t1 = estimate_theta(v, F)
        scaled = FieldSample(grid=v.grid, values=2.0 * v.values, params=v.params)
        assert estimate_theta(scaled, F) == pytest.approx(2.0 * t1, rel=1e-12)

    def test_zero_field_constant_coefficient(self):
        g = RotatedGrid(8)
        f = make_field(g, lambda i, j: 0.0)
        assert estimate_theta(f, constant_one()) == 0.0

    def test_degenerate_coefficient_raises(self):
        g = RotatedGrid(8)
        f = make_field(g, lambda i, j: 0.0)
        with pytest.raises(NumericError):
            estimate_theta(f, affine(0.0, 0.0))

    def test_recovers_theta_on_linear_field(self):
        params = PhysParams(a=1.0, m=0.5, theta=2.0, diffusion_id="constant_one")
        nf = noise.generate(RotatedGrid(256), 17)
        v = march(params, constant_one(), nf)
        got = estimate_theta(v, constant_one())
        assert abs(got - 2.0) < 0.05


def increment_l2(params, eps, replications, master_seed=0):
    seeds = np.uint64(master_seed) + np.arange(replications, dtype=np.uint64)
    samples = analysis.increment_samples(params, eps, RotPoint(0.5, 0.5), seeds)
    return analysis.increment_l2_from_samples(eps, samples)


class TestLinearIncrement:
    def test_raw_near_half_eps(self):
        params = PhysParams(a=1.0, m=0.5)
        inc = increment_l2(params, 1.0 / 32, 4000, 9)
        assert abs(inc.raw - 0.5 / 32) < 4 * inc.raw_se + 0.01 / 32
        assert abs(inc.conditional - inc.raw) < 5 * (inc.raw_se + inc.conditional_se)

    def test_conditional_deviation_is_second_order(self):
        params = PhysParams(a=1.0, m=0.5)
        devs = []
        for n in (8, 16, 32):
            inc = increment_l2(params, 1.0 / n, 4000, 9)
            devs.append(inc.conditional_deviation)
        fit = fit_loglog([1.0 / 8, 1.0 / 16, 1.0 / 32], devs)
        assert fit.slope > 1.4

    def test_validation(self):
        params = PhysParams()
        with pytest.raises(UsageError):
            increment_l2(params, 1.0 / 16, 50)
        with pytest.raises(UsageError):
            increment_l2(params, 0.3, 500)


class TestFitLoglog:
    def test_exact_power_law(self):
        x = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
        y = [5.0 * xi**1.5 for xi in x]
        fit = fit_loglog(x, y)
        assert fit.slope == pytest.approx(1.5, abs=1e-12)
        assert fit.stderr < 1e-10

    def test_stderr_reflects_scatter(self):
        x = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
        y = [2.0 * xi**2 * (1.0 + 0.2 * (-1) ** k) for k, xi in enumerate(x)]
        fit = fit_loglog(x, y)
        assert fit.stderr > 0.01

    def test_validation(self):
        with pytest.raises(UsageError):
            fit_loglog([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(UsageError):
            fit_loglog([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(NumericError):
            fit_loglog([1.0, 2.0, 4.0], [1.0, -2.0, 4.0])


class TestStatisticalLimits:
    def test_linear_quad_var_near_quarter(self):
        # single path at N=256: Q_N(V) concentrates at 1/4
        params = PhysParams(a=0.0, m=1.0, theta=1.0, diffusion_id="constant_one")
        nf = noise.generate(RotatedGrid(256), 23)
        V = march(params, constant_one(), nf)
        q = quad_var(V)
        assert abs(q - 0.25) < 5.0 / (math.sqrt(8.0) * 256)

    def test_increments_nearly_uncorrelated(self):
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="constant_one")
        nf = noise.generate(RotatedGrid(64), 29)
        V = march(params, constant_one(), nf)
        g = V.grid
        b = V.values[-g.i_min : 65 - g.i_min, -g.j_min : 65 - g.j_min]
        dd = b[1:, 1:] - b[1:, :-1] - b[:-1, 1:] + b[:-1, :-1]
        horiz = np.corrcoef(dd[:, 1:].ravel(), dd[:, :-1].ravel())[0, 1]
        vert = np.corrcoef(dd[1:, :].ravel(), dd[:-1, :].ravel())[0, 1]
        assert abs(horiz) < 0.06
        assert abs(vert) < 0.06
