import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqv.coords import (
    SQRT2,
    PhysPoint,
    RotatedGrid,
    RotPoint,
    original_coord_diff,
    second_diff,
    to_physical,
    to_rotated,
)
from kgqv.errors import DomainError, GridAlignmentError, UsageError

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def stencil_k1(f, t, x, e):
    # direct four-point evaluation, the oracle for original_coord_diff(k=1)
    return f(t, x + 2 * e) - f(t - e, x + e) - f(t + e, x + e) + f(t, x)


def stencil_k2(f, t, x, e):
    return f(t + 2 * e, x) - f(t + e, x - e) - f(t + e, x + e) + f(t, x)


class TestRotation:
    def test_known_points(self):
        q = to_rotated(PhysPoint(1.0, 0.0))
        assert q.tau == pytest.approx(1 / SQRT2, abs=1e-15)
        assert q.lam == pytest.approx(1 / SQRT2, abs=1e-15)
        q = to_rotated(PhysPoint(1.0, 1.0))
        assert q.tau == pytest.approx(0.0, abs=1e-15)
        assert q.lam == pytest.approx(SQRT2, abs=1e-15)

    @given(t=finite, x=finite)
    @settings(max_examples=200)
    def test_roundtrip(self, t, x):
        p = to_physical(to_rotated(PhysPoint(t, x)))
        scale = max(1.0, abs(t), abs(x))
        assert abs(p.t - t) <= 1e-12 * scale
        assert abs(p.x - x) <= 1e-12 * scale

    @given(t=finite, x=finite)
    @settings(max_examples=200)
    def test_isometry(self, t, x):
        q = to_rotated(PhysPoint(t, x))
        a = q.tau**2 + q.lam**2
        b = t**2 + x**2
        assert abs(a - b) <= 1e-9 * max(1.0, b)

    def test_initial_line_maps_to_antidiagonal(self):
        for x in (-3.0, -0.5, 0.0, 1.25, 7.0):
            q = to_rotated(PhysPoint(0.0, x))
            assert abs(q.tau + q.lam) < 1e-12 * max(1.0, abs(x))


class TestGrid:
    def test_basic_geometry(self):
        g = RotatedGrid(8)
        assert g.eps == pytest.approx(0.125)
        assert g.i_max == g.j_max == 8
        assert g.i_min == g.j_min == -8
        assert g.shape == (17, 17)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(UsageError):
            RotatedGrid(12)
        with pytest.raises(UsageError):
            RotatedGrid(0)

    def test_window_excludes_below_initial_line(self):
        g = RotatedGrid(4)
        assert g.contains_index(-2, 2)
        assert not g.contains_index(-2, 1)
        with pytest.raises(DomainError):
            g.require_index(-3, 2)

    def test_index_of_alignment(self):
        g = RotatedGrid(8)
        assert g.index_of(RotPoint(0.25, 0.5)) == (2, 4)
        with pytest.raises(GridAlignmentError):
            g.index_of(RotPoint(0.3, 0.5))


class TestDifferences:
    def test_product_function_second_diff(self):
        # f = tau*lam has exact second difference sign*eps*eps
        f = lambda tau, lam: tau * lam
        q = RotPoint(0.5, 0.25)
        eps = 0.125
        assert second_diff(f, q, eps, 1) == pytest.approx(eps * eps, rel=1e-12)
        assert second_diff(f, q, eps, -1) == pytest.approx(-eps * eps, rel=1e-12)

    @given(
        a=finite, b=finite, c=finite,
        tau=st.floats(-10, 10), lam=st.floats(-10, 10),
        eps=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=200)
    def test_affine_functions_vanish(self, a, b, c, tau, lam, eps):
        f = lambda u, v: a + b * u + c * v
        val = second_diff(f, RotPoint(tau, lam), eps)
        scale = max(1.0, abs(a), abs(b), abs(c))
        assert abs(val) <= 1e-9 * scale

    def test_second_diff_matches_composition_bitwise(self):
        f = lambda tau, lam: math.sin(3 * tau) * math.exp(0.3 * lam)
        q = RotPoint(0.375, 0.625)
        eps = 0.125
        # the lam difference, then its tau difference
        d_lam = lambda tau: f(tau, q.lam + eps) - f(tau, q.lam)
        for sign in (1, -1):
            assert second_diff(f, q, eps, sign) == d_lam(q.tau + sign * eps) - d_lam(q.tau)

    def test_second_diff_rejects_other_signs(self):
        f = lambda tau, lam: tau + 10 * lam
        for sign in (0, 2, -2):
            with pytest.raises(UsageError):
                second_diff(f, RotPoint(0.0, 0.0), 0.5, sign)


class TestOriginalCoordStencils:
    def test_dalembert_null_function_k1(self):
        # f = t^2 - x^2 maps to 2*tau*lam; the k=1 stencil equals
        # 2*(-sqrt(2)e)(sqrt(2)e) = -4e^2 (direct evaluation agrees)
        f = lambda t, x: t * t - x * x
        e = 0.0625
        direct = stencil_k1(f, 1.0, 0.25, e)
        assert direct == pytest.approx(-4 * e * e, rel=1e-10)
        mapped = original_coord_diff(f, PhysPoint(1.0, 0.25), e, 1)
        assert mapped == pytest.approx(direct, abs=1e-12)

    def test_dalembert_null_function_k2(self):
        f = lambda t, x: t * t - x * x
        e = 0.0625
        direct = stencil_k2(f, 1.0, 0.25, e)
        assert direct == pytest.approx(4 * e * e, rel=1e-10)
        mapped = original_coord_diff(f, PhysPoint(1.0, 0.25), e, 2)
        assert mapped == pytest.approx(direct, abs=1e-12)

    @given(
        t=st.floats(0.5, 3.0), x=st.floats(-1.0, 1.0), e=st.floats(0.01, 0.25),
    )
    @settings(max_examples=100)
    def test_mapping_equals_direct_stencil(self, t, x, e):
        f = lambda tt, xx: math.sin(tt + 2 * xx) + 0.1 * tt * xx
        for k, direct in ((1, stencil_k1), (2, stencil_k2)):
            got = original_coord_diff(f, PhysPoint(t, x), e, k)
            want = direct(f, t, x, e)
            assert abs(got - want) <= 1e-11

    def test_rejects_bad_k(self):
        with pytest.raises(UsageError):
            original_coord_diff(lambda t, x: 0.0, PhysPoint(1, 0), 0.1, 3)
