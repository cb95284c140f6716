"""Equation parameters and the Green function of the damped Klein-Gordon
operator: the Fourier-side evaluators and the kernel-increment quadrature
behind the ``green_identities`` and ``kernel_lemma`` experiments.

For d_tt + a d_t + (xi^2 + m^2) acting on the spatial Fourier transform,
the fundamental solution with G(0)=0, G'(0)=1 is

    FG(t, xi) = exp(-a t / 2) * sin(t sqrt(z)) / sqrt(z),
    z = xi^2 + m^2 - a^2/4,

read by analytic continuation: sin/sqrt for z > 0 (oscillatory), the
limit t for z = 0 (critical), sinh/sqrt(-z) for z < 0 (hyperbolic).
Negative damping a < 0 (excitation) is allowed everywhere.

In the critically damped case m^2 = a^2/4 the space-time kernel is
explicit, Gamma(t, x) = (1/2) exp(-a t / 2) on |x| < t, and the L^p mass
of its four-point second difference over one lattice cell concentrates
on an eps x eps diamond.  ``kernel_second_difference_lp`` integrates
that second difference region by region (the strips where one shifted
cone is missing, the common interior, and the diamond) by adaptive
quadrature over the explicit polygonal bounds in characteristic offsets.
That quadrature is scipy's ``dblquad``; scipy is imported in
``_region_integrals`` alone, so importing this module loads only the
standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, QuadratureError, UsageError

_SQRT2 = math.sqrt(2.0)
_SERIES_WINDOW = 1e-8

DIFFUSION_IDS = ("constant_one", "affine", "shifted_sine", "clipped_linear")


@dataclass(frozen=True)
class PhysParams:
    """Equation parameters: damping a, mass m, noise scale theta.

    ``diffusion_id`` names the multiplicative coefficient family used by
    the harness to build the coefficient; the solver takes the
    coefficient object itself.
    """

    a: float = 1.0
    m: float = 0.5
    theta: float = 1.0
    diffusion_id: str = "shifted_sine"

    def __post_init__(self):
        for name in ("a", "m", "theta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
        if self.m < 0:
            raise UsageError(f"mass must be nonnegative, got {self.m}")
        if not self.theta > 0:
            raise UsageError(f"theta must be positive, got {self.theta}")
        if self.diffusion_id not in DIFFUSION_IDS:
            raise UsageError(
                f"unknown diffusion id {self.diffusion_id!r}, "
                f"expected one of {DIFFUSION_IDS}"
            )

    @property
    def drift_coef(self) -> float:
        """Coefficient of the linear drift b(x) = (a^2/4 - m^2) x."""
        return 0.25 * self.a * self.a - self.m * self.m


def fourier_green_branch(a: float, m: float, t: float, xi: float) -> float:
    """Piecewise evaluator choosing the branch by the sign of z."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    z = xi * xi + m * m - 0.25 * a * a
    damp = math.exp(-0.5 * a * t)
    if z > 0:
        r = math.sqrt(z)
        return damp * math.sin(t * r) / r
    if z < 0:
        r = math.sqrt(-z)
        return damp * math.sinh(t * r) / r
    return damp * t


def _sinc_series(w: float, t: float) -> float:
    # t * (sin(t sqrt(z)) / (t sqrt(z))) expanded in w = z t^2; five terms
    # leave a truncation below 1e-30 inside the |z| < 1e-8 window.
    return t * (
        1.0
        - w / 6.0
        + w * w / 120.0
        - w * w * w / 5040.0
        + w * w * w * w / 362880.0
    )


def fourier_green_unified(a: float, m: float, t: float, xi: float) -> float:
    """Single-formula evaluator via analytic continuation in z."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    z = xi * xi + m * m - 0.25 * a * a
    damp = math.exp(-0.5 * a * t)
    if abs(z) < _SERIES_WINDOW:
        return damp * _sinc_series(z * t * t, t)
    if z > 0:
        r = math.sqrt(z)
        return damp * math.sin(t * r) / r
    r = math.sqrt(-z)
    return damp * math.sinh(t * r) / r


def _region_integrals(a: float, t: float, eps: float, p: float):
    """L^p integrals of the kernel second difference, per region.

    Offsets h = tau - sigma, g = lam - mu put the four cone apexes at
    h-shifts {0, eps} x g-shifts {0, eps}; the domain of integration is
    {h, g >= 0, h + g <= S} with S = sqrt(2) t.  On each region the
    integrand is a smooth exponential:

      diamond D4   (h, g < eps):          (1/2) e^{-al(h+g)}
      strips  D1/D2 (one offset >= eps):   (1/2)|1 - e^{al eps}| e^{-al(h+g)}
      interior D3  (both >= eps):          (1/2)(1 - e^{al eps})^2 e^{-al(h+g)}

    with al = a / (2 sqrt(2)).
    """
    from scipy import integrate

    al = a / (2.0 * _SQRT2)
    s_tot = _SQRT2 * t
    kappa = math.expm1(al * eps)
    half_p = 0.5**p

    def core(h, g):
        return math.exp(-p * al * (h + g))

    def quad_region(coeff_p, gfun_lo, gfun_hi, h_lo, h_hi):
        if coeff_p == 0.0:
            return 0.0
        val, err = integrate.dblquad(
            lambda g, h: coeff_p * core(h, g),
            h_lo,
            h_hi,
            gfun_lo,
            gfun_hi,
            epsabs=1e-14,
            epsrel=1e-11,
        )
        if not math.isfinite(val) or err > max(1e-8 * abs(val), 1e-12):
            raise QuadratureError(
                f"region quadrature did not converge (value {val}, err {err})"
            )
        return val

    d4 = quad_region(half_p, lambda h: 0.0, lambda h: eps, 0.0, eps)
    strip_coeff = half_p * abs(kappa) ** p
    d1 = quad_region(strip_coeff, lambda h: 0.0, lambda h: eps, eps, s_tot - eps)
    # D1 also carries the sliver h > S - eps where the initial line cuts the strip
    d1 += quad_region(
        strip_coeff, lambda h: 0.0, lambda h: s_tot - h, s_tot - eps, s_tot
    )
    d2 = d1  # symmetric in (h, g)
    d3 = quad_region(
        half_p * abs(kappa) ** (2 * p),
        lambda h: eps,
        lambda h: max(eps, s_tot - h),
        eps,
        s_tot - eps,
    )
    return d1, d2, d3, d4


def kernel_second_difference_lp(
    a: float, t: float, x: float, eps: float, p: float
) -> float:
    """Integral of |Gamma - Gamma_1 - Gamma_2 + Gamma_3|^p over the cone.

    Gamma_k are the critical kernels shifted to the three earlier
    stencil apexes.  The result is eps^2 / 2^p plus strip and interior
    corrections of order eps^(1+p) and eps^(2p).
    """
    if p < 1:
        raise UsageError(f"p must be at least 1, got {p}")
    if not (eps > 0 and _SQRT2 * eps < t):
        raise DomainError(
            f"need 0 < sqrt(2)*eps < t, got eps={eps}, t={t}"
        )
    if abs(x) >= t:
        raise DomainError(f"apex must lie inside the light cone, got |x|={abs(x)} >= t={t}")
    d1, d2, d3, d4 = _region_integrals(a, t, eps, p)
    return d1 + d2 + d3 + d4
