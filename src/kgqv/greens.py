"""Equation parameters and the Green function of the damped Klein-Gordon
operator: the Fourier-side evaluators and the kernel-increment integrals
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
cone is missing, the common interior, and the diamond).  On each region
the integrand is a product of exponentials in the characteristic
offsets, so every integral is an exact antiderivative, evaluated with
the math module's exp and expm1; this module imports the standard
library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UsageError

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


def kernel_second_difference_lp(a: float, t: float, eps: float, p: float) -> float:
    """Integral of |Gamma - Gamma_1 - Gamma_2 + Gamma_3|^p over the cone.

    Gamma_k are the critical kernels shifted to the three earlier
    stencil apexes.  The result is eps^2 / 2^p plus strip and interior
    corrections of order eps^(1+p) and eps^(2p).  It does not depend on
    the apex's spatial position, so that position is not an argument.

    Offsets h = tau - sigma, g = lam - mu put the four cone apexes at
    h-shifts {0, eps} x g-shifts {0, eps}; the domain of integration is
    {h, g >= 0, h + g <= S} with S = sqrt(2) t.  On each region the
    integrand is a smooth exponential:

      diamond D4   (h, g < eps):          (1/2) e^{-al(h+g)}
      strips  D1/D2 (one offset >= eps):   (1/2)|1 - e^{al eps}| e^{-al(h+g)}
      interior D3  (both >= eps):          (1/2)(1 - e^{al eps})^2 e^{-al(h+g)}

    with al = a / (2 sqrt(2)).  A strip also carries the sliver where
    the initial line h + g = S cuts it; D2 equals D1 by the symmetry in
    (h, g).  At a = 0 the strips and the interior vanish and the
    diamond is exactly eps^2 / 2^p.
    """
    if p < 1:
        raise UsageError(f"p must be at least 1, got {p}")
    if not (eps > 0 and _SQRT2 * eps < t):
        raise DomainError(
            f"need 0 < sqrt(2)*eps < t, got eps={eps}, t={t}"
        )
    if a == 0.0:
        return 0.5**p * eps * eps
    al = a / (2.0 * _SQRT2)
    s_tot = _SQRT2 * t
    q = p * al
    kappa = abs(math.expm1(al * eps))
    d4 = 0.5**p * (-math.expm1(-q * eps) / q) ** 2
    d1 = (0.5 * kappa) ** p / q * (
        math.exp(-q * eps) * -math.expm1(-q * eps) / q
        - eps * math.exp(-q * s_tot)
    )
    d3 = (0.5 * kappa * kappa) ** p / q * (
        math.exp(-q * eps) * (math.exp(-q * eps) - math.exp(-q * (s_tot - eps))) / q
        - (s_tot - 2.0 * eps) * math.exp(-q * s_tot)
    )
    return d1 + d1 + d3 + d4
