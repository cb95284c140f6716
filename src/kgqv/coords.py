"""Characteristic (rotated) coordinates and lattice difference operators.

Physical coordinates are (t, x); rotated coordinates are

    tau = (t - x) / sqrt(2),   lam = (t + x) / sqrt(2),

so the light cone of the wave operator maps onto the coordinate axes and
the d'Alembertian becomes 2 * d^2/(dtau dlam).  A field in rotated
coordinates is any callable f(tau, lam).

The lattice difference operator second_diff is the increment of f over
one lattice cell: a tau difference (by +eps or -eps) of a lam
difference (by +eps).  double_increment is its one rounding, shared by
every double increment of the package, on values and on arrays alike.
``original_coord_diff`` evaluates the two physical-coordinate
four-point stencils by mapping them onto rotated second differences;
the mapping is exact, no physical-coordinate lattice exists anywhere in
the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, GridAlignmentError, UsageError

SQRT2 = math.sqrt(2.0)
_ALIGN_TOL = 1e-6  # grid units a point may sit off the lattice


@dataclass(frozen=True)
class PhysPoint:
    t: float
    x: float


@dataclass(frozen=True)
class RotPoint:
    tau: float
    lam: float


def to_rotated(p: PhysPoint) -> RotPoint:
    """Rotate a physical point onto characteristic coordinates."""
    return RotPoint((p.t - p.x) / SQRT2, (p.t + p.x) / SQRT2)


def to_physical(q: RotPoint) -> PhysPoint:
    """Inverse rotation; to_physical(to_rotated(p)) == p up to rounding."""
    return PhysPoint((q.tau + q.lam) / SQRT2, (q.lam - q.tau) / SQRT2)


@dataclass(frozen=True)
class RotatedGrid:
    """Uniform lattice in (tau, lam) with spacing eps = 1/n.

    Lattice points are (i*eps, j*eps).  The simulation window is
    {i <= i_max, j <= j_max, i + j >= 0}; the lower index bounds
    i_min = -j_max and j_min = -i_max are exactly the domain of
    dependence of the window corner, so every stored point can
    influence some point with nonnegative indices.  i + j = 0 is the
    initial line t = 0.
    """

    n: int
    i_max: int
    j_max: int

    def __init__(self, n: int, i_max: int | None = None, j_max: int | None = None):
        if not (n >= 1 and n & (n - 1) == 0):
            raise UsageError(f"grid resolution must be a power of two, got {n}")
        if i_max is None:
            i_max = n
        if j_max is None:
            j_max = n
        if i_max < 1 or j_max < 1:
            raise UsageError("index bounds must be at least 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "i_max", int(i_max))
        object.__setattr__(self, "j_max", int(j_max))

    @property
    def eps(self) -> float:
        return 1.0 / self.n

    @property
    def i_min(self) -> int:
        return -self.j_max

    @property
    def j_min(self) -> int:
        return -self.i_max

    @property
    def shape(self) -> tuple[int, int]:
        side = self.i_max + self.j_max + 1
        return (side, side)

    def contains_index(self, i: int, j: int) -> bool:
        return (
            self.i_min <= i <= self.i_max
            and self.j_min <= j <= self.j_max
            and i + j >= 0
        )

    def require_index(self, i: int, j: int) -> None:
        if not self.contains_index(i, j):
            raise DomainError(
                f"lattice index ({i}, {j}) outside window "
                f"[{self.i_min}, {self.i_max}] x [{self.j_min}, {self.j_max}], i+j >= 0"
            )

    def index_of(self, q: RotPoint) -> tuple[int, int]:
        """Lattice index of q; raises if q is off-lattice beyond 1e-6 grid units."""
        fi = q.tau * self.n
        fj = q.lam * self.n
        i, j = round(fi), round(fj)
        if abs(fi - i) > _ALIGN_TOL or abs(fj - j) > _ALIGN_TOL:
            raise GridAlignmentError(
                f"point ({q.tau}, {q.lam}) not on the eps=1/{self.n} lattice"
            )
        self.require_index(i, j)
        return i, j


def double_increment(c00, c10, c01, c11):
    """(c11 - c10) - (c01 - c00), c_ab being the corner a tau and b lam steps on.

    The lam differences first, then their tau difference, as that composition rounds.
    """
    return (c11 - c10) - (c01 - c00)


def second_diff(f, q: RotPoint, eps: float, sign: int = 1) -> float:
    """The tau difference (step sign*eps) of the lam difference (step +eps)."""
    if sign not in (1, -1):
        raise UsageError(f"sign must be +1 or -1, got {sign}")
    tau2 = q.tau + sign * eps
    return double_increment(
        f(q.tau, q.lam), f(tau2, q.lam), f(q.tau, q.lam + eps), f(tau2, q.lam + eps)
    )


def original_coord_diff(f_phys, p: PhysPoint, eps: float, k: int) -> float:
    """Physical-coordinate four-point stencils via the rotated lattice.

    k=1:  f(t, x+2e) - f(t-e, x+e) - f(t+e, x+e) + f(t, x)
    k=2:  f(t+2e, x) - f(t+e, x-e) - f(t+e, x+e) + f(t, x)

    Both stencils are exactly rotated second differences with step
    sqrt(2)*eps: k=1 uses sign -1 on the tau shift, k=2 uses sign +1.
    ``f_phys`` takes (t, x).
    """
    if k not in (1, 2):
        raise UsageError(f"stencil index k must be 1 or 2, got {k}")

    def f_rot(tau: float, lam: float) -> float:
        pt = to_physical(RotPoint(tau, lam))
        return f_phys(pt.t, pt.x)

    q = to_rotated(p)
    sign = -1 if k == 1 else 1
    return second_diff(f_rot, q, SQRT2 * eps, sign)
