"""Derived statistics: linearization remainders, L^p norms of Monte
Carlo samples, the linear field's double increments, quadratic
variation, the limit functional, the diffusion-parameter estimator, and
log-log slope fits.

Monte Carlo estimates carry delta-method standard errors.
``increment_l2_from_samples`` reports two estimators of the same L2 norm:
the raw one, sqrt(mean of squared increments), and a conditional one
that subtracts the exactly-known diamond term before averaging.  Both
have the same limit eps/2; the conditional one removes the dominant
chi-square sampling noise, whose relative size 1/sqrt(2R) would
otherwise bury the O(eps^2) deviation being measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .coords import RotPoint, RotatedGrid
from .errors import CouplingError, DomainError, NumericError, UsageError
from .greens import PhysParams
from .solver import DiffusionCoefficient, FieldSample

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float


@dataclass(frozen=True)
class IncrementL2:
    eps: float
    raw: float
    raw_se: float
    conditional: float
    conditional_se: float

    @property
    def conditional_deviation(self) -> float:
        return abs(self.conditional - 0.5 * self.eps)


def remainder(
    v: FieldSample,
    V: FieldSample,
    F: DiffusionCoefficient,
    q: RotPoint,
    eps: float,
    sign: int,
) -> float:
    """Local-linearization remainder dd(v) - theta F(v(q)) dd(V) at one point.

    dd is the rectangular double increment with first-coordinate step
    sign*eps and second-coordinate step +eps; v and V must be coupled
    (same grid, same equation parameters, one noise realization).
    """
    if v.grid != V.grid:
        raise CouplingError("fields live on different grids")
    if (v.params.a, v.params.m) != (V.params.a, V.params.m):
        raise CouplingError("fields carry different equation parameters")
    if sign not in (1, -1):
        raise UsageError(f"sign must be +1 or -1, got {sign}")
    k = v.grid.steps_of(eps)
    i, j = v.grid.index_of(q)
    for pi, pj in ((i, j), (i + sign * k, j), (i, j + k), (i + sign * k, j + k)):
        v.grid.require_index(pi, pj)

    def dd(f: FieldSample) -> float:
        return (f.value(i + sign * k, j + k) - f.value(i + sign * k, j)) - (
            f.value(i, j + k) - f.value(i, j)
        )

    return dd(v) - v.params.theta * F(v.value(i, j)) * dd(V)


def lp_norm_mc(x, p: float):
    """((1/R) sum |X_r|^p)^(1/p) with a delta-method standard error.

    `x` holds R independent draws.
    """
    x = np.asarray(x, dtype=float).ravel()
    replications = x.shape[0]
    if replications < 100:
        raise UsageError(f"need at least 100 replications, got {replications}")
    if p < 1:
        raise UsageError(f"p must be at least 1, got {p}")
    if not np.all(np.isfinite(x)):
        raise NumericError("sample holds non-finite values")
    ap = np.abs(x) ** p
    mp = float(ap.mean())
    if mp == 0.0:
        return 0.0, 0.0
    est = mp ** (1.0 / p)
    se_mp = float(ap.std(ddof=1)) / math.sqrt(replications)
    return est, se_mp * est / (p * mp)


def _unit_block(field: FieldSample) -> np.ndarray:
    g = field.grid
    n = g.n
    if g.i_max < n or g.j_max < n:
        raise DomainError(
            f"window reaches ({g.i_max}, {g.j_max}); need indices 0..{n} covered"
        )
    return field.values[-g.i_min : n + 1 - g.i_min, -g.j_min : n + 1 - g.j_min]


def quad_var(field: FieldSample) -> float:
    """Sum of squared rectangular double increments over the unit square."""
    b = _unit_block(field)
    dd = b[1:, 1:] - b[1:, :-1] - b[:-1, 1:] + b[:-1, :-1]
    return float(np.sum(dd * dd))


def limit_functional(field: FieldSample, F: DiffusionCoefficient) -> float:
    """Left-endpoint Riemann sum of (1/4) F^2(v) over the unit square."""
    b = _unit_block(field)[:-1, :-1]
    n = field.grid.n
    return 0.25 * float(np.sum(F(b) ** 2)) / (n * n)


def estimate_theta(field: FieldSample, F: DiffusionCoefficient) -> float:
    """sqrt(4 N^2 Q_N / sum F^2(v)) over the unit square."""
    b = _unit_block(field)[:-1, :-1]
    s = float(np.sum(F(b) ** 2))
    if s <= 0.0:
        raise NumericError("diffusion coefficient vanishes on the whole sample")
    n = field.grid.n
    return math.sqrt(4.0 * n * n * quad_var(field) / s)


def increment_samples(
    params: PhysParams, eps: float, point: RotPoint, seeds
) -> np.ndarray:
    """One row per seed: [double increment of V, own cell increment].

    Marches the linear field (F ident 1, theta 1) over the dependency
    window of the four stencil corners at `point` with step eps = 1/n;
    the own cell increment is the draw the march makes for that cell.
    """
    n = int(round(1.0 / eps))
    if abs(n * eps - 1.0) > 1e-9 or n < 2 or n & (n - 1):
        raise UsageError(f"eps must be a reciprocal power of two, got {eps}")
    probe = RotatedGrid(n)
    i, j = probe.index_of(point)
    grid = RotatedGrid(n, i_max=i + 1, j_max=j + 1)
    rows, _ = grid.shape
    pts_i = np.array([i, i + 1, i, i + 1], dtype=np.int64)
    pts_j = np.array([j, j, j + 1, j + 1], dtype=np.int64)
    seeds = _kernels._seed_array(seeds)
    out = _kernels.march_points(
        seeds, rows, grid.i_min, grid.eps, params.a, params.m, 1.0,
        _kernels.FID_CONSTANT_ONE, 0.0, 0.0, 1.0, pts_i, pts_j,
    )
    dd = (out[:, 3] - out[:, 1]) - (out[:, 2] - out[:, 0])
    dw = _kernels._LayerNoise(seeds, 1).draw(i + j, i, 1, 0)[0] * grid.eps
    return np.column_stack([dd, dw])


def increment_l2_from_samples(eps: float, samples: np.ndarray) -> IncrementL2:
    """Raw and conditional L2 estimates from increment_samples rows.

    The conditional estimator replaces the increment's own-diamond term
    (1/2) dW, whose second moment eps^2/4 is exact, by that value:
    sqrt(eps^2/4 + mean (dd - dW/2)^2).
    """
    dd = samples[:, 0]
    raw, raw_se = lp_norm_mc(dd, 2.0)  # checks the replication count
    c = dd - 0.5 * samples[:, 1]
    mc2 = float(np.mean(c * c))
    cond = math.sqrt(0.25 * eps * eps + mc2)
    se_mc2 = float(np.std(c * c, ddof=1)) / math.sqrt(dd.shape[0])
    cond_se = se_mc2 / (2.0 * cond)
    return IncrementL2(
        eps=eps, raw=raw, raw_se=raw_se,
        conditional=cond, conditional_se=cond_se,
    )


def fit_loglog(x, y) -> SlopeFit:
    """OLS slope of log2 y against log2 x, with its standard error."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise UsageError("x and y must be 1-d arrays of equal length")
    npts = xa.shape[0]
    if npts < 3:
        raise UsageError(f"need at least 3 points for a slope fit, got {npts}")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))) or np.any(
        xa <= 0
    ) or np.any(ya <= 0):
        raise NumericError("non-positive or non-finite values in log-log fit")
    lx = np.log2(xa)
    ly = np.log2(ya)
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    stderr = math.sqrt(float(np.sum(resid**2)) / (npts - 2) / sxx)
    return SlopeFit(slope=slope, stderr=stderr)
