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
from .coords import RotPoint, RotatedGrid, double_increment
from .errors import DomainError, NumericError, UsageError
from .greens import PhysParams
from .solver import DiffusionCoefficient, FieldSample


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


def linearization_remainder(v_corners, V_corners, theta: float, F: DiffusionCoefficient):
    """dd v - theta F(v(c00)) dd V from corners (c00, c10, c01, c11): values or arrays."""
    return double_increment(*v_corners) - theta * F(v_corners[0]) * double_increment(*V_corners)


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


def theta_hat(N: int, qn, sf):
    """sqrt(4 N^2 Q_N / sum F^2) over [0, N)^2, on values or march_qv's columns.

    A sum of F^2 that is not positive leaves nothing to estimate.
    """
    if np.any(np.asarray(sf) <= 0.0):
        raise NumericError("diffusion coefficient vanishes on a whole sample")
    return np.sqrt(4.0 * N * N * qn / sf)


def estimate_theta(field: FieldSample, F: DiffusionCoefficient) -> float:
    """theta_hat over the unit square of one field."""
    b = _unit_block(field)[:-1, :-1]
    return float(theta_hat(field.grid.n, quad_var(field), float(np.sum(F(b) ** 2))))


def increment_samples(
    params: PhysParams, eps: float, point: RotPoint, seeds, *, coarser=()
) -> np.ndarray:
    """One row per seed: [double increment of V, own cell increment].

    Marches the linear field (F ident 1, theta 1) over the dependency
    window of the four stencil corners at `point` with step eps = 1/n;
    the own cell increment is the draw the march makes for that cell.
    `coarser` lists further steps, finer or coarser than eps, marched in
    one call on the finest step's noise draw (the stencil windows at one
    point nest); their [dd, dW] column pairs follow eps's in the order
    given, each equal byte for byte to increment_samples at that step
    alone.
    """
    windows, cells, steps = [], [], []
    for e in (eps, *coarser):
        n = int(round(1.0 / e))
        if abs(n * e - 1.0) > 1e-9 or n < 2 or n & (n - 1):
            raise UsageError(f"eps must be a reciprocal power of two, got {e}")
        i, j = RotatedGrid(n).index_of(point)
        grid = RotatedGrid(n, i_max=i + 1, j_max=j + 1)
        windows.append((
            grid.shape[0], grid.i_min, grid.eps, params.a, params.m, 1.0,
            _kernels.FID_CONSTANT_ONE, 0.0, 0.0, 1.0,
            np.array([i, i + 1, i, i + 1], dtype=np.int64),
            np.array([j, j, j + 1, j + 1], dtype=np.int64),
        ))
        cells.append((i, j))
        steps.append(grid.eps)
    out = _kernels.march_points(seeds, *windows[0], coarser=windows[1:])
    dw = _kernels.cell_normals(seeds, *zip(*cells))
    cols = []
    for w, step in enumerate(steps):
        # the window's 4 stencil corners, (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)
        cols.append(double_increment(*out[:, 4 * w : 4 * w + 4].T))
        cols.append(dw[:, w] * step)
    return np.column_stack(cols)


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
