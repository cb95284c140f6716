"""Characteristic-grid marching and a brute-force fixed-point oracle.

The damped stochastic wave equation in rotated coordinates is solved on
anti-diagonal layers: layer 0 carries the zero initial data, layer 1 is
seeded directly from the mild equation over the boundary triangles, and
every later value follows the cell recurrence

    v(i+1,j+1) = b v(i+1,j) + b v(i,j+1) - b^2 v(i,j)
                 + (theta/2) F(v(i,j)) dW(i,j) + (1/2) b(v(i,j)) eps^2

with b = exp(-a eps / (2 sqrt 2)), the exact kernel decay across one
rotated step.  The same weights make the drift component v_L a closed
cone quadrature: the recurrence telescopes to the kernel-weighted sum
sum_cells (1/2) e^{-a (t_P - t_top)/2} b(v(bottom)) eps^2 with the
kernel frozen at each cell's top vertex, so marching it costs O(n^2)
instead of the literal O(n^4) sum.

The Picard oracle iterates the discretized mild equation instead, with
the kernel held at cell centers, a deliberately different alignment, so
scheme/oracle agreement is an O(eps) external check rather than a
shared-code tautology.  Both of its kernels are products of one
geometric factor per axis, so a sweep is two separable cone sums of
elementwise numpy operations and no BLAS: O(n^2) per sweep and O(n^3)
for the at most n+1 sweeps to its fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .coords import RotatedGrid
from .errors import UsageError
from .greens import PhysParams
from .noise import NoiseField

_SQRT2 = math.sqrt(2.0)

@dataclass(frozen=True)
class DiffusionCoefficient:
    """One entry of the multiplicative-coefficient menu, all globally Lipschitz."""

    id: str
    p0: float
    p1: float
    fid: int

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return _kernels._f_eval_np(self.fid, self.p0, self.p1, x)
        return float(_kernels._f_eval_np(self.fid, self.p0, self.p1, float(x)))


def constant_one() -> DiffusionCoefficient:
    return DiffusionCoefficient("constant_one", 0.0, 0.0, _kernels.FID_CONSTANT_ONE)


def affine(alpha: float = 1.0, beta: float = 1.0) -> DiffusionCoefficient:
    """F(u) = alpha + beta u."""
    return DiffusionCoefficient("affine", alpha, beta, _kernels.FID_AFFINE)


def shifted_sine(c0: float = 2.0, c1: float = 1.0) -> DiffusionCoefficient:
    """F(u) = c0 + c1 sin(u); bounded away from 0 when c0 > |c1|."""
    return DiffusionCoefficient("shifted_sine", c0, c1, _kernels.FID_SHIFTED_SINE)


def clipped_linear(m0: float = 1.0, c2: float = 2.0) -> DiffusionCoefficient:
    """F(u) = clip(u, -m0, m0) + c2."""
    if m0 <= 0:
        raise UsageError(f"clip bound must be positive, got {m0}")
    return DiffusionCoefficient("clipped_linear", m0, c2, _kernels.FID_CLIPPED_LINEAR)


_FACTORIES = {
    "constant_one": constant_one,
    "affine": affine,
    "shifted_sine": shifted_sine,
    "clipped_linear": clipped_linear,
}


def coefficient_from_id(name: str) -> DiffusionCoefficient:
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise UsageError(
            f"unknown diffusion id {name!r}, expected one of {sorted(_FACTORIES)}"
        ) from None


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Lattice samples of one field on a window, zeros off-window."""

    grid: RotatedGrid
    values: np.ndarray
    params: PhysParams

    def value(self, i: int, j: int) -> float:
        self.grid.require_index(i, j)
        return float(self.values[i - self.grid.i_min, j - self.grid.j_min])


def _check_noise(noise: NoiseField) -> None:
    rows, cols = noise.grid.shape
    if noise.cells.shape != (rows, cols) or noise.tris.shape != (rows - 1,):
        raise UsageError("noise arrays do not match their grid window")


def _stored_march(params: PhysParams, F: DiffusionCoefficient, noise: NoiseField, split=False):
    """(v,), or with `split` (v_L, v_C), marched over noise's stored arrays, read-only."""
    _check_noise(noise)
    g = noise.grid
    args = (noise.cells, noise.tris, g.eps, params.a, params.m, params.theta,
            F.fid, F.p0, F.p1, F(0.0))
    fields = _kernels._march_stored(*args, split=True) if split else [_kernels.march_window(*args)]
    for v in fields:
        v.setflags(write=False)
    return tuple(FieldSample(g, v, params) for v in fields)


def march(params: PhysParams, F: DiffusionCoefficient, noise: NoiseField) -> FieldSample:
    """March the full nonlinear field over one noise realization."""
    return _stored_march(params, F, noise)[0]


def march_linear(params: PhysParams, noise: NoiseField) -> FieldSample:
    """March with F ident 1 and theta = 1 on the same noise (coupled)."""
    lin = PhysParams(a=params.a, m=params.m, theta=1.0, diffusion_id="constant_one")
    return march(lin, constant_one(), noise)


def march_split(params: PhysParams, F: DiffusionCoefficient, noise: NoiseField):
    """Split the marched field into drift and stochastic components.

    v_C carries the noise term, replaying F along the full field's
    bottom values; v_L carries the drift quadrature.  By linearity of
    the homogeneous recurrence, v_L + v_C reproduces v to round-off.
    v marches layer by layer as march does, and the two parts step
    beside it on its bottoms and drive; only the parts are kept.
    Returns (v_L, v_C).
    """
    return _stored_march(params, F, noise, split=True)


def _cone_sum(x, beta):
    """y[i, j] = sum over i' <= i, j' <= j of beta^(i-i' + j-j') x[i', j'].

    One geometric recurrence down the rows, then one along the columns.
    """
    y = np.array(x, dtype=float)
    for view in (y, y.T):
        for k in range(1, view.shape[0]):
            view[k] += beta * view[k - 1]
    return y


@_kernels._quiet
def picard_oracle(params: PhysParams, F: DiffusionCoefficient, noise: NoiseField) -> FieldSample:
    """Fixed-point iteration of the discretized mild equation.

    O(n^2) per sweep via separable cone sums; restricted to tiny
    grids.  A sweep writes each layer from strictly earlier ones, so
    sweep k is exact on layers up to 2k: the iteration stops at the
    first sweep that changes no value, the fixed point, after at most
    (i_max + j_max)/2 + 1 sweeps: n + 1 on RotatedGrid(n).
    """
    _check_noise(noise)
    g = noise.grid
    if g.n > 16:
        raise UsageError(f"oracle restricted to n <= 16, got n={g.n}")
    L = g.shape[0]
    eps = g.eps
    beta = math.exp(-params.a * eps / (2.0 * _SQRT2))
    bcoef = params.drift_coef
    # triangles are represented by their lattice point: kernel
    # (1/2) beta^(di+dj) at offsets di, dj >= 0
    tri_src = np.zeros((L, L))
    ks = np.arange(L - 1)
    tri_src[1 + ks, L - 1 - ks] = params.theta * F(0.0) * noise.tris
    tri_part = 0.5 * _cone_sum(tri_src, beta)
    u = np.zeros((L, L))
    while True:
        src = (bcoef * u) * eps * eps + params.theta * F(u) * noise.cells
        # the mild-equation kernel held at cell centers, time offset
        # (di+dj-1) steps: (1/2) beta^(di+dj-1) at offsets di, dj >= 1
        u_next = tri_part.copy()
        u_next[1:, 1:] += (0.5 * beta) * _cone_sum(src[:-1, :-1], beta)
        _kernels._finite(u_next)  # nan equals nothing: only this ends a blown-up run
        if np.array_equal(u_next, u):
            break
        u = u_next
    u.setflags(write=False)
    return FieldSample(g, u, params)
