"""Replication kernels against the stored-noise march, bit for bit.

march_points and march_qv draw their noise one anti-diagonal at a time
inside the kernel, one Philox block per pair of cells.  The reference
here is march_window over noise.generate's stored arrays, which draws
every cell on its own.  Both must give the same bytes, so a faster
noise draw can never move an experiment's output.

Seeds sit above 2^32 so the high key word is live, and the windows
cover both parities of the first cell index of a layer.  The seed
coefficient theta*F(0)/2 is a power of two in every case: march_points
folds it into the triangle scale before multiplying by the normal,
march_window after, and only a power of two makes that regrouping
exact.
"""

import hashlib

import numpy as np
import pytest

from kgqv import _kernels, analysis, noise
from kgqv.errors import NumericError, UsageError
from kgqv.coords import RotatedGrid
from kgqv.greens import PhysParams
from kgqv.solver import (
    affine, clipped_linear, constant_one, march, march_linear, march_split, shifted_sine,
)

from test_noise import skip_unless_recorded_numpy

SEEDS = np.array([2**32 + 7, 2**40 + 123, 2**63 + 5, 2**64 - 2], dtype=np.uint64)

CASES = [
    # theta, coefficient: theta * F(0) / 2 is 1 in both
    (1.0, shifted_sine()),
    (1.0, clipped_linear()),
]


def window_points(grid):
    pts = [
        (i, j)
        for i in range(grid.i_min, grid.i_max + 1)
        for j in range(grid.j_min, grid.j_max + 1)
        if grid.contains_index(i, j) and i + j >= 1
    ]
    return (
        np.array([p[0] for p in pts], dtype=np.int64),
        np.array([p[1] for p in pts], dtype=np.int64),
    )


@pytest.mark.parametrize("theta,F", CASES, ids=lambda c: getattr(c, "id", str(c)))
@pytest.mark.parametrize("i_max,j_max", [(3, 4), (4, 3), (5, 5), (6, 6)])
@pytest.mark.parametrize("coupled", [False, True])
def test_march_points_matches_window_march(theta, F, i_max, j_max, coupled):
    # j_max sets i_min = -j_max and with it the parity of every layer's
    # first cell index
    grid = RotatedGrid(8, i_max=i_max, j_max=j_max)
    params = PhysParams(a=1.0, m=0.5, theta=theta, diffusion_id=F.id)
    pts_i, pts_j = window_points(grid)
    K = pts_i.shape[0]
    out = _kernels.march_points(
        SEEDS, grid.shape[0], grid.i_min, grid.eps,
        params.a, params.m, params.theta, F.fid, F.p0, F.p1, F(0.0),
        pts_i, pts_j, coupled=coupled,
    )
    # the draw increment_samples takes a cell increment from
    cell_i, cell_j = 1, 0
    dw = _kernels._LayerNoise(SEEDS, 1).draw(cell_i + cell_j, cell_i, 1, 0)[0] * grid.eps
    rows = pts_i - grid.i_min
    cols = pts_j - grid.j_min
    for r, seed in enumerate(SEEDS):
        nf = noise.generate(grid, int(seed))
        v = march(params, F, nf)
        assert out[r, :K].tobytes() == v.values[rows, cols].tobytes()
        if coupled:
            V = march_linear(params, nf)
            assert out[r, K : 2 * K].tobytes() == V.values[rows, cols].tobytes()
        else:
            assert not out[r, K : 2 * K].any()
        assert dw[r] == nf.increment_over_cell(cell_i, cell_j)


def layer_order_sums(v, F, N):
    """Q_N and sum F^2 added in march_qv's documented order."""
    layers = []
    for s in range(2 * N - 1):
        terms = []
        for i in range(max(0, s - N + 1), min(s, N - 1) + 1):
            j = s - i
            bot = v.value(i, j)
            dd = ((v.value(i + 1, j + 1) - v.value(i, j + 1)) - v.value(i + 1, j)) + bot
            fb = F(bot)
            terms.append((dd * dd, fb * fb))
        layers.append(terms)
    qn = 0.0
    sf = 0.0
    for terms in layers:
        part_q = 0.0
        part_f = 0.0
        for q, f in terms:
            part_q += q
            part_f += f
        qn += part_q
        sf += part_f
    return qn, sf


@pytest.mark.parametrize("theta,F", CASES, ids=lambda c: getattr(c, "id", str(c)))
@pytest.mark.parametrize("N", [4, 16])
def test_march_qv_matches_window_reductions(theta, F, N):
    params = PhysParams(a=1.0, m=0.5, theta=theta, diffusion_id=F.id)
    out = _kernels.march_qv(
        SEEDS, N, params.theta, F.fid, F.p0, F.p1, F(0.0), params.a, params.m
    )
    for r, seed in enumerate(SEEDS):
        v = march(params, F, noise.generate(RotatedGrid(N), int(seed)))
        qn, sf = layer_order_sums(v, F, N)
        assert out[r, 0] == qn
        assert out[r, 1] == sf
        # the analysis routines sum the same cells in another order
        assert out[r, 0] == pytest.approx(analysis.quad_var(v), rel=1e-12)
        assert out[r, 1] == pytest.approx(
            4.0 * N * N * analysis.limit_functional(v, F), rel=1e-12
        )


def test_march_qv_rows_do_not_depend_on_chunk_size():
    F = shifted_sine()
    args = (32, 1.0, F.fid, F.p0, F.p1, F(0.0), 1.0, 0.5)
    together = _kernels.march_qv(SEEDS, *args)
    for r in range(SEEDS.shape[0]):
        alone = _kernels.march_qv(SEEDS[r : r + 1], *args)
        assert alone.tobytes() == together[r : r + 1].tobytes()


@pytest.mark.parametrize("coupled", [False, True])
def test_march_points_rows_do_not_depend_on_chunk_size(coupled):
    F = shifted_sine()
    grid = RotatedGrid(16, i_max=9, j_max=7)
    pts_i, pts_j = window_points(grid)

    def rows(seeds):
        return _kernels.march_points(
            seeds, grid.shape[0], grid.i_min, grid.eps, 1.0, 0.5, 1.0,
            F.fid, F.p0, F.p1, F(0.0), pts_i, pts_j, coupled=coupled,
        )

    together = rows(SEEDS)
    for r in range(SEEDS.shape[0]):
        alone = rows(SEEDS[r : r + 1])
        assert alone.tobytes() == together[r : r + 1].tobytes()
    pairs = np.concatenate([rows(SEEDS[:2]), rows(SEEDS[2:])])
    assert pairs.tobytes() == together.tobytes()


@pytest.mark.parametrize(
    "seeds",
    [np.array([-1]), np.array([5, -3], dtype=np.int64), [2**64], [0, 2**64 + 3], [-1, 2**63], [1.0]],
    ids=["minus-one", "negative-int64", "two-to-64", "past-2-to-64", "mixed-list", "float"],
)
def test_seeds_outside_the_key_range_are_rejected(seeds):
    # a cast to uint64 would wrap -1 to 2^64 - 1 and march that seed instead
    F = shifted_sine()
    with pytest.raises(UsageError):
        _kernels.march_qv(seeds, 4, 1.0, F.fid, F.p0, F.p1, F(0.0), 1.0, 0.5)
    with pytest.raises(UsageError):
        _kernels.march_points(
            seeds, 9, -4, 0.25, 1.0, 0.5, 1.0, F.fid, F.p0, F.p1, F(0.0),
            np.array([0]), np.array([1]),
        )


def test_largest_seeds_are_keys_not_errors():
    F = shifted_sine()
    args = (4, 1.0, F.fid, F.p0, F.p1, F(0.0), 1.0, 0.5)
    top = _kernels.march_qv([2**64 - 1], *args)
    same = _kernels.march_qv(np.array([2**64 - 1], dtype=np.uint64), *args)
    zero = _kernels.march_qv(np.array([0], dtype=np.int64), *args)
    assert top.tobytes() == same.tobytes()
    assert top.tobytes() != zero.tobytes()


def test_blown_up_marches_raise_numeric_error():
    # theta = 1e200 with an affine coefficient overflows within a few layers
    F = affine()
    grid = RotatedGrid(8)
    nf = noise.generate(grid, 3)
    params = PhysParams(a=1.0, m=0.5, theta=1e200, diffusion_id=F.id)
    with pytest.raises(NumericError):
        march(params, F, nf)
    with pytest.raises(NumericError):
        march_split(params, F, nf)
    with pytest.raises(NumericError):
        _kernels.march_qv(SEEDS, 8, 1e200, F.fid, F.p0, F.p1, F(0.0), 1.0, 0.5)
    pts_i, pts_j = window_points(grid)
    with pytest.raises(NumericError):
        _kernels.march_points(
            SEEDS, grid.shape[0], grid.i_min, grid.eps, 1.0, 0.5, 1e200,
            F.fid, F.p0, F.p1, F(0.0), pts_i, pts_j,
        )


# SHA-256 of the kernel rows for 300 seeds from 2^40 + 11 (numpy 2.4):
# march_points with F = shifted_sine on a window whose points include layer
# 1, and march_qv on the full [0, N]^2 window
ROW_SEEDS = np.uint64(2**40 + 11) + np.arange(300, dtype=np.uint64)
POINTS_SHA256 = {
    (16, False): "eb98fce5d04fe659e5ecc140008bb830dadc10911aeb6fae8b2cb49dcf65eff9",
    (16, True): "ea6126c51583aa62dbf2b5ac817c7a79b539afe893eff502b9b7adfa5f577443",
    (64, False): "8b6d1d79d85dd44bdefd1e896a209370b78fdaf52006ce1903d59e0ac3873067",
    (64, True): "83d6d2e1ca895150d0e602d7dd017dd808a43aa645e575bc7aac02275ebbb891",
}
QV_SHA256 = {
    (16, "shifted_sine"): "7afbe930e34b56549aa30c2223d9c802f0100b3fc8bccac28670e7a817371ca0",
    (16, "constant_one"): "843eaa3afd1a0adcb250b3cd9df75b5fbf1d9e4e061726782eee9d4fcb52a5dd",
    (64, "shifted_sine"): "b7a4577fd64da42499c3892cc8efae1ed6eebf802b10823fa9eb641733dcd585",
    (64, "constant_one"): "64c6a70fa2e68cfef5e563cd8e73ff1f834561aadc363bdb05338aeba505dc90",
}


@pytest.mark.parametrize("n,coupled", sorted(POINTS_SHA256))
def test_march_points_rows_match_recorded(n, coupled):
    skip_unless_recorded_numpy("test_march_points_matches_window_march (bit for bit, n=8)")
    F = shifted_sine()
    grid = RotatedGrid(n, i_max=n // 2 + 1, j_max=n // 2 + 3)
    pts_i, pts_j = window_points(grid)
    keep = (pts_i + pts_j <= 2) | ((3 * pts_i + pts_j) % 13 == 0)
    points = _kernels.march_points(
        ROW_SEEDS, grid.shape[0], grid.i_min, grid.eps, 1.0, 0.5, 1.0,
        F.fid, F.p0, F.p1, F(0.0), pts_i[keep], pts_j[keep], coupled=coupled,
    )
    # the hashes were recorded with the increment of cell (n/4, n/4 - 1)
    # as a last column, which the march drew for that cell
    cell = _kernels._LayerNoise(ROW_SEEDS, 1).draw(n // 2 - 1, n // 4, 1, 0)[0] * grid.eps
    out = np.column_stack([points, cell])
    assert hashlib.sha256(out.tobytes()).hexdigest() == POINTS_SHA256[n, coupled]


@pytest.mark.parametrize("N,F", sorted(QV_SHA256))
def test_march_qv_rows_match_recorded(N, F):
    skip_unless_recorded_numpy("test_march_qv_matches_window_reductions (bit for bit, N=4 and 16)")
    F = {"shifted_sine": shifted_sine, "constant_one": constant_one}[F]()
    out = _kernels.march_qv(ROW_SEEDS, N, 2.0, F.fid, F.p0, F.p1, F(0.0), 1.0, 0.5)
    assert hashlib.sha256(out.tobytes()).hexdigest() == QV_SHA256[N, F.id]
