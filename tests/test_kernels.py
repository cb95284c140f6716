"""Replication kernels against the stored-noise march, bit for bit.

march_points and march_qv draw their noise one anti-diagonal at a time
inside the kernel, one Philox block per pair of cells.  The reference
here is march_window over noise.generate's stored arrays, which draws
every cell on its own.  Both must give the same bytes, so a faster
noise draw can never move an experiment's output.

Seeds sit above 2^32 so the high key word is live, and the windows
cover both parities of the first cell index of a layer.  Both routes
seed layer 1 as (theta*F(0)/2) * (triangle increment), so the bytes
agree whatever that coefficient is.
"""

import hashlib

import numpy as np
import pytest

from kgqv import _kernels, analysis, noise
from kgqv.errors import NumericError, UsageError
from kgqv.coords import RotatedGrid, RotPoint
from kgqv.greens import PhysParams
from kgqv.solver import (
    affine, clipped_linear, constant_one, march, march_linear, march_split, shifted_sine,
)

from test_noise import skip_unless_recorded_numpy

SEEDS = np.array([2**32 + 7, 2**40 + 123, 2**63 + 5, 2**64 - 2], dtype=np.uint64)

CASES = [
    # theta, coefficient: theta * F(0) / 2 is 1 in the first two and no
    # power of two in the others
    (1.0, shifted_sine()),
    (1.0, clipped_linear()),
    (3.0, shifted_sine()),
    (0.7, shifted_sine()),
    (1.3, clipped_linear()),
    (1.0, affine(0.3, 1.0)),
]


def twin(window):
    """The coupled linear twin of a march_points argument list: theta 1, F ident 1."""
    one = constant_one()
    *head, _, _, _, _, _, pts_i, pts_j = window
    return (*head, 1.0, one.fid, one.p0, one.p1, one(0.0), pts_i, pts_j)


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
    window = (grid.shape[0], grid.i_min, grid.eps, params.a, params.m, params.theta,
              F.fid, F.p0, F.p1, F(0.0), pts_i, pts_j)
    out = _kernels.march_points(SEEDS, *window, coarser=[twin(window)] if coupled else ())
    assert out.shape == (SEEDS.shape[0], 2 * K if coupled else K)
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
            assert out[r, K:].tobytes() == V.values[rows, cols].tobytes()
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
    for coarser in ((), [(N, *args[1:]) for N in (8, 16)]):
        together = _kernels.march_qv(SEEDS, *args, coarser=coarser)
        for r in range(SEEDS.shape[0]):
            alone = _kernels.march_qv(SEEDS[r : r + 1], *args, coarser=coarser)
            assert alone.tobytes() == together[r : r + 1].tobytes()


@pytest.mark.parametrize("a,m", [(1.0, 0.5), (2.0, 0.25), (1.0, 1.0), (0.0, 0.0)])
@pytest.mark.parametrize("F", [shifted_sine(), constant_one()], ids=lambda F: F.id)
@pytest.mark.parametrize("R", [1, 37])
def test_shared_draw_march_equals_separate_marches(a, m, F, R):
    # R = 1 is where a layer sum that went pairwise would show; the seeds
    # run down from 2^64 - 1 with both key words changing.  Beside windows
    # of the first one's model march windows of other models: quadvar_rate's
    # linear part (N = 8, F ident 1 at a = 0, m = 1), and N = 16 with
    # shifted_sine at theta 1 and (a, m) = (1, 0.5)
    seeds = np.uint64(2**64 - 1) - np.uint64(0x9E3779B97F4A7C1) * np.arange(R, dtype=np.uint64)
    args = (2.0, F.fid, F.p0, F.p1, F(0.0), a, m)
    one, sine = constant_one(), shifted_sine()
    runs = [
        (16, *args), (4, *args), (8, *args),
        (8, 1.0, one.fid, one.p0, one.p1, one(0.0), 0.0, 1.0),
        (16, 1.0, sine.fid, sine.p0, sine.p1, sine(0.0), 1.0, 0.5),
    ]
    shared = _kernels.march_qv(seeds, *runs[0], coarser=runs[1:])
    alone = [_kernels.march_qv(seeds, *run) for run in runs]
    assert shared.tobytes() == np.hstack(alone).tobytes()


def level_window(n, model):
    """linear_variance's window at eps = 1/n, the stencil at (0.5, 0.5), for
    march_points with `model` = (a, m, theta, fid, p0, p1, f0)."""
    i = j = n // 2
    grid = RotatedGrid(n, i_max=i + 1, j_max=j + 1)
    pts_i = np.array([i, i + 1, i, i + 1], dtype=np.int64)
    pts_j = np.array([j, j, j + 1, j + 1], dtype=np.int64)
    return grid.shape[0], grid.i_min, grid.eps, *model, pts_i, pts_j


@pytest.mark.parametrize("a,m", [(1.0, 0.5), (2.0, 0.25), (1.0, 1.0), (0.0, 0.0)])
@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("R", [1, 37])
def test_shared_level_march_equals_separate_marches(a, m, coupled, R):
    # linear_variance's windows n = 16, 32 and 64 inside n = 128's, marched
    # on its draw; the seeds run down from 2^64 - 1 with both key words changing
    seeds = np.uint64(2**64 - 1) - np.uint64(0x9E3779B97F4A7C1) * np.arange(R, dtype=np.uint64)
    F = shifted_sine()
    model = (a, m, 2.0, F.fid, F.p0, F.p1, F(0.0))
    windows = []
    for n in (128, 16, 64, 32):
        windows.append(level_window(n, model))
        if coupled:
            windows.append(twin(windows[-1]))
    shared = _kernels.march_points(seeds, *windows[0], coarser=windows[1:])
    alone = [_kernels.march_points(seeds, *w) for w in windows]
    assert shared.tobytes() == np.hstack(alone).tobytes()

    params = PhysParams(a=a, m=m, theta=1.0, diffusion_id="constant_one")
    point = RotPoint(0.5, 0.5)
    steps = (1 / 128, 1 / 16, 1 / 64, 1 / 32)
    shared = analysis.increment_samples(params, steps[0], point, seeds, coarser=steps[1:])
    alone = [analysis.increment_samples(params, e, point, seeds) for e in steps]
    assert shared.tobytes() == np.hstack(alone).tobytes()


def test_a_window_must_nest_in_the_widest():
    F = shifted_sine()
    model = (1.0, 0.5, 1.0, F.fid, F.p0, F.p1, F(0.0))
    first = level_window(16, model)
    L, i_min, *rest = first
    # as wide as the first window, shifted one row past its end
    with pytest.raises(UsageError, match="nest"):
        _kernels.march_points(SEEDS, *first, coarser=[(L, i_min + 1, *rest)])
    # a window wider than the first is the one the others step on
    wider = level_window(32, model)
    shared = _kernels.march_points(SEEDS, *first, coarser=[wider])
    alone = [_kernels.march_points(SEEDS, *w) for w in (first, wider)]
    assert shared.tobytes() == np.hstack(alone).tobytes()
    args = (1.0, F.fid, F.p0, F.p1, F(0.0), 1.0, 0.5)
    shared = _kernels.march_qv(SEEDS, 8, *args, coarser=[(16, *args)])
    alone = [_kernels.march_qv(SEEDS, N, *args) for N in (8, 16)]
    assert shared.tobytes() == np.hstack(alone).tobytes()
    point = RotPoint(0.5, 0.5)
    shared = analysis.increment_samples(PhysParams(), 1 / 16, point, SEEDS, coarser=(1 / 32,))
    alone = [analysis.increment_samples(PhysParams(), e, point, SEEDS) for e in (1 / 16, 1 / 32)]
    assert shared.tobytes() == np.hstack(alone).tobytes()


@pytest.mark.parametrize("coupled", [False, True])
def test_march_points_rows_do_not_depend_on_chunk_size(coupled):
    F = shifted_sine()
    grid = RotatedGrid(16, i_max=9, j_max=7)
    model = (1.0, 0.5, 1.0, F.fid, F.p0, F.p1, F(0.0))
    window = (grid.shape[0], grid.i_min, grid.eps, *model, *window_points(grid))
    inner = RotatedGrid(8, i_max=5, j_max=3)
    inner = (inner.shape[0], inner.i_min, inner.eps, *model, *window_points(inner))
    coarser_cases = ([], [inner])
    if coupled:
        coarser_cases = ([twin(window)], [twin(window), inner, twin(inner)])

    for coarser in coarser_cases:
        def rows(seeds):
            return _kernels.march_points(seeds, *window, coarser=coarser)

        together = rows(SEEDS)
        for r in range(SEEDS.shape[0]):
            alone = rows(SEEDS[r : r + 1])
            assert alone.tobytes() == together[r : r + 1].tobytes()
        pairs = np.concatenate([rows(SEEDS[:2]), rows(SEEDS[2:])])
        assert pairs.tobytes() == together.tobytes()


@pytest.mark.parametrize("a,m", [(1.0, 0.5), (1.0, 1.0), (2.0, 0.25), (0.0, 0.0)])
@pytest.mark.parametrize("theta", [1.0, 3.0])
@pytest.mark.parametrize(
    "F", [constant_one(), affine(), shifted_sine(), clipped_linear()], ids=lambda F: F.id
)
@pytest.mark.parametrize("R", [1, 37])
def test_coupled_columns_are_the_march_with_unit_coefficient(a, m, theta, F, R):
    # the linear twin is the march with theta = 1 and F ident 1 on the same
    # noise, whatever theta, F and the damping regime
    seeds = np.uint64(2**64 - 1) - np.uint64(0x9E3779B97F4A7C1) * np.arange(R, dtype=np.uint64)
    grid = RotatedGrid(16, i_max=9, j_max=7)
    pts_i, pts_j = window_points(grid)
    window = (grid.shape[0], grid.i_min, grid.eps, a, m, theta,
              F.fid, F.p0, F.p1, F(0.0), pts_i, pts_j)
    linear = twin(window)
    coupled = _kernels.march_points(seeds, *window, coarser=[linear])
    K = pts_i.shape[0]
    assert coupled[:, :K].tobytes() == _kernels.march_points(seeds, *window).tobytes()
    assert coupled[:, K:].tobytes() == _kernels.march_points(seeds, *linear).tobytes()


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
    (16, False): "d0c4cccaa206715d67fb7013fffabda0036780fc4ece355af0b947ce1e840502",
    (16, True): "ea6126c51583aa62dbf2b5ac817c7a79b539afe893eff502b9b7adfa5f577443",
    (64, False): "824246eee1119fdaf1584fbfd501ab2bf6a30d5d4c6ffc4f30d10d6d495167ef",
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
    window = (grid.shape[0], grid.i_min, grid.eps, 1.0, 0.5, 1.0,
              F.fid, F.p0, F.p1, F(0.0), pts_i[keep], pts_j[keep])
    # coupled: the march's K columns, then its linear twin's
    points = _kernels.march_points(ROW_SEEDS, *window, coarser=[twin(window)] if coupled else ())
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


# SHA-256 of the marches on models whose cell update the pins above do not
# reach (numpy 2.4): a nonzero own-bottom weight drh (hyperbolic damping),
# beta = 1 (no damping), theta 0.7, an F whose slope is not 1 or whose
# offset is not 2, and noise weights of exactly 1: theta 2 makes the stored
# march's theta/2 one, and theta 2n the replication kernels' theta eps / 2.
# affine(0, 1) has F(0) = 0, so its fields are signed zeros throughout,
# -0.0 on layer 1 wherever the triangle increment is negative: at critical
# damping the zero own-bottom term must still turn layer 2's -0.0 into
# +0.0; at a = 32 (beta < 1/2) the term stays on every layer.
# "points" is march_points with its linear twin on the window of the
# POINTS_SHA256 pins, "qv" march_qv on [0, n]^2, both for 64 seeds, and
# "window" march and march_split over noise.generate's arrays for one seed
BRANCH_MODELS = {
    "hyperbolic": (2.0, 0.25, 1.0, shifted_sine()),
    "undamped": (0.0, 1.0, 1.0, shifted_sine()),
    "theta 0.7": (1.0, 0.5, 0.7, shifted_sine()),
    "sine(2, 0.5)": (1.0, 0.5, 1.0, shifted_sine(2.0, 0.5)),
    "affine(0.3, 1)": (1.0, 0.5, 1.0, affine(0.3, 1.0)),
    "affine(0, 1)": (1.0, 0.5, 1.0, affine(0.0, 1.0)),
    "affine(0, 1), a 32": (32.0, 16.0, 1.0, affine(0.0, 1.0)),
    "theta 2, F 1": (1.0, 0.5, 2.0, constant_one()),
    "theta 2": (1.0, 0.5, 2.0, shifted_sine()),
    "theta 32, F 1": (1.0, 0.5, 32.0, constant_one()),
    "theta 32": (1.0, 0.5, 32.0, shifted_sine()),
}
BRANCH_SHA256 = {
    ("points", "hyperbolic"):
        "2955ec9c628523779b8cc07a3a61403aef1a28f26ea0f9315523981afdd2dd85",
    ("points", "undamped"):
        "6214a6dd225bf14b5e07159101618359743eec83bdeed29763b541cd6db6712e",
    ("points", "theta 0.7"):
        "656c6963803d0f6c1fbded04d43b6c3ea19a1ed78f0f7646c85e9ca4d1c65e55",
    ("points", "sine(2, 0.5)"):
        "11432343a170e265e095ab75a28c24e2f91bd09cb125746841f4a2fa4fae3be1",
    ("points", "affine(0.3, 1)"):
        "f50e2ff74d562415c717bde5604f58c79838a2fba393ab7b5722501c6b6a046b",
    ("points", "affine(0, 1), a 32"):
        "e0893250ce5b927fb5d403871720909d5afc688a1e612c417e5c8868ca17dd7a",
    ("points", "affine(0, 1)"):
        "7c6dfeb437e928f17e08649deb30c3ae6814f38b8d2f742020acefd3d65ce18f",
    ("points", "theta 2, F 1"):
        "9aa2feb096d11a1f5ede531cc4cb768b12ff56aec68cf204bca115076c68a8db",
    ("points", "theta 2"):
        "99c695298da9437151424324e7e02d700795c0c9488970334422fb7ad43446bc",
    ("points", "theta 32, F 1"):
        "b9d7a70c572a7148fbafe037bf9ae02ba6b44f37d9d412bbddabe4055924936b",
    ("points", "theta 32"):
        "68676378b6ef1759be5ab0e4ef22ed9cc9e63d0278ece9eeb49b56cc80759178",
    ("qv", "hyperbolic"):
        "cf020a59869f41b5163920bcdf0a003bbec3eaa873cacb9b8bf1fa34db3dca6e",
    ("qv", "undamped"):
        "2630e4016f3b0ef69b0d8ced5a3d7f6b701101d5cb2f0df02bca1625e71963a3",
    ("qv", "theta 0.7"):
        "6a0f43fbb31b1cfdf45bc9e3dd582d88baa43486431a52c8c5adbe009b99b53a",
    ("qv", "sine(2, 0.5)"):
        "f80dde676c5710d6810d60c06d467be1817757355a2abe45a611e1f5eb7e09e7",
    ("qv", "affine(0.3, 1)"):
        "339a3204da650020b8b913e05ba5fc5101d02fe3c586d9b51e57f7d1c77c35ab",
    ("qv", "affine(0, 1), a 32"):
        "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
    ("qv", "affine(0, 1)"):
        "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
    ("qv", "theta 2, F 1"):
        "015a96b34123610cb077930d696c5ebb595de3e20a113b195026de906eb05283",
    ("qv", "theta 2"):
        "2274fc3f503f0f9128ac19ddf690b5c6d389dfeec6fde7ef8bc7ad98889d64bc",
    ("qv", "theta 32, F 1"):
        "591fec76cccdf965451215bee326b362fc5a2358d8a8d71a62432f71288b204c",
    ("qv", "theta 32"):
        "2df75dc0ed3b94425f50c458336e95b81157f0f2e0700e4c794335909c8b11f3",
    ("window", "hyperbolic"):
        "a96b654fa50adc0c3ac068fc277868c011d106933fdcd3bb48c501f28151ce87",
    ("window", "undamped"):
        "c1a908bcec95c0be4f2a55cd4a5e4da6f8cf55abf6c6dd87dd29f2f95fbddf60",
    ("window", "theta 0.7"):
        "f111ccca52fa57be50428918e7142120477fe41072b46a7df0eb0537708537ac",
    ("window", "sine(2, 0.5)"):
        "1f03ab432e684e5133e79a4af9a3569c3754e6df736bdfdb45e4ec0ea5a0a1ca",
    ("window", "affine(0.3, 1)"):
        "c8d811a54b56f9a3a3b07ee73ed6168107079f72a17ffabfdb4157d416210e8f",
    ("window", "affine(0, 1), a 32"):
        "da206a850065a2a5abf8d17a3b494cf778be48f74a4c12e1e09b8e17aa8eef30",
    ("window", "affine(0, 1)"):
        "da206a850065a2a5abf8d17a3b494cf778be48f74a4c12e1e09b8e17aa8eef30",
    ("window", "theta 2, F 1"):
        "bd4ab9c4a24dbc9209571aafba58519a3751634a91e978d541f5b2e2698476fc",
    ("window", "theta 2"):
        "8aca25ca46e836f1ff797c482e4ad1cf35b8a9cc9e3f28ae5096bb143b73a715",
    ("window", "theta 32, F 1"):
        "54e0abc7e7f3d7beafd599772b1ec0746bd4af6ca33241a8a21191c779480e2c",
    ("window", "theta 32"):
        "c14d32485c9cbadcf5853edc233e0343074a9d4b22afb1d88157828268f7ba06",
}


def branch_rows(kernel, model, n=16):
    a, m, theta, F = model
    coef = (F.fid, F.p0, F.p1, F(0.0))
    seeds = ROW_SEEDS[:64]
    if kernel == "points":
        grid = RotatedGrid(n, i_max=n // 2 + 1, j_max=n // 2 + 3)
        pts_i, pts_j = window_points(grid)
        keep = (pts_i + pts_j <= 2) | ((3 * pts_i + pts_j) % 13 == 0)
        window = (grid.shape[0], grid.i_min, grid.eps, a, m, theta, *coef,
                  pts_i[keep], pts_j[keep])
        return _kernels.march_points(seeds, *window, coarser=[twin(window)])
    if kernel == "qv":
        return _kernels.march_qv(seeds, n, theta, *coef, a, m)
    nf = noise.generate(RotatedGrid(n), int(seeds[0]))
    params = PhysParams(a=a, m=m, theta=theta, diffusion_id=F.id)
    fields = (march(params, F, nf), *march_split(params, F, nf))
    return np.stack([f.values for f in fields])


@pytest.mark.parametrize("kernel,model", sorted(BRANCH_SHA256))
def test_branch_rows_match_recorded(kernel, model):
    skip_unless_recorded_numpy("test_march_points_matches_window_march (bit for bit, n=8)")
    out = branch_rows(kernel, BRANCH_MODELS[model])
    assert hashlib.sha256(out.tobytes()).hexdigest() == BRANCH_SHA256[kernel, model]
