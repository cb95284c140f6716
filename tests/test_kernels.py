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

from test_noise import skip_unless_recorded_noise

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


@pytest.mark.parametrize("point", [(5, 0), (0, 5), (-4, 3), (2, -5)])
def test_a_point_outside_its_window_is_rejected(point):
    # the n = 4 window spans i, j in [-4, 4] with i + j >= 0; unchecked,
    # (5, 0) read a stale slot of its layer and (0, 5) the slot X[-1]
    F = shifted_sine()
    window = (9, -4, 0.25, 1.0, 0.5, 1.0, F.fid, F.p0, F.p1, F(0.0))
    inside = (np.array([4, 0, -4, 1]), np.array([4, 0, 4, 2]))
    outside = (np.array([1, point[0]]), np.array([2, point[1]]))
    with pytest.raises(UsageError, match="every point must lie in its window"):
        _kernels.march_points(SEEDS, *window, *outside)
    with pytest.raises(UsageError, match="every point must lie in its window"):
        _kernels.march_points(SEEDS, *window, *inside, coarser=[(*window, *outside)])
    # so is a point list whose pts_i and pts_j differ in length
    with pytest.raises(UsageError, match="as many pts_i as pts_j"):
        _kernels.march_points(SEEDS, *window, inside[0], inside[1][:3])
    # the corner, the initial line (where the field is 0) and the inside still march
    out = _kernels.march_points(SEEDS, *window, *inside)
    assert (out[:, 1:3] == 0.0).all() and (out[:, [0, 3]] != 0.0).all()


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
    (16, False): "f5718f865ff605f9f39cb8e0fdd146111194b17572032088be67080df2d7a3e8",
    (16, True): "fbffc86557fb066cdeff47870f1c04007e7e5343e64944451e834490429e3950",
    (64, False): "fae331d78e110777e29d0167390e8c78163ec3fd8268257f0ff88907c4f4f768",
    (64, True): "3a39b0886f22d6bd32219b4f8a65dc2f251432870b24f090942bae1be97ab036",
}
QV_SHA256 = {
    (16, "shifted_sine"): "611a741fc84f5a270736b74b4f4d6b98b24053eaceb6bd3cb3b73d9bbe5ba1c2",
    (16, "constant_one"): "abc55de73daef69932a0368c7fd18a9d044c9db797e6375e8b8138f51aa0ae76",
    (64, "shifted_sine"): "08c267d9a1946f991e034a41aa5d2764ef84cf5c8c69fb19c8964ab882c8e2d4",
    (64, "constant_one"): "fb5216d2e6066bc5a0d341ffd0bff1577f3eb20641b9fb2a6638e2e5fba869ca",
}


@pytest.mark.parametrize("n,coupled", sorted(POINTS_SHA256))
def test_march_points_rows_match_recorded(n, coupled):
    skip_unless_recorded_noise("test_march_points_matches_window_march (bit for bit, n=8)")
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
    skip_unless_recorded_noise("test_march_qv_matches_window_reductions (bit for bit, N=4 and 16)")
    F = {"shifted_sine": shifted_sine, "constant_one": constant_one}[F]()
    out = _kernels.march_qv(ROW_SEEDS, N, 2.0, F.fid, F.p0, F.p1, F(0.0), 1.0, 0.5)
    assert hashlib.sha256(out.tobytes()).hexdigest() == QV_SHA256[N, F.id]


# SHA-256 of the marches on models whose cell update the pins above do not
# reach (numpy 2.4): a nonzero drift weight drh (hyperbolic damping),
# beta = 1 (no damping), theta 0.7, an F whose slope is not 1 or whose
# offset is not 2, and noise weights of exactly 1: theta 2 makes the stored
# march's theta/2 one, and theta 2n the replication kernels' theta eps / 2.
# affine(0, 1) has F(0) = 0, so its fields are signed zeros throughout,
# -0.0 on layer 1 wherever the triangle increment is negative; at critical
# damping, with beta > 1/2 (a = 1) and beta < 1/2 (a = 32), the one-pass
# update keeps the -0.0 that its tops and drive leave, as no 0*bot is added.
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
        "2c70d92215eb248d060fa462af2b83c5c9d98bd2d887e93b7fb69d6fee896d35",
    ("points", "undamped"):
        "83d26aa433a23a0fc791a2b2d08270fbbd5fcc11df98df200b69a8ed85e71032",
    ("points", "theta 0.7"):
        "8120ce7cbbafd017fa52d5861a6ceaacb3ffba0d95982e719cb9835462f3aa9a",
    ("points", "sine(2, 0.5)"):
        "8de92a07fdefcf914a5e0286365f3a8e70e1802b15caa651f88b871b063b98cb",
    ("points", "affine(0.3, 1)"):
        "6340b6db7e4120ed597784741fd2a8b6b88931ad509007567b433f38f05d6248",
    ("points", "affine(0, 1), a 32"):
        "be5d04be007559998a12775e9afc9f036b03115ab25f214b316282f8c8323d3b",
    ("points", "affine(0, 1)"):
        "d1173e3072fb3761645509821f6dbb81e87114932e915806b65396508c03690d",
    ("points", "theta 2, F 1"):
        "697e11f1157a7dcd157a0cb856fabead07378a5af0f798e700d635207888c8e4",
    ("points", "theta 2"):
        "47e6328ebec6f2680a03ee8dcc9e29cc5a4e4f07444b6af255e3560bc3d7b522",
    ("points", "theta 32, F 1"):
        "f1f32b0afd2da753bc71155732f8079a7aaeefaca360d684924a6bb234114d78",
    ("points", "theta 32"):
        "bacd568006e857026da7396b0f1e50ba0fea3d0b7a7f6fddfd9bf2d81ceccc67",
    ("qv", "hyperbolic"):
        "d34560089dbd761c9f00c58cff334ea8b35135b4974730dbf813108978e5ada9",
    ("qv", "undamped"):
        "c88f2fbfb0ef97223153e1d15bb703bf729052ef4ab5c8d6c31b51afb48eb569",
    ("qv", "theta 0.7"):
        "afc13fb5f960fab2c784d43056046755086f2d5b17b86bb275bf8b4ced6f8977",
    ("qv", "sine(2, 0.5)"):
        "33983f1ea40dbfc0139d418765772eb18fa83146ef8c79f318119c0654339f05",
    ("qv", "affine(0.3, 1)"):
        "1ef99236c19924556d809ec07bbdd6c796fa86b04484b6eb2ef77bb43e92dafd",
    ("qv", "affine(0, 1), a 32"):
        "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
    ("qv", "affine(0, 1)"):
        "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
    ("qv", "theta 2, F 1"):
        "1182ae3fd749fbeea79c48456fd5d30743be4d3276b22ba3a6ca331d2c0f52cc",
    ("qv", "theta 2"):
        "797929c29800d382cc4e49045363b4494162e4b2a725d1b36f16d403167d0e73",
    ("qv", "theta 32, F 1"):
        "e1b9019472b8fe56eb030c65dd34ed692bdf917fa43f339be21d274c0dc8cec9",
    ("qv", "theta 32"):
        "4e4d2df354ae7f62e9bc4c58a142d806841db991f4bd63f0b80f8f53127f645a",
    ("window", "hyperbolic"):
        "be2697a1cfad0396050ca191655234239212ee8dbba9ec1048fdb2e986d5aa9b",
    ("window", "undamped"):
        "34a14ff1da64e890b76c080e8be46331d2a757461f3d044e42e6f9b1ad2b7e87",
    ("window", "theta 0.7"):
        "fdc47f9515e3602df1b97eddf938178245afb8e909c764d6bd824767ddc50a50",
    ("window", "sine(2, 0.5)"):
        "a41a0dd59080d612fc26799a2b4097de537cf533213d098630b244cd5fe1c2db",
    ("window", "affine(0.3, 1)"):
        "3eaf1bf34b15992c8b49ff65567b8ea93dc70ca30ee12569a4ae2d18aba7ebb5",
    ("window", "affine(0, 1), a 32"):
        "7a0edc4e78fe92251f574cbf1f5255341b57fc29ca6f0cae7c81fed113e94691",
    ("window", "affine(0, 1)"):
        "7a0edc4e78fe92251f574cbf1f5255341b57fc29ca6f0cae7c81fed113e94691",
    ("window", "theta 2, F 1"):
        "8cfaa3c84ef10c9614ddd726d535a74401f8dda89d6877aa0fb42a603357b77f",
    ("window", "theta 2"):
        "482886636ed01895fe9fb06c255e360072f008acb9a63285d86d140763a277ad",
    ("window", "theta 32, F 1"):
        "9445572de233215e3cca0d5eef1cf1f1374b9c042aa3d5cac8e4e659dbda3e42",
    ("window", "theta 32"):
        "1b94e3521c180067fbf2d42017bc61a2ea5fe49de7912365c0f7bc32beb61826",
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
    skip_unless_recorded_noise("test_march_points_matches_window_march (bit for bit, n=8)")
    out = branch_rows(kernel, BRANCH_MODELS[model])
    assert hashlib.sha256(out.tobytes()).hexdigest() == BRANCH_SHA256[kernel, model]
