"""Marching scheme, field splitting, and the fixed-point oracle.

The main oracles here are deliberately naive replays of the defining
recursion, written in this file and compared against the production
kernels: brute_march, a dictionary-based replay of the field, and
cell_loop, a cell-by-cell march of the field and its parts, which
group the update as the kernels do, and two_pass_march, which adds the
drift term last and so checks the kernels' one bottom weight to a
tolerance.
Variance checks for the linear field use the exact discrete weight
sums and, in the critically damped case, the closed form
(1/4)(1 - e^(-cS)(1 + cS))/c^2 with c = a/sqrt(2) and S = tau + lambda.
"""

import hashlib
import math

import numpy as np
import pytest

from kgqv import _kernels, noise, solver
from kgqv.coords import RotatedGrid, RotPoint
from kgqv.errors import DomainError, NumericError, UsageError
from kgqv.greens import PhysParams
from kgqv.solver import (
    FieldSample,
    affine,
    clipped_linear,
    coefficient_from_id,
    constant_one,
    march,
    march_linear,
    march_split,
    picard_oracle,
    shifted_sine,
)
from kgqv.solver import _cone_sum

from test_noise import skip_unless_recorded_noise

SQRT2 = math.sqrt(2.0)


def brute_march(params, F, nf):
    """Replay the recursion pointwise, matching the kernel's grouping."""
    g = nf.grid
    eps = g.eps
    beta = math.exp(-params.a * eps / (2.0 * SQRT2))
    th2 = 0.5 * params.theta
    drh = 0.5 * (0.25 * params.a * params.a - params.m * params.m) * eps * eps
    own = beta * beta - drh
    vals = {}
    for i in range(g.i_min, g.i_max + 1):
        if g.contains_index(i, -i):
            vals[(i, -i)] = 0.0
    seed_coef = th2 * F(0.0)
    for i in range(g.i_min + 1, g.i_max + 1):
        if g.contains_index(i, 1 - i):
            vals[(i, 1 - i)] = seed_coef * nf.increment_over_seed_triangle(i)
    for s in range(2, g.i_max + g.j_max + 1):
        for i in range(max(g.i_min, s - g.j_max), g.i_max + 1):
            j = s - i
            if not g.contains_index(i, j):
                continue
            bot = vals[(i - 1, j - 1)]
            vals[(i, j)] = (
                beta * (vals[(i - 1, j)] + vals[(i, j - 1)])
                - own * bot
                + th2 * F(bot) * nf.increment_over_cell(i - 1, j - 1)
            )
    return vals


def cell_loop(params, F, nf):
    """v and its parts v_L, v_C on the full window, one cell at a time.

    Groups every update as _kernels._step_np documents:
    (beta*(A + A') - own*bot) + drive, with own = beta^2 - drh for v and
    beta^2 for its parts, drh = b eps^2/2 as _kernels._rates forms it.
    v and v_C take the drive (F(bot)*theta/2)*dW and v_L the drive
    drh*bot, both from v's bottom.
    """
    g = nf.grid
    L = g.shape[0]
    eps = g.eps
    beta = math.exp(-params.a * eps / (2.0 * SQRT2))
    beta2 = beta * beta
    th2 = 0.5 * params.theta
    drh = 0.5 * params.drift_coef * eps * eps
    cells = nf.cells.tolist()
    v, v_l, v_c = ([[0.0] * L for _ in range(L)] for _ in range(3))

    def step(f, ii, jj, own, drive):
        return beta * (f[ii - 1][jj] + f[ii][jj - 1]) - own * f[ii - 1][jj - 1] + drive

    for k in range(L - 1):
        v[1 + k][L - 1 - k] = v_c[1 + k][L - 1 - k] = (th2 * F(0.0)) * float(nf.tris[k])
    for s in range(2, L):
        for k in range(L - s):
            ii, jj = s + k, L - 1 - k
            bot = v[ii - 1][jj - 1]
            noise_drive = F(bot) * th2 * cells[ii - 1][jj - 1]
            v[ii][jj] = step(v, ii, jj, beta2 - drh, noise_drive)
            v_c[ii][jj] = step(v_c, ii, jj, beta2, noise_drive)
            v_l[ii][jj] = step(v_l, ii, jj, beta2, drh * bot)
    v, v_l, v_c = (np.array(f) for f in (v, v_l, v_c))
    return v, v_l, v_c


class TestCoefficients:
    def test_menu_values(self):
        assert constant_one()(1.7) == 1.0
        assert affine(2.0, 3.0)(0.5) == 3.5
        f = shifted_sine()
        assert f(0.0) == 2.0
        assert f(math.pi / 2) == pytest.approx(3.0)
        g = clipped_linear()
        assert g(0.5) == 2.5
        assert g(5.0) == 3.0  # clipped at m0=1, then +2
        assert g(-5.0) == 1.0

    def test_defaults(self):
        assert shifted_sine().id == "shifted_sine"
        assert (shifted_sine().p0, shifted_sine().p1) == (2.0, 1.0)
        assert (clipped_linear().p0, clipped_linear().p1) == (1.0, 2.0)
        assert (affine().p0, affine().p1) == (1.0, 1.0)

    def test_array_and_scalar_agree(self):
        # a scalar goes through the array path and comes back a float, bit
        # for bit the array's element; the clip edges sit at +-p0 = +-1
        edges = [sign * np.nextafter(1.0, to) for sign in (1, -1) for to in (0.0, 1.0, 2.0)]
        x = np.array([-2.0, -0.3, -0.0, 0.0, 0.7, 3.1, 1e3, -1e-3, *edges])
        for f in (constant_one(), affine(0.2, -1.1), shifted_sine(), clipped_linear()):
            arr = f(x)
            assert arr.shape == x.shape
            for k, xv in enumerate(x):
                y = f(float(xv))
                assert type(y) is float
                assert np.float64(y).tobytes() == arr[k].tobytes()

    def test_factory_validation(self):
        with pytest.raises(UsageError):
            clipped_linear(m0=0.0)
        with pytest.raises(UsageError):
            coefficient_from_id("quadratic")
        assert coefficient_from_id("shifted_sine").fid == _kernels.FID_SHIFTED_SINE


class TestMarchAgainstReplay:
    def test_affine_bitwise(self):
        params = PhysParams(a=1.5, m=0.4, theta=1.3, diffusion_id="affine")
        F = affine(0.7, 0.9)
        nf = noise.generate(RotatedGrid(8), 21)
        v = march(params, F, nf)
        ref = brute_march(params, F, nf)
        for (i, j), want in ref.items():
            assert v.value(i, j) == want

    def test_shifted_sine_close(self):
        # sin() may come from different libm implementations per path
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="shifted_sine")
        F = shifted_sine()
        nf = noise.generate(RotatedGrid(8), 22)
        v = march(params, F, nf)
        ref = brute_march(params, F, nf)
        for (i, j), want in ref.items():
            assert v.value(i, j) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_asymmetric_window(self):
        params = PhysParams(a=0.7, m=0.2, theta=2.0, diffusion_id="clipped_linear")
        F = clipped_linear()
        nf = noise.generate(RotatedGrid(8, i_max=5, j_max=11), 23)
        v = march(params, F, nf)
        ref = brute_march(params, F, nf)
        for (i, j), want in ref.items():
            assert v.value(i, j) == pytest.approx(want, rel=1e-13, abs=1e-16)

    def test_zero_noise_gives_zero_field(self):
        g = RotatedGrid(8)
        rows, cols = g.shape
        zero = noise.NoiseField(
            grid=g,
            master_seed=0,
            cells=np.zeros((rows, cols)),
            tris=np.zeros(rows - 1),
        )
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="shifted_sine")
        v = march(params, shifted_sine(), zero)
        assert np.all(v.values == 0.0)

    def test_layer_one_identity(self):
        params = PhysParams(a=2.0, m=0.3, theta=1.7, diffusion_id="shifted_sine")
        F = shifted_sine()
        nf = noise.generate(RotatedGrid(16), 5)
        v = march(params, F, nf)
        g = nf.grid
        for i in range(g.i_min + 1, g.i_max + 1):
            want = (0.5 * params.theta * F(0.0)) * nf.increment_over_seed_triangle(i)
            assert v.value(i, 1 - i) == want

    def test_theta_linearity_when_constant(self):
        nf = noise.generate(RotatedGrid(16), 9)
        p1 = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="constant_one")
        p2 = PhysParams(a=1.0, m=0.5, theta=2.0, diffusion_id="constant_one")
        F = constant_one()
        v1 = march(p1, F, nf)
        v2 = march(p2, F, nf)
        assert np.array_equal(v2.values, 2.0 * v1.values)

    def test_march_linear_is_constant_one_theta_one(self):
        nf = noise.generate(RotatedGrid(8), 10)
        params = PhysParams(a=1.0, m=0.5, theta=3.0, diffusion_id="shifted_sine")
        V = march_linear(params, nf)
        ref = march(
            PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="constant_one"),
            constant_one(),
            nf,
        )
        assert np.array_equal(V.values, ref.values)
        assert V.params.theta == 1.0

    def test_subwindow_matches_full(self):
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="shifted_sine")
        F = shifted_sine()
        full = march(params, F, noise.generate(RotatedGrid(16), 77))
        part = march(params, F, noise.generate(RotatedGrid(16, i_max=6, j_max=9), 77))
        g = part.grid
        for i in range(g.i_min, g.i_max + 1):
            for j in range(g.j_min, g.j_max + 1):
                if g.contains_index(i, j):
                    assert part.value(i, j) == full.value(i, j)

    def test_twin_paths_agree(self):
        # the stored-window marches against their plain-Python cell loop,
        # byte for byte, for an affine and a clipped coefficient and for
        # the models the cell update meets: critical damping (drh = 0, an
        # own-bottom weight of beta^2), beta <= 1/2 (a = 32 at n = 16), a
        # stored weight theta/2 of exactly 1, the signed zeros of F(u) = u,
        # which v and its parts keep alike, and a < 0
        nf = noise.generate(RotatedGrid(16), 4)
        for params, F in (
            (PhysParams(a=1.5, m=0.4, theta=1.3, diffusion_id="affine"), affine(0.7, 0.9)),
            (PhysParams(a=0.7, m=0.2, theta=2.0, diffusion_id="clipped_linear"), clipped_linear()),
            (PhysParams(a=1.0, m=0.5, theta=1.3), shifted_sine()),
            (PhysParams(a=32.0, m=16.0, theta=1.3), shifted_sine()),
            (PhysParams(a=32.0, m=3.0, theta=0.7, diffusion_id="affine"), affine(0.7, 0.9)),
            (PhysParams(a=1.5, m=0.4, theta=2.0), shifted_sine(2.0, 0.5)),
            (PhysParams(a=1.0, m=0.5, theta=2.0, diffusion_id="constant_one"), constant_one()),
            (PhysParams(a=1.5, m=0.4, theta=1.3, diffusion_id="affine"), affine(0.0, 1.0)),
            (PhysParams(a=1.0, m=0.5, theta=1.3, diffusion_id="affine"), affine(0.0, 1.0)),
            (PhysParams(a=-1.0, m=0.3, theta=1.3), shifted_sine()),
        ):
            v, v_l, v_c = cell_loop(params, F, nf)
            assert march(params, F, nf).values.tobytes() == v.tobytes()
            got_l, got_c = march_split(params, F, nf)
            assert got_l.values.tobytes() == v_l.tobytes()
            assert got_c.values.tobytes() == v_c.tobytes()
            lin = PhysParams(a=params.a, m=params.m, theta=1.0, diffusion_id="constant_one")
            V, _, _ = cell_loop(lin, constant_one(), nf)
            assert march_linear(params, nf).values.tobytes() == V.tobytes()

    def test_small_beta_signed_zeros_match_cell_loop(self):
        # at critical damping beta = exp(-1/sqrt 2) ~ 0.493 < 1/2 rounds
        # beta times the negative subnormal -5e-324 to -0.0, and the -0.0
        # increment keeps that cell's update at -0.0: the one-pass update
        # must give the subnormal and the -0.0 exactly as cell_loop does
        g = RotatedGrid(2)  # L = 5
        cells = np.zeros(g.shape)
        cells[1, 3] = -5e-324
        cells[2, 3] = -0.0
        nf = noise.NoiseField(grid=g, master_seed=0, cells=cells, tris=np.zeros(g.shape[0] - 1))
        params = PhysParams(a=4.0, m=2.0, theta=2.0, diffusion_id="constant_one")
        v, _, _ = cell_loop(params, constant_one(), nf)
        assert march(params, constant_one(), nf).values.tobytes() == v.tobytes()


# SHA-256 of the bytes of march, march_linear and march_split (v_L, v_C)
# values, in that order, at PINNED_PARAMS.  F(u) = u keeps every field at
# a pattern of signed zeros, so that case pins the -0.0 that v and its
# parts keep (no update adds 0*bot).  Recorded with numpy 2.4 (see test_noise)
PINNED_PARAMS = PhysParams(a=1.0, m=0.7, theta=1.5)
PINNED_COEFFICIENTS = {
    "shifted_sine": shifted_sine(),
    "affine": affine(),
    "affine(0, 1)": affine(0.0, 1.0),
}
MARCH_SHA256 = {
    ((64,), 0, "shifted_sine"):
        "094638771fdf10ea41b24e6a922d7c41f7d366c07b0911fdf9d68e5ea823218e",
    ((64,), 0, "affine"):
        "eece94a60f1db312e5be71b87207df4d4ccbc11356eaed2ef8bf0d0f65c83f75",
    ((64,), 0, "affine(0, 1)"):
        "82e12b68c90f83b1e7dafcb66c77d113006d8be92080896b8ea583ae52fc776a",
    ((64,), 2**64 - 1, "shifted_sine"):
        "5090a3bb0100be69404649cddae54ebf640e070380a4b2bb03c8e0e13ec2d501",
    ((64,), 2**64 - 1, "affine"):
        "0c49ec3f2805e91914eafeeb5fc2f29fed165dc384d478e85296f10c89faa27e",
    ((64,), 2**64 - 1, "affine(0, 1)"):
        "012483ee8f01e332a0fa411a634d0cebed47eb2f82cdc8ecd9cddeff9755435d",
    ((16, 3, 9), 0, "shifted_sine"):
        "95e67a01fd6c971dbd78959695cca9923907eb4934657a44fc3ca33529db9ef4",
    ((16, 3, 9), 0, "affine"):
        "234bd7abd2c74b8589064d6c0e7e6eb069511b137f7d279b2ea86bcee5e9d398",
    ((16, 3, 9), 0, "affine(0, 1)"):
        "0509744159ddfa013602fce053ba7259daeabefb8d7939bf3369f120db1bfa2f",
    ((16, 3, 9), 2**64 - 1, "shifted_sine"):
        "133c4fc22057815f721df115e9719f61558963d1de2676cfee5ce76717ffc64c",
    ((16, 3, 9), 2**64 - 1, "affine"):
        "f85bfbfd95cf26b21dc11a5de495c7dbbcae574f8ed27b722d3e31db464fb569",
    ((16, 3, 9), 2**64 - 1, "affine(0, 1)"):
        "043ab4c8ab9e32867ceff9931ed68899c75594f797a6f9d52275f4da24106990",
}


@pytest.mark.parametrize("key", sorted(MARCH_SHA256, key=str))
def test_stored_march_bytes_match_recorded_hash(key):
    skip_unless_recorded_noise("test_twin_paths_agree (n=16, affine and clipped F)")
    args, seed, name = key
    F = PINNED_COEFFICIENTS[name]
    nf = noise.generate(RotatedGrid(*args), seed)
    v_l, v_c = march_split(PINNED_PARAMS, F, nf)
    fields = (march(PINNED_PARAMS, F, nf), march_linear(PINNED_PARAMS, nf), v_l, v_c)
    digest = hashlib.sha256(b"".join(f.values.tobytes() for f in fields)).hexdigest()
    assert digest == MARCH_SHA256[key]


def two_pass_march(params, F, nf):
    """v with the drift added last, one cell at a time.

    Groups every update as ((beta*(A + A') - beta^2*bot) + drive) +
    drh*bot: the drift weight drh = b eps^2/2 in a pass of its own, not
    folded into the bottom weight as the kernels, brute_march and
    cell_loop fold it.  It rounds differently from them, so it is
    compared to a tolerance, which a wrong fold cannot meet.
    """
    g = nf.grid
    L = g.shape[0]
    eps = g.eps
    beta = math.exp(-params.a * eps / (2.0 * SQRT2))
    th2 = 0.5 * params.theta
    drh = 0.5 * params.drift_coef * eps * eps
    cells = nf.cells.tolist()
    v = [[0.0] * L for _ in range(L)]
    for k in range(L - 1):
        v[1 + k][L - 1 - k] = (th2 * F(0.0)) * float(nf.tris[k])
    for s in range(2, L):
        for k in range(L - s):
            ii, jj = s + k, L - 1 - k
            bot = v[ii - 1][jj - 1]
            rest = beta * (v[ii - 1][jj] + v[ii][jj - 1]) - beta * beta * bot
            v[ii][jj] = rest + F(bot) * th2 * cells[ii - 1][jj - 1] + drh * bot
    return np.array(v)


@pytest.mark.parametrize("a,m", [(1.0, 0.7), (2.0, 0.25), (0.0, 1.0), (-1.0, 0.3)])
def test_one_bottom_weight_matches_the_two_pass_update(a, m):
    # march, march_linear and v_L + v_C against the update with drh*bot
    # added last, at PINNED_PARAMS and three more models with drh != 0
    nf = noise.generate(RotatedGrid(32), 5)
    lin = PhysParams(a=a, m=m, theta=1.0, diffusion_id="constant_one")
    V = march_linear(lin, nf).values
    assert np.max(np.abs(V - two_pass_march(lin, constant_one(), nf))) <= 1e-13 * np.max(np.abs(V))
    for F in (shifted_sine(), affine()):
        params = PhysParams(a=a, m=m, theta=PINNED_PARAMS.theta, diffusion_id=F.id)
        want = two_pass_march(params, F, nf)
        v_l, v_c = march_split(params, F, nf)
        bound = 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(march(params, F, nf).values - want)) <= bound
        assert np.max(np.abs(v_l.values + v_c.values - want)) <= bound


class TestFieldSample:
    def test_value_requires_window(self):
        nf = noise.generate(RotatedGrid(8), 1)
        v = march(PhysParams(), constant_one(), nf)
        with pytest.raises(DomainError):
            v.value(9, 0)

    def test_value_at_index_of(self):
        nf = noise.generate(RotatedGrid(8), 1)
        v = march(PhysParams(), constant_one(), nf)
        g = nf.grid
        assert v.value(*g.index_of(RotPoint(3 * g.eps, 2 * g.eps))) == v.value(3, 2)


def linear_variance_closed(a, s):
    if a == 0.0:
        return s * s / 8.0
    c = a / SQRT2
    return 0.25 * (1.0 - math.exp(-c * s) * (1.0 + c * s)) / (c * c)


def linear_variance_discrete(a, eps, big_m):
    # exact second moment of the marched linear field at i+j = big_m,
    # critically damped case (drift term zero)
    beta = math.exp(-a * eps / (2.0 * SQRT2))
    r = np.arange(big_m - 1)
    cells = 0.25 * eps * eps * float(np.sum((r + 1) * beta ** (2.0 * r)))
    tris = big_m * 0.25 * beta ** (2.0 * (big_m - 1)) * eps * eps / 2.0
    return cells + tris


class TestLinearFieldVariance:
    @pytest.mark.parametrize("a", [0.0, 1.0, 2.0])
    def test_discrete_sum_approaches_closed_form(self, a):
        s = 1.0
        prev = None
        for n in (16, 32, 64, 128):
            disc = linear_variance_discrete(a, 1.0 / n, n)
            err = abs(disc - linear_variance_closed(a, s))
            if a == 0.0:
                assert err < 1e-15
            else:
                assert err < 2.0 * a * (1.0 / n)
                if prev is not None:
                    assert err < 0.7 * prev
                prev = err

    @pytest.mark.parametrize("a,m", [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)])
    def test_mc_variance_matches_discrete(self, a, m):
        n = 16
        reps = 40000
        grid = RotatedGrid(n, i_max=n // 2, j_max=n // 2)
        rows, _ = grid.shape
        seeds = np.uint64(1000) + np.arange(reps, dtype=np.uint64)
        pts_i = np.array([n // 2], dtype=np.int64)
        pts_j = np.array([n // 2], dtype=np.int64)
        out = _kernels.march_points(
            seeds, rows, grid.i_min, grid.eps, a, m, 1.0,
            _kernels.FID_CONSTANT_ONE, 0.0, 0.0, 1.0, pts_i, pts_j,
        )
        var_mc = float(np.mean(out[:, 0] ** 2))
        disc = linear_variance_discrete(a, grid.eps, n)
        assert abs(var_mc - disc) < 4.0 * disc * math.sqrt(2.0 / reps)

    def test_damping_shrinks_variance(self):
        assert linear_variance_closed(2.0, 1.0) < 0.5 * linear_variance_closed(0.0, 1.0)
        # and the simulation agrees pathwise on average
        nf = noise.generate(RotatedGrid(64), 31)
        v0 = march_linear(PhysParams(a=0.0, m=0.0), nf)
        v2 = march_linear(PhysParams(a=2.0, m=1.0), nf)
        assert np.mean(v2.values**2) < np.mean(v0.values**2)

    def test_single_increments_are_hoelder_like(self):
        n = 256
        nf = noise.generate(RotatedGrid(n), 5)
        V = march_linear(PhysParams(a=1.0, m=0.5), nf)
        d1 = np.abs(np.diff(V.values, axis=0))
        bound = 3.0 * math.sqrt((1.0 / n) * math.log(n))
        assert float(d1.max()) < bound


class TestSplit:
    def test_split_reassembles_field(self):
        for a, m, n in ((1.0, 0.5, 16), (2.0, 0.3, 32), (0.0, 1.0, 16)):
            params = PhysParams(a=a, m=m, theta=1.0, diffusion_id="shifted_sine")
            F = shifted_sine()
            nf = noise.generate(RotatedGrid(n), 13)
            v = march(params, F, nf)
            v_l, v_c = march_split(params, F, nf)
            dev = float(np.max(np.abs(v.values - v_l.values - v_c.values)))
            assert dev <= 5.0 / n**2
            assert dev <= 1e-12

    def test_critically_damped_has_no_drift_part(self):
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="shifted_sine")
        assert params.drift_coef == 0.0
        nf = noise.generate(RotatedGrid(16), 14)
        v_l, v_c = march_split(params, shifted_sine(), nf)
        assert np.all(v_l.values == 0.0)
        v = march(params, shifted_sine(), nf)
        assert np.array_equal(v.values, v_c.values)

    def test_zero_coefficient_kills_everything(self):
        params = PhysParams(a=1.0, m=0.7, theta=1.0, diffusion_id="affine")
        F = affine(0.0, 0.0)
        nf = noise.generate(RotatedGrid(8), 15)
        v = march(params, F, nf)
        v_l, v_c = march_split(params, F, nf)
        assert np.all(v.values == 0.0)
        assert np.all(v_c.values == 0.0)
        assert np.all(v_l.values == 0.0)

    def test_drift_part_second_difference_order(self):
        # smooth component: rectangular double increments scale like eps^2
        params = PhysParams(a=2.0, m=0.3, theta=1.0, diffusion_id="shifted_sine")
        F = shifted_sine()
        means = []
        sizes = (8, 16, 32)
        for n in sizes:
            acc = 0.0
            for seed in range(20):
                nf = noise.generate(RotatedGrid(n), 100 + seed)
                v_l, _ = march_split(params, F, nf)
                i = j = n // 2
                dd = (
                    v_l.value(i + 1, j + 1)
                    - v_l.value(i + 1, j)
                    - v_l.value(i, j + 1)
                    + v_l.value(i, j)
                )
                acc += abs(dd)
            means.append(acc / 20)
        lo = np.log2(np.array(means))
        slope = np.polyfit(np.log2(1.0 / np.array(sizes, dtype=float)), lo, 1)[0]
        assert 1.7 < slope < 2.5


class TestPicardOracle:
    @pytest.mark.parametrize("beta", [1.0, math.exp(-1.0 / 64), math.exp(0.1)])
    def test_cone_sum_is_the_geometric_convolution(self, beta):
        # the reference is a full 2-D convolution with the kernel
        # beta^(di+dj), as the oracle's sweeps once were
        from scipy import signal

        x = np.random.default_rng(4).standard_normal((33, 33))
        d = np.arange(33, dtype=float)
        want = signal.convolve2d(x, beta ** (d[:, None] + d[None, :]))[:33, :33]
        got = _cone_sum(x, beta)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_exact_when_kernel_alignment_is_exact(self):
        # at a = m = 0 both kernels are the plain cone indicator
        params = PhysParams(a=0.0, m=0.0, theta=1.0, diffusion_id="shifted_sine")
        F = shifted_sine()
        nf = noise.generate(RotatedGrid(8), 3)
        v = march(params, F, nf)
        u = picard_oracle(params, F, nf)
        assert float(np.max(np.abs(v.values - u.values))) < 1e-12

    def test_oracle_tracks_march_at_order_eps(self):
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="shifted_sine")
        F = shifted_sine()
        sups = []
        for n in (8, 16):
            nf = noise.generate(RotatedGrid(n), 3)
            v = march(params, F, nf)
            u = picard_oracle(params, F, nf)
            sup = float(np.max(np.abs(v.values - u.values)))
            sups.append(sup)
            assert sup < 10.0 / n**2 * n  # O(eps) alignment gap
        assert sups[1] < 0.75 * sups[0]

    def test_exact_on_a_window_taller_than_n(self):
        # 33 rows at n = 4: a fixed sweep count tied to n stopped short of
        # the fixed point here, 4.5e-5 from the march
        params = PhysParams(a=0.0, m=0.0, theta=1.0, diffusion_id="shifted_sine")
        F = shifted_sine()
        nf = noise.generate(RotatedGrid(4, i_max=16, j_max=16), 3)
        v = march(params, F, nf)
        u = picard_oracle(params, F, nf)
        assert float(np.max(np.abs(v.values - u.values))) <= 1e-12

    @pytest.mark.parametrize("n", [8, 16])
    def test_stops_within_n_plus_one_sweeps(self, n, monkeypatch):
        # sweep k is exact on layers up to 2k, and RotatedGrid(n) has 2n
        # layers above its initial line: n sweeps reach the fixed point and
        # one more sees no change.  One call sums the boundary triangles.
        calls = []

        def counted(x, beta):
            calls.append(None)
            return _cone_sum(x, beta)

        monkeypatch.setattr(solver, "_cone_sum", counted)
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="shifted_sine")
        picard_oracle(params, shifted_sine(), noise.generate(RotatedGrid(n), 3))
        assert len(calls) - 1 <= n + 1

    def test_large_finite_field_is_returned(self):
        # a growth heuristic once called this oracle diverging; the march
        # and the fixed point are both finite, near 1e53
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="affine")
        F = affine(1.0, 1e9)
        nf = noise.generate(RotatedGrid(8), 3)
        u = picard_oracle(params, F, nf)
        v = march(params, F, nf)
        assert np.isfinite(u.values).all()
        assert 1e50 < float(np.max(np.abs(u.values))) < float(np.max(np.abs(v.values)))

    def test_overflowing_sweep_raises(self):
        # the second sweep overflows; a nan never equals the sweep before
        # it, so only a finiteness check ends the iteration
        params = PhysParams(a=1.0, m=0.5, theta=1e200, diffusion_id="affine")
        nf = noise.generate(RotatedGrid(8), 3)
        with pytest.raises(NumericError):
            picard_oracle(params, affine(), nf)

    def test_size_and_iteration_guards(self):
        params = PhysParams()
        F = shifted_sine()
        with pytest.raises(UsageError):
            picard_oracle(params, F, noise.generate(RotatedGrid(32), 1))
