"""Marching scheme, field splitting, and the fixed-point oracle.

The main oracle here is a deliberately naive dictionary-based replay of
the defining recursion, written once in this file and compared against
the production kernels.  Variance checks for the linear field use the
exact discrete weight sums and, in the critically damped case, the
closed form (1/4)(1 - e^(-cS)(1 + cS))/c^2 with c = a/sqrt(2) and
S = tau + lambda.
"""

import hashlib
import math

import numpy as np
import pytest

from kgqv import _kernels, noise
from kgqv.coords import PhysPoint, RotatedGrid, RotPoint
from kgqv.errors import DomainError, NumericError, OracleError, UsageError
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
from kgqv.solver import _picard_iterate

from test_noise import skip_unless_recorded_numpy

SQRT2 = math.sqrt(2.0)


def brute_march(params, F, nf):
    """Replay the recursion pointwise, matching the kernel's grouping."""
    g = nf.grid
    eps = g.eps
    beta = math.exp(-params.a * eps / (2.0 * SQRT2))
    beta2 = beta * beta
    th2 = 0.5 * params.theta
    drh = 0.5 * (0.25 * params.a * params.a - params.m * params.m) * eps * eps
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
                - beta2 * bot
                + th2 * F(bot) * nf.increment_over_cell(i - 1, j - 1)
                + drh * bot
            )
    return vals


def cell_loop(params, F, nf):
    """v and its parts v_L, v_C on the full window, one cell at a time.

    Groups every update as _kernels._step_np documents:
    ((beta*(A + A') - beta2*bot) + drive) + drh*bot for v, with drive =
    (F(bot)*theta/2)*dW; v_C takes the same drive and v_L the drive
    (1/2)(b bot) eps^2, both from v's bottom, and neither has a drh term.
    """
    g = nf.grid
    L = g.shape[0]
    eps = g.eps
    beta = math.exp(-params.a * eps / (2.0 * SQRT2))
    beta2 = beta * beta
    th2 = 0.5 * params.theta
    b = params.drift_coef
    drh = 0.5 * b * eps * eps
    cells = nf.cells.tolist()
    v, v_l, v_c = ([[0.0] * L for _ in range(L)] for _ in range(3))

    def step(f, ii, jj, drive):
        return beta * (f[ii - 1][jj] + f[ii][jj - 1]) - beta2 * f[ii - 1][jj - 1] + drive

    for k in range(L - 1):
        v[1 + k][L - 1 - k] = v_c[1 + k][L - 1 - k] = (th2 * F(0.0)) * float(nf.tris[k])
    for s in range(2, L):
        for k in range(L - s):
            ii, jj = s + k, L - 1 - k
            bot = v[ii - 1][jj - 1]
            noise_drive = F(bot) * th2 * cells[ii - 1][jj - 1]
            v[ii][jj] = step(v, ii, jj, noise_drive) + drh * bot
            v_c[ii][jj] = step(v_c, ii, jj, noise_drive)
            v_l[ii][jj] = step(v_l, ii, jj, 0.5 * (b * bot) * eps * eps)
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
        # the strided-view kernels against their plain-Python cell loop,
        # byte for byte, for an affine and a clipped coefficient
        nf = noise.generate(RotatedGrid(16), 4)
        for params, F in (
            (PhysParams(a=1.5, m=0.4, theta=1.3, diffusion_id="affine"), affine(0.7, 0.9)),
            (PhysParams(a=0.7, m=0.2, theta=2.0, diffusion_id="clipped_linear"), clipped_linear()),
        ):
            v, v_l, v_c = cell_loop(params, F, nf)
            assert march(params, F, nf).values.tobytes() == v.tobytes()
            got_l, got_c = march_split(params, F, nf)
            assert got_l.values.tobytes() == v_l.tobytes()
            assert got_c.values.tobytes() == v_c.tobytes()
            lin = PhysParams(a=params.a, m=params.m, theta=1.0, diffusion_id="constant_one")
            V, _, _ = cell_loop(lin, constant_one(), nf)
            assert march_linear(params, nf).values.tobytes() == V.tobytes()


# SHA-256 of the bytes of march, march_linear and march_split (v_L, v_C)
# values, in that order, at PINNED_PARAMS.  F(u) = u keeps every field at
# a pattern of signed zeros, so that case pins the -0.0 the split parts
# keep (they never add 0*bot).  Recorded with numpy 2.4 (see test_noise)
PINNED_PARAMS = PhysParams(a=1.0, m=0.7, theta=1.5)
PINNED_COEFFICIENTS = {
    "shifted_sine": shifted_sine(),
    "affine": affine(),
    "affine(0, 1)": affine(0.0, 1.0),
}
MARCH_SHA256 = {
    ((64,), 0, "shifted_sine"):
        "6f5af4d937a45eba94157da1454052ad9c614b7dcded12021f6f1d6b261f9c05",
    ((64,), 0, "affine"):
        "1f64646fcced02911d6b3a569fa423ce477fbb4991470b4d0f52735d4f6fc195",
    ((64,), 0, "affine(0, 1)"):
        "1f589d1c28b7de139e83997304e5fc80e28af744b12174b39f93d811ddcbc93d",
    ((64,), 2**64 - 1, "shifted_sine"):
        "527c10889fcb1d0abfd3b4ed92c841c7c789def765682a33689ca102d56cd694",
    ((64,), 2**64 - 1, "affine"):
        "a479dcd6f3701882024d0fabbf42b0db6eeff5351a98c1a74f7198eef9ef6346",
    ((64,), 2**64 - 1, "affine(0, 1)"):
        "6aae31630ac447b0edfdce903e11c0b7bd1c92f5ab37a391cf498de8aa4d4841",
    ((16, 3, 9), 0, "shifted_sine"):
        "9a9bc8880a5d0ee8a9464c827f6ac70f164d3d566e6874e3e4d00ea99c9b1623",
    ((16, 3, 9), 0, "affine"):
        "b4a1f9858f6faa99676f27d115e660fbb8a6cfe053ee2121e25e7fd9d74b0038",
    ((16, 3, 9), 0, "affine(0, 1)"):
        "4d796703325b0f3c324db4c30d8c36a505def15a5873efcf877d6ddc169d2ea7",
    ((16, 3, 9), 2**64 - 1, "shifted_sine"):
        "9a88a865dad4b42022f85639bee978a5f92a70521a3cc2569e42e1c2dafcb314",
    ((16, 3, 9), 2**64 - 1, "affine"):
        "90e97edb13f2337c50e008d846808fdda42dbe7b1bdcf07189232ce35109a43e",
    ((16, 3, 9), 2**64 - 1, "affine(0, 1)"):
        "21b3a7477ef9f497b5cb368b430314b7e46d2dbd6a658989673f598482faf428",
}


@pytest.mark.parametrize("key", sorted(MARCH_SHA256, key=str))
def test_stored_march_bytes_match_recorded_hash(key):
    skip_unless_recorded_numpy("test_twin_paths_agree (n=16, affine and clipped F)")
    args, seed, name = key
    F = PINNED_COEFFICIENTS[name]
    nf = noise.generate(RotatedGrid(*args), seed)
    v_l, v_c = march_split(PINNED_PARAMS, F, nf)
    fields = (march(PINNED_PARAMS, F, nf), march_linear(PINNED_PARAMS, nf), v_l, v_c)
    digest = hashlib.sha256(b"".join(f.values.tobytes() for f in fields)).hexdigest()
    assert digest == MARCH_SHA256[key]


class TestFieldSample:
    def test_value_requires_window(self):
        nf = noise.generate(RotatedGrid(8), 1)
        v = march(PhysParams(), constant_one(), nf)
        with pytest.raises(DomainError):
            v.value(9, 0)

    def test_rot_and_phys_functions(self):
        nf = noise.generate(RotatedGrid(8), 1)
        v = march(PhysParams(), constant_one(), nf)
        g = nf.grid
        assert v.value(*g.index_of(RotPoint(3 * g.eps, 2 * g.eps))) == v.value(3, 2)
        fp = v.phys_function()
        q = RotPoint(4 * g.eps, 1 * g.eps)
        t = (q.tau + q.lam) / SQRT2
        x = (q.lam - q.tau) / SQRT2
        assert fp(PhysPoint(t, x)) == v.value(4, 1)


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

    def test_deltas_contract_then_vanish(self):
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="shifted_sine")
        F = shifted_sine()
        nf = noise.generate(RotatedGrid(8), 3)
        _, d = _picard_iterate(params, F, nf, None)
        assert d.shape[0] == 10
        for k in range(3, len(d)):
            assert d[k] <= 0.5 * d[k - 1] or d[k] == 0.0
        assert d[-1] == 0.0

    def test_divergence_raises(self):
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="affine")
        F = affine(1.0, 1e9)
        nf = noise.generate(RotatedGrid(8), 3)
        with pytest.raises(OracleError):
            picard_oracle(params, F, nf)

    @pytest.mark.parametrize("oracle", [picard_oracle, _picard_iterate])
    def test_overflowing_sweep_raises(self, oracle):
        # the second sweep overflows; its nan sup-difference compares false
        # against every divergence bound, so only a finiteness check sees it
        params = PhysParams(a=1.0, m=0.5, theta=1e200, diffusion_id="affine")
        nf = noise.generate(RotatedGrid(8), 3)
        with pytest.raises(NumericError):
            oracle(params, affine(), nf, None)

    def test_size_and_iteration_guards(self):
        params = PhysParams()
        F = shifted_sine()
        with pytest.raises(UsageError):
            picard_oracle(params, F, noise.generate(RotatedGrid(32), 1))
        nf = noise.generate(RotatedGrid(8), 1)
        with pytest.raises(UsageError):
            picard_oracle(params, F, nf, iterations=4)
