"""Noise field generation, accessors, scaling and seed range."""

import hashlib
import math

import numpy as np
import pytest

from kgqv import _kernels, noise
from kgqv.coords import RotatedGrid
from kgqv.errors import UsageError

from test_philox import ref_gauss

# SHA-256 of cells.tobytes() + tris.tobytes().  The bytes depend on the numpy
# build and on the SIMD target its float64 log runs on (np.log is not libm's
# log, and its AVX-512 and AVX2 loops round differently on about 0.3% of
# Box-Muller uniforms), so the noise pins hold only for the numpy
# major.minor and the log target they were recorded with
GENERATE_SHA256 = {
    ((64,), 0): "c8405d246d0dd5a5619c5e502c93a8e1405eb6a19ed145a1bc8dc75337f8449b",
    ((64,), 2**64 - 1): "9eac28af0e538f59767deb6fc60ad3506fbed2a3a85463614acfe6bfb434b798",
    ((16, 3, 9), 0): "d3f1852dbe47827ae89d8f9333808492e57558e214d191fd104904a0b9df040c",
    ((16, 3, 9), 2**64 - 1): "9c0741caea7c7c765ea395743bf81c6bf402c90516544748c0322e0c63a082f6",
}
RECORDED_NUMPY = "2.4"
RECORDED_DISPATCH = "X86_V4"
# SHA-256 of the full-rectangle lattice_normals(i0, j0, (rows, cols), kind,
# seed), for odd and even i0 and both streams, and of triangle_normals(i0,
# count, seed)
LATTICE_SHA256 = {
    (-7, -5, 75, 29, 0, 0): "f9b2748ab467c752f56181b37e402f29dd6c68e6e4ba1e6c91603b75105248b4",
    (-7, -5, 75, 29, 1, 2**64 - 1): "07f6dc7ea033f124bf95fb729fad30b5be59a0c716086743397ae73b834d22ff",
    (-8, 3, 75, 29, 0, 2**64 - 1): "028c287854eceb9ca6c84e20f5b4865ab6effa2a65c41330146e55610293e5dc",
    (-8, 3, 75, 29, 1, 0): "6d3a58cd00e5f8e8fed2760eacd81e78ca69becc0ee3df66ab93080cb30e31c0",
}
TRIANGLE_SHA256 = {
    (-7, 75, 0): "fd50ea1077e6b60147676a52f60ed15091d3772a9a4b963930124504e590dcad",
    (-8, 76, 2**64 - 1): "98f24e687b1a792b403c1f83967832d75ecc348c318b511bd9c6237230ad2e8b",
}


def skip_unless_recorded_numpy(checked_instead):
    """Skip a recorded-hash pin under a numpy major.minor it was not recorded with."""
    version = ".".join(np.__version__.split(".")[:2])
    if version != RECORDED_NUMPY:
        pytest.skip(
            f"hashes recorded with numpy {RECORDED_NUMPY}, running {version}: "
            f"only {checked_instead} checked the values"
        )


def log_dispatch():
    """The SIMD target numpy runs float64 log on in this process."""
    from numpy._core._multiarray_umath import __cpu_targets_info__

    return __cpu_targets_info__["log"]["dd"]["current"]


def dispatch_skip_reason(target, checked_instead):
    return (
        f"noise hashes recorded on numpy's {RECORDED_DISPATCH} log loop, running "
        f"{target}: only {checked_instead} checked the values"
    )


def skip_unless_recorded_noise(checked_instead):
    """Skip a pin of noise-dependent bytes off its numpy minor or log SIMD target."""
    skip_unless_recorded_numpy(checked_instead)
    target = log_dispatch()
    if target != RECORDED_DISPATCH:
        pytest.skip(dispatch_skip_reason(target, checked_instead))


@pytest.fixture
def small():
    grid = RotatedGrid(8)
    return noise.generate(grid, 12345)


class TestGenerate:
    def test_shapes_and_flags(self, small):
        L = 2 * 8 + 1
        assert small.cells.shape == (L, L)
        assert small.tris.shape == (L - 1,)
        assert not small.cells.flags.writeable
        assert not small.tris.flags.writeable

    def test_below_initial_line_is_zero(self, small):
        L = small.cells.shape[0]
        for ii in range(L):
            for jj in range(L):
                if ii + jj < L - 1:
                    assert small.cells[ii, jj] == 0.0

    def test_deterministic(self, small):
        again = noise.generate(small.grid, small.master_seed)
        assert np.array_equal(again.cells, small.cells)
        assert np.array_equal(again.tris, small.tris)

    def test_seed_changes_values(self, small):
        other = noise.generate(small.grid, 54321)
        assert not np.array_equal(other.cells, small.cells)

    @pytest.mark.parametrize("args", [(16,), (16, 3, 9), (8, 5, 11)])
    def test_matches_reference_on_and_above_line(self, args):
        g = RotatedGrid(*args)
        nf = noise.generate(g, 2024)
        for ii in range(g.shape[0]):
            for jj in range(g.shape[1]):
                i, j = g.i_min + ii, g.j_min + jj
                got = nf.cells[ii, jj]
                if i + j >= 0:
                    assert got == pytest.approx(g.eps * ref_gauss(i, j, 0, 2024), rel=1e-12)
                else:
                    assert got == 0.0 and not np.signbit(got)

    @pytest.mark.parametrize("key", sorted(GENERATE_SHA256))
    def test_bytes_match_recorded_hash(self, key):
        skip_unless_recorded_noise("test_matches_reference_on_and_above_line (rel 1e-12)")
        args, seed = key
        nf = noise.generate(RotatedGrid(*args), seed)
        digest = hashlib.sha256(nf.cells.tobytes() + nf.tris.tobytes()).hexdigest()
        assert digest == GENERATE_SHA256[key]

    def test_window_coherence(self):
        # same n, smaller window: shared lattice sites agree bitwise
        full = noise.generate(RotatedGrid(8), 7)
        g = RotatedGrid(8, i_max=3, j_max=5)
        part = noise.generate(g, 7)
        for i in range(g.i_min, 4):
            for j in range(g.j_min, 6):
                if not g.contains_index(i, j):
                    continue
                if full.grid.contains_index(i, j):
                    assert part.increment_over_cell(i, j) == full.increment_over_cell(i, j)


class TestFillPins:
    @pytest.mark.parametrize("i0", [-37, -36])
    @pytest.mark.parametrize("sig_min", [None, 0])
    def test_blocked_fill_matches_reference(self, i0, sig_min):
        # 51 pair rows: three whole fill blocks, then a ragged one
        rows = 6 * _kernels._FILL_PAIR_ROWS + 5
        j0, cols = -9, 6
        z = _kernels.lattice_normals(i0, j0, (rows, cols), 0, 77, sig_min=sig_min)
        assert z.shape == (rows, cols)
        for r in range(rows):
            for c in range(cols):
                i, j = i0 + r, j0 + c
                if sig_min is None or i + j >= sig_min:
                    assert z[r, c] == pytest.approx(ref_gauss(i, j, 0, 77), rel=1e-12)
                else:
                    assert z[r, c] == 0.0 and not np.signbit(z[r, c])

    @pytest.mark.parametrize("key", sorted(LATTICE_SHA256))
    def test_lattice_bytes_match_recorded_hash(self, key):
        skip_unless_recorded_noise("test_philox's scalar reference checks (rel 1e-12)")
        i0, j0, rows, cols, kind, seed = key
        z = _kernels.lattice_normals(i0, j0, (rows, cols), kind, seed)
        assert hashlib.sha256(z.tobytes()).hexdigest() == LATTICE_SHA256[key]

    @pytest.mark.parametrize("key", sorted(TRIANGLE_SHA256))
    def test_triangle_bytes_match_recorded_hash(self, key):
        skip_unless_recorded_noise("test_philox's scalar reference checks (rel 1e-12)")
        z = _kernels.triangle_normals(*key)
        assert hashlib.sha256(z.tobytes()).hexdigest() == TRIANGLE_SHA256[key]


class TestAccessors:
    def test_cell_indexing(self, small):
        g = small.grid
        assert small.increment_over_cell(0, 0) == small.cells[-g.i_min, -g.j_min]
        assert small.increment_over_cell(g.i_max, g.j_max) == small.cells[-1, -1]

    def test_cell_out_of_window(self, small):
        with pytest.raises(IndexError):
            small.increment_over_cell(9, 0)
        with pytest.raises(IndexError):
            small.increment_over_cell(-5, -5)

    def test_triangle_indexing(self, small):
        g = small.grid
        # triangle k sits at lattice point (i_min+1+k, -(i_min+k))
        assert small.increment_over_seed_triangle(g.i_min + 1) == small.tris[0]
        assert small.increment_over_seed_triangle(g.i_max) == small.tris[-1]

    def test_triangle_out_of_range(self, small):
        with pytest.raises(IndexError):
            small.increment_over_seed_triangle(small.grid.i_min)
        with pytest.raises(IndexError):
            small.increment_over_seed_triangle(small.grid.i_max + 1)


class TestScaling:
    def test_cell_variance(self):
        n = 64
        f = noise.generate(RotatedGrid(n), 99)
        eps = 1.0 / n
        L = 2 * n + 1
        vals = [
            f.cells[ii, jj]
            for ii in range(L)
            for jj in range(L)
            if ii + jj >= L - 1
        ]
        z = np.array(vals) / eps
        k = z.size
        assert abs(z.mean()) < 4.0 / math.sqrt(k)
        assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / k)

    def test_triangle_variance(self):
        # pool triangles across seeds; each grid only has 2n of them
        n = 32
        g = RotatedGrid(n)
        z = np.concatenate(
            [noise.generate(g, s).tris for s in range(40)]
        ) / (1.0 / n / math.sqrt(2.0))
        k = z.size
        assert abs(z.mean()) < 4.0 / math.sqrt(k)
        assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / k)

    def test_neighbour_independence(self):
        f = noise.generate(RotatedGrid(128), 3)
        c = f.cells
        L = c.shape[0]
        mask = np.add.outer(np.arange(L), np.arange(L)) >= L - 1
        pairs_h = mask[:, 1:] & mask[:, :-1]
        x = c[:, 1:][pairs_h]
        y = c[:, :-1][pairs_h]
        k = x.size
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(k)
        pairs_v = mask[1:, :] & mask[:-1, :]
        corr_v = np.corrcoef(c[1:, :][pairs_v], c[:-1, :][pairs_v])[0, 1]
        assert abs(corr_v) < 4.0 / math.sqrt(k)


class TestSeedRange:
    @pytest.mark.parametrize("seed", [2**64, 2**64 + 7, -1, -(2**63)])
    def test_seed_outside_key_range_is_rejected(self, seed):
        # masking to 64 bits would make 2^64 march seed 0 and -1 march 2^64 - 1
        with pytest.raises(UsageError):
            noise.generate(RotatedGrid(8), seed)

    def test_largest_seed_is_its_own_realization(self):
        top = noise.generate(RotatedGrid(8), 2**64 - 1)
        assert top.master_seed == 2**64 - 1
        assert not np.array_equal(top.cells, noise.generate(RotatedGrid(8), 0).cells)
