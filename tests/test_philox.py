"""Counter-based generator: known answers, reference port, and fills."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqv import _kernels

U32 = 0xFFFFFFFF


def ref_block(ctr, key):
    # standalone Philox4x32-10 port, kept deliberately dumb
    c = list(ctr)
    k = list(key)
    for _ in range(10):
        p0 = 0xD2511F53 * c[0]
        p1 = 0xCD9E8D57 * c[2]
        c = [
            ((p1 >> 32) ^ c[1] ^ k[0]) & U32,
            p1 & U32,
            ((p0 >> 32) ^ c[3] ^ k[1]) & U32,
            p0 & U32,
        ]
        k[0] = (k[0] + 0x9E3779B9) & U32
        k[1] = (k[1] + 0xBB67AE85) & U32
    return tuple(c)


def ref_gauss(i, j, kind, seed):
    s = seed & 0xFFFFFFFFFFFFFFFF
    sigma = (i + j + 2**31) & U32
    q = ((i >> 1) + 2**31) & U32
    r = ref_block((sigma, q, kind, 0), (s & U32, s >> 32))
    hi = (r[0] << 32) | r[1]
    lo = (r[2] << 32) | r[3]
    u1 = ((hi >> 11) + 1) * 2.0**-53
    u2 = (lo >> 11) * 2.0**-53
    rad = math.sqrt(-2.0 * math.log(u1))
    if (i & 1) == 0:
        return rad * math.cos(2.0 * math.pi * u2)
    return rad * math.sin(2.0 * math.pi * u2)


def impl_block(ctr, key):
    words = (np.array([v], dtype=np.uint64) for v in (*ctr, *key))
    return tuple(int(v[0]) for v in _kernels._philox_rounds_np(*words))


def impl_gauss(i, j, kind, seed):
    return _kernels.lattice_normals(i, j, (1, 1), kind, seed)[0, 0]


class TestKnownAnswers:
    # 10-round philox4x32 vectors from the reference distribution
    def test_zero_vector(self):
        expect = (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)
        assert impl_block((0, 0, 0, 0), (0, 0)) == expect
        assert ref_block((0, 0, 0, 0), (0, 0)) == expect

    def test_pi_vector(self):
        ctr = (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344)
        key = (0xA4093822, 0x299F31D0)
        expect = (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)
        assert impl_block(ctr, key) == expect
        assert ref_block(ctr, key) == expect


@given(
    st.tuples(*(st.integers(0, U32) for _ in range(4))),
    st.tuples(st.integers(0, U32), st.integers(0, U32)),
)
@settings(max_examples=200, deadline=None)
def test_block_matches_reference(ctr, key):
    assert impl_block(ctr, key) == ref_block(ctr, key)


def test_array_rounds_match_reference():
    rng = np.random.default_rng(2024)
    words = rng.integers(0, U32, size=(64, 6), dtype=np.uint64)
    got = _kernels._philox_rounds_np(*(words[:, c] for c in range(6)))
    for r in range(words.shape[0]):
        expect = ref_block(tuple(int(w) for w in words[r, :4]), (int(words[r, 4]), int(words[r, 5])))
        assert tuple(int(g[r]) for g in got) == expect


@given(
    st.integers(-(2**20), 2**20),
    st.integers(-(2**20), 2**20),
    st.integers(0, 1),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=150, deadline=None)
def test_gauss_matches_reference(i, j, kind, seed):
    got = impl_gauss(i, j, kind, seed)
    assert got == pytest.approx(ref_gauss(i, j, kind, seed), rel=1e-12, abs=1e-300)


def test_pair_and_parity_consistency():
    # the layer draw and the window fill are separate implementations of
    # the same pairing: a block per (sigma, i >> 1), cos for even i and sin
    # for odd i.  They must agree byte for byte on one anti-diagonal,
    # whichever parity the layer starts on
    seeds = np.array([99, 2**40 + 1], dtype=np.uint64)
    layer = _kernels._LayerNoise(seeds, 12)
    for ic0 in (-7, -2, 0, 5):
        z = layer.draw(3, ic0, 12, 0)
        for r, seed in enumerate(seeds):
            # rows i = ic0 + k, columns j = 3 - ic0 - 11 + c: sigma 3 is c = 11 - k
            rect = _kernels.lattice_normals(ic0, 3 - ic0 - 11, (12, 12), 0, int(seed))
            want = np.ascontiguousarray(np.fliplr(rect).diagonal())
            assert z[:, r].tobytes() == want.tobytes()


class TestFills:
    def test_lattice_matches_scalar_reference(self):
        got = _kernels.lattice_normals(-3, -5, (6, 7), 0, 123456789)
        for r in range(6):
            for c in range(7):
                assert got[r, c] == pytest.approx(
                    ref_gauss(-3 + r, -5 + c, 0, 123456789), rel=1e-12
                )

    def test_triangles_match_scalar_reference(self):
        got = _kernels.triangle_normals(-4, 9, 42)
        for k in range(9):
            i = -4 + k
            assert got[k] == pytest.approx(ref_gauss(i, 1 - i, 1, 42), rel=1e-12)

    def test_fill_is_deterministic_and_windowed(self):
        a = _kernels.lattice_normals(-2, -2, (8, 8), 0, 7)
        b = _kernels.lattice_normals(-2, -2, (8, 8), 0, 7)
        assert np.array_equal(a, b)
        # sub-rectangle of a larger fill is bit-identical
        c = _kernels.lattice_normals(0, 1, (3, 4), 0, 7)
        assert np.array_equal(c, a[2:5, 3:7])

    def test_streams_and_seeds_differ(self):
        a = _kernels.lattice_normals(0, 0, (16, 16), 0, 7)
        b = _kernels.lattice_normals(0, 0, (16, 16), 1, 7)
        c = _kernels.lattice_normals(0, 0, (16, 16), 0, 8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDistribution:
    def test_moments(self):
        z = _kernels.lattice_normals(0, 0, (1000, 1000), 0, 555).ravel()
        n = z.size
        assert abs(z.mean()) < 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)
        # kurtosis pins the gaussian against e.g. uniform or laplace
        assert abs((z**4).mean() - 3.0) < 4.0 * math.sqrt(96.0 / n)

    def test_tails_are_sane(self):
        z = _kernels.lattice_normals(0, 0, (1000, 1000), 0, 556).ravel()
        assert np.all(np.abs(z) < 7.0)
        frac3 = np.mean(np.abs(z) > 3.0)
        assert 0.5 * 0.0027 < frac3 < 2.0 * 0.0027

    def test_log_argument_never_zero(self):
        # u1 = ((hi >> 11) + 1) * 2^-53 lies in (0, 1] by construction;
        # the extreme block must still give a finite value
        big = (_kernels._MASK32, _kernels._MASK32, _kernels._MASK32, _kernels._MASK32)
        r = impl_block(big, (U32, U32))
        hi = (r[0] << 32) | r[1]
        u1 = ((hi >> 11) + 1) * 2.0**-53
        assert 0.0 < u1 <= 1.0
        assert math.isfinite(impl_gauss(0, 0, 0, 0))
