"""Counter-based generator: known answers, reference port, and fills."""

import math
import struct

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


# Taylor coefficients of cos x and of sin(x)/x in x^2, highest first, each
# correctly rounded from its exact rational: cos to x^16, sin/x to x^14
COS_POLY = [(-1) ** j / math.factorial(2 * j) for j in range(8, -1, -1)]
SIN_POLY = [0.0] + [(-1) ** j / math.factorial(2 * j + 1) for j in range(7, -1, -1)]
ANG_SCALE = 2.0**-53 * (2.0 * math.pi)


def float_bits(v):
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def bits_float(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


def ref_trig(k):
    # cos and sin of the angle word k < 2^53, the angle k 2^-53 2 pi taken
    # as q pi/2 + x with the draw's operations in the draw's order: the
    # nearest quadrant q and the remainder in integers, Horner in x^2 from
    # x^2 times the top coefficient, then the swap and sign flips on the bits
    q = (k + 2**50) >> 51
    x = (k - (q << 51)) * ANG_SCALE
    xx = x * x
    c = xx * COS_POLY[0] + COS_POLY[1]
    s = xx * SIN_POLY[0] + SIN_POLY[1]
    for a, b in zip(COS_POLY[2:], SIN_POLY[2:]):
        c = c * xx + a
        s = s * xx + b
    cb, sb = float_bits(c), float_bits(s * x)
    if q & 1:
        cb, sb = sb, cb
    cb ^= (((q + 1) >> 1) & 1) << 63
    sb ^= ((q >> 1) & 1) << 63
    return bits_float(cb), bits_float(sb)


def block_words(r):
    # the 53-bit Box-Muller words of a block: the log's (+1) and the angle's
    return (((r[0] << 32) | r[1]) >> 11) + 1, ((r[2] << 32) | r[3]) >> 11


def ref_pair(r):
    # rad*cos (even i) and rad*sin (odd i) of a block's words r
    u, k = block_words(r)
    rad = math.sqrt(-2.0 * math.log(u * 2.0**-53))
    cos, sin = ref_trig(k)
    return rad * cos, rad * sin


def ref_gauss(i, j, kind, seed):
    s = seed & 0xFFFFFFFFFFFFFFFF
    sigma = (i + j + 2**31) & U32
    q = ((i >> 1) + 2**31) & U32
    return ref_pair(ref_block((sigma, q, kind, 0), (s & U32, s >> 32)))[i & 1]


def impl_pairs(sig, q, kind, seeds):
    # (P, 2, R) normals of the blocks (sig, q, kind, 0) through _LayerNoise
    seeds = np.asarray(seeds, dtype=np.uint64)
    q = np.asarray(q, dtype=np.int64).reshape(-1, 1)
    noise = _kernels._LayerNoise(seeds, 2 * q.shape[0])
    return noise.blocks(sig, noise.counter_words(q, kind), kind).copy()


def impl_gauss(i, j, kind, seed):
    return _kernels.lattice_normals(i, j, (1, 1), kind, seed)[0, 0]


def np_pair(r):
    # ref_pair with numpy's log, as _LayerNoise takes it
    u, k = block_words(r)
    rad = np.sqrt(np.log(np.array([u * 2.0**-53])) * -2.0)[0]
    cos, sin = ref_trig(k)
    return rad * cos, rad * sin


class TestKnownAnswers:
    # 10-round philox4x32 vectors from the reference distribution
    def test_zero_vector(self):
        expect = (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)
        assert ref_block((0, 0, 0, 0), (0, 0)) == expect
        # counter words (0, 0) are sigma = q = -2^31: cells i = -2^32 and
        # i = -2^32 + 1 on anti-diagonal -2^31, kind 0, seed 0
        cos, sin = impl_pairs(-(2**31), [-(2**31)], 0, [0])[0, :, 0]
        assert (cos, sin) == np_pair(expect)
        assert cos == pytest.approx(ref_gauss(-(2**32), 2**31, 0, 0), rel=1e-12)
        assert sin == pytest.approx(ref_gauss(1 - 2**32, 2**31 - 1, 0, 0), rel=1e-12)

    def test_pi_vector(self):
        ctr = (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344)
        key = (0xA4093822, 0x299F31D0)
        expect = (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)
        assert ref_block(ctr, key) == expect


@given(
    st.integers(-(2**31), 2**31 - 1),
    st.integers(-(2**31), 2**31 - 1),
    st.integers(0, U32),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=200, deadline=None)
def test_block_matches_reference(sig, q, kind, seed):
    got = impl_pairs(sig, [q], kind, [seed])[0, :, 0]
    key = (seed & U32, seed >> 32)
    r = ref_block(((sig + 2**31) & U32, (q + 2**31) & U32, kind, 0), key)
    assert tuple(got) == np_pair(r)
    assert got == pytest.approx(ref_pair(r), rel=1e-12, abs=1e-300)


def test_array_rounds_match_reference():
    # an anti-diagonal per pair, as the fill passes them, for three seeds at
    # once: every state word then spans pairs and replications
    rng = np.random.default_rng(2024)
    sig = rng.integers(-(2**31), 2**31, size=(64, 1))
    q = rng.integers(-(2**31), 2**31, size=64)
    seeds = [0, 2**40 + 3, 2**64 - 1]
    got = impl_pairs(sig, q, 1, seeds)
    for p in range(64):
        ctr = ((int(sig[p, 0]) + 2**31) & U32, (int(q[p]) + 2**31) & U32, 1, 0)
        for r, seed in enumerate(seeds):
            assert tuple(got[p, :, r]) == np_pair(ref_block(ctr, (seed & U32, seed >> 32)))


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
    # the layer draw and the window fill gather the same blocks in
    # different orders: one anti-diagonal for many seeds, against pair rows
    # of a rectangle for one seed, with cos for even i and sin for odd i.
    # They must agree byte for byte on one anti-diagonal, whichever parity
    # the layer starts on
    seeds = np.array([99, 2**40 + 1], dtype=np.uint64)
    layer = _kernels._LayerNoise(seeds, 12)
    for ic0 in (-7, -2, 0, 5):
        z = layer.draw(3, ic0, 12, 0)
        for r, seed in enumerate(seeds):
            # rows i = ic0 + k, columns j = 3 - ic0 - 11 + c: sigma 3 is c = 11 - k
            rect = _kernels.lattice_normals(ic0, 3 - ic0 - 11, (12, 12), 0, int(seed))
            want = np.ascontiguousarray(np.fliplr(rect).diagonal())
            assert z[:, r].tobytes() == want.tobytes()


@given(st.integers(-(2**30), 2**30), st.integers(2, 40), st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_tabled_layer_draws_equal_the_blocks(h, L0, seed):
    # the replication kernels draw layers 2 .. L0-1 of their widest window
    # from counter words computed once per chunk; every layer must be the
    # draw whose words blocks gets computed on the spot, whichever parity
    # the window's first row has
    seeds = np.array([0, 2**64 - 1, seed], dtype=np.uint64)
    for i0 in (2 * h, 2 * h + 1):
        tabled = _kernels._LayerNoise(seeds, L0 - 1)
        alone = _kernels._LayerNoise(seeds, L0 - 1)
        s = 1
        for s, z in enumerate(tabled.layers(i0, L0), start=2):
            want = alone.draw(s - 2, i0 + s - 1, L0 - s, 0)
            assert z.shape == (L0 - s, 3)
            assert z.tobytes() == want.tobytes()
        assert s == max(1, L0 - 1)


# angle words at and beside the quadrant boundaries pi/4, 3 pi/4 and 5 pi/4
# (2^50, 2^51 + 2^50 = 3 2^50 ... ), at the quadrant centres and the ends
EDGE_WORDS = [0, 2**50 - 1, 2**50, 2**50 + 1, 2**51 - 1, 2**51, 2**51 + 1,
              3 * 2**50 - 1, 3 * 2**50, 3 * 2**50 + 1, 2**52, 2**53 - 1]


def unit_circle(k):
    # (cos, sin) of the angle words k through the draw's _unit_circle
    k = np.array(k, dtype=np.uint64).reshape(-1, 1)
    out = np.empty((2, *k.shape), dtype=np.uint64)
    scratch = np.empty_like(k), np.empty_like(k)
    return _kernels._unit_circle(out, scratch[0], k, scratch[1])[:, :, 0]


class TestUnitCircle:
    # the draw's cos and sin of the angle k 2^-53 2 pi, for angle words k
    @pytest.fixture(scope="class")
    def words(self):
        rng = np.random.default_rng(20261020)
        return np.concatenate([np.array(EDGE_WORDS, dtype=np.uint64),
                               rng.integers(0, 2**53, size=10**6, dtype=np.uint64)])

    def test_port_matches_the_draw_bit_for_bit(self, words):
        sample = words[:4000]
        cos, sin = unit_circle(sample)
        want = np.array([ref_trig(int(k)) for k in sample]).T
        assert cos.tobytes() == want[0].tobytes()
        assert sin.tobytes() == want[1].tobytes()

    def test_within_1e15_of_libm(self, words):
        cos, sin = unit_circle(words)
        angles = [int(k) * ANG_SCALE for k in words]
        assert np.abs(cos - np.array([math.cos(a) for a in angles])).max() <= 1e-15
        assert np.abs(sin - np.array([math.sin(a) for a in angles])).max() <= 1e-15

    def test_on_the_unit_circle(self, words):
        cos, sin = unit_circle(words)
        assert np.abs(cos * cos + sin * sin - 1.0).max() <= 1e-15


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
        # u1 = ((hi >> 11) + 1) * 2^-53 lies in (0, 1] for every 64-bit hi,
        # so the log stays finite at both ends
        for hi in (0, 2**64 - 1):
            u1 = ((hi >> 11) + 1) * 2.0**-53
            assert 0.0 < u1 <= 1.0 and math.isfinite(math.log(u1))
        # the extreme counter and key still give finite values
        z = impl_pairs(2**31 - 1, [2**31 - 1], U32, [2**64 - 1])
        assert np.all(np.isfinite(z))
        assert math.isfinite(impl_gauss(0, 0, 0, 0))

    def test_angle_scale_folds_two_pi(self):
        # TestUnitCircle takes the angle of a word k < 2^53 as k * (2^-53 *
        # 2 pi) in one multiply; k * 2^-53 is exact, so that rounds once,
        # as the two multiplies (k * 2^-53) * 2 pi of a scalar reference do
        rng = np.random.default_rng(53)
        k = np.concatenate([np.array([0, 1, 2**52, 2**53 - 1], dtype=np.uint64),
                            rng.integers(0, 2**53, size=10**5, dtype=np.uint64)])
        two_pi = 2.0 * math.pi
        folded = k * (2.0**-53 * two_pi)
        stepwise = (k * 2.0**-53) * two_pi
        assert folded.tobytes() == stepwise.tobytes()
        for v in (0, 1, 2**52, 2**53 - 1):
            assert v * (2.0**-53 * two_pi) == (v * 2.0**-53) * two_pi
