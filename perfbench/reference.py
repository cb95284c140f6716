"""A reference for kgqv's noise and marching, written apart from the program.

Plain Python integers and floats only: no numpy, nothing from kgqv.

* Philox4x32-10 as Salmon et al. (SC'11) define it, checked against the
  Random123 known-answer vectors before anything else uses it.
* The noise convention: the standard normal at lattice index (i, j) in
  stream `kind` comes from the block with counter
  ((i + j) + 2^31, (i >> 1) + 2^31, kind, 0) mod 2^32 and key
  (seed mod 2^32, seed >> 32); Box-Muller turns the block's two 64-bit
  halves into u1 in (0, 1] and u2 in [0, 1), and even i takes the
  cosine output, odd i the sine output.  Cells (stream 0) carry
  eps * z, layer-1 triangles (stream 1) carry (eps / sqrt 2) * z.
* The cell recurrence of the marching scheme, with layer 0 zero and
  layer 1 seeded from the mild equation over its boundary triangle:

      v(i+1,j+1) = b v(i+1,j) + b v(i,j+1) - b^2 v(i,j)
                   + (theta/2) F(v(i,j)) dW(i,j) + (1/2) c v(i,j) eps^2,

  b = exp(-a eps / (2 sqrt 2)), c = a^2/4 - m^2.

The program groups the same arithmetic differently, so agreement is to
round-off (the benchmark asks for 1e-12), not bit for bit.
"""

from __future__ import annotations

import math

U32 = 0xFFFFFFFF
U64 = 0xFFFFFFFFFFFFFFFF
_M0, _M1 = 0xD2511F53, 0xCD9E8D57
_W0, _W1 = 0x9E3779B9, 0xBB67AE85

# (counter, key, output) from Random123's kat_vectors for philox4x32 R=10
KNOWN_ANSWERS = (
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((U32, U32, U32, U32), (U32, U32), (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
)


def philox4x32_10(ctr, key):
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for rnd in range(10):
        if rnd:
            k0 = (k0 + _W0) & U32
            k1 = (k1 + _W1) & U32
        p0 = _M0 * c0
        p1 = _M1 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & U32, (p0 >> 32) ^ c3 ^ k1, p0 & U32
    return c0, c1, c2, c3


def check_known_answers(block=philox4x32_10):
    """Raise ValueError unless `block` reproduces every known answer."""
    for ctr, key, want in KNOWN_ANSWERS:
        got = tuple(block(ctr, key))
        if got != want:
            raise ValueError(
                f"Philox4x32-10{ctr}{key} gave {[hex(x) for x in got]}, "
                f"expected {[hex(x) for x in want]}"
            )


def normal(i, j, kind, seed):
    s = seed & U64
    r0, r1, r2, r3 = philox4x32_10(
        ((i + j + 2**31) & U32, ((i >> 1) + 2**31) & U32, kind, 0), (s & U32, s >> 32)
    )
    u1 = ((((r0 << 32) | r1) >> 11) + 1) * 2.0**-53
    u2 = (((r2 << 32) | r3) >> 11) * 2.0**-53
    rad = math.sqrt(-2.0 * math.log(u1))
    if i % 2 == 0:
        return rad * math.cos(2.0 * math.pi * u2)
    return rad * math.sin(2.0 * math.pi * u2)


def cell_increment(i, j, eps, seed):
    """White-noise increment over the cell with bottom vertex (i, j)."""
    return eps * normal(i, j, 0, seed)


def triangle_increment(i, eps, seed):
    """Increment over the layer-1 triangle below lattice point (i, 1 - i)."""
    return eps / math.sqrt(2.0) * normal(i, 1 - i, 1, seed)


def shifted_sine(c0=2.0, c1=1.0):
    return lambda u: c0 + c1 * math.sin(u)


def constant_one(u):
    return 1.0


def march(n, i_max, j_max, a, m, theta, F, seed):
    """The field on {i <= i_max, j <= j_max, i + j >= 0} as a dict (i, j) -> v."""
    eps = 1.0 / n
    b = math.exp(-a * eps / (2.0 * math.sqrt(2.0)))
    c = 0.25 * a * a - m * m
    i_min, j_min = -j_max, -i_max
    v = {}
    for s in range(0, i_max + j_max + 1):
        for i in range(max(i_min, s - j_max), min(i_max, s - j_min) + 1):
            j = s - i
            if s == 0:
                v[i, j] = 0.0
            elif s == 1:
                v[i, j] = 0.5 * theta * F(0.0) * triangle_increment(i, eps, seed)
            else:
                bot = v[i - 1, j - 1]
                v[i, j] = (
                    b * v[i, j - 1]
                    + b * v[i - 1, j]
                    - b * b * bot
                    + 0.5 * theta * F(bot) * cell_increment(i - 1, j - 1, eps, seed)
                    + 0.5 * c * bot * eps * eps
                )
    return v


def double_increment(v, i, j):
    """Increment of v over the cell with bottom vertex (i, j)."""
    return v[i + 1, j + 1] - v[i + 1, j] - v[i, j + 1] + v[i, j]


def increment_row(n, a, m, seed):
    """[double increment of the linear field at (1/2, 1/2), own cell increment]."""
    v = march(n, n, n, a, m, 1.0, constant_one, seed)
    h = n // 2
    return [double_increment(v, h, h), cell_increment(h, h, 1.0 / n, seed)]


def quad_var_pair(N, a, m, theta, F, seed):
    """(Q_N, sum F^2) over cells with bottom vertex in [0, N)^2."""
    v = march(N, N, N, a, m, theta, F, seed)
    q = sf = 0.0
    for i in range(N):
        for j in range(N):
            q += double_increment(v, i, j) ** 2
            sf += F(v[i, j]) ** 2
    return q, sf
