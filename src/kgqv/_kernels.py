"""Counter-based Gaussian lattice noise and anti-diagonal marching kernels.

One vectorized numpy path and one layer loop, _march_layers, the sole
owner of F's evaluation, the noise drive, the own-bottom weight and
the rotation of the layer buffers: every march advances a whole
anti-diagonal layer at a time through one cell step, _step_np, on
contiguous buffers reused from layer to layer, and its callers only
bring the noise and read the layers.  march_points records points and
march_qv adds up Q_N and the sum of F^2 on (slot, replication) buffers
over Philox layers drawn in the kernel; march_window steps 1-D slot
buffers over noise.generate's stored increments, read and written
_LAYER_BLOCK layers at a time, and march_split keeps only the parts
v_L and v_C, which step beside v on its bottoms and drive.  The loop
can step several windows in lock-step from one noise draw, as march_qv
does for the resolutions of a quadratic-variation sweep and
march_points for the levels of linear_variance: a normal is a pure
function of its lattice index, so each layer is drawn once, for the
widest window, and every other window steps on a row slice of that
draw, weighted by its own eps.  A window carries its whole model (a,
m, theta and F), and may repeat: the coupled linear twin of a march is
the same window with theta 1 and F ident 1, and quadvar_rate's linear
part (a = 0, m = 1) steps on its nonlinear part's draw.  Every other
window must nest in the widest: at layer s the draw covers cells
i0 + s - 1 .. i0 + L0 - 2 of the widest window (L0 rows from
i_min = i0), and a window (L, i_min) needs i_min + s - 1 .. i_min + L - 2,
inside for every s exactly when i0 <= i_min and i_min + L <= i0 + L0.
The [0,N]^2 windows (L = 2N + 1, i_min = -N) nest for every N up to
the widest, and so do linear_variance's stencil windows at (1/2, 1/2)
(L = n + 3, i_min = -(n/2 + 1)) for every n up to the finest.
Results are bit-reproducible regardless of window shape, chunking or
thread schedule, and leave the module only when finite.

The layer loop leaves out the passes that cannot change a bit in the
experiments' usual models: F ident 1 and a weight of 1.  The loop forms
every march's noise drive as (F(bot) w) dW, with w = theta/2 on stored
increments; on raw normals it folds eps into the weight, w = (theta/2)
eps, which rounds as (F theta/2)(z eps) since every caller's eps is a
power of two (unless F theta/2 eps falls below the normal range).  F
ident 1 is never evaluated (the drive is w dW, and march_qv adds its
sum of F^2 as a count of ones), and neither a weight w of exactly 1
nor the slope of shifted_sine at 1 is multiplied in: x * 1.0 is x, bit
for bit.  The drift b v eps^2/2 enters only through the cell's own-bottom
weight beta^2 - drh, with drh = b eps^2/2, formed once per window.

Noise convention: the standard normal attached to lattice index (i, j)
and stream `kind` comes from the Philox4x32-10 block with counter
((i + j) + 2^31, (i >> 1) + 2^31, kind, 0) and key (seed_lo, seed_hi);
the block's two Box-Muller outputs are split by the parity of i.  Box-
Muller takes the 53-bit words u = x0 x1 >> 11 and k = x2 x3 >> 11 of
the block's halves to rad = sqrt(-2 log((u + 1) 2^-53)) and the angle
k 2^-53 2 pi, whose cosine and sine come from IEEE arithmetic, not from
libm: with q = (k + 2^50) >> 51 the nearest quadrant and x = (k - q
2^51) (2^-53 2 pi) in [-pi/4, pi/4], Taylor cos x to x^16 and sin x to
x^15 (sin x / x to x^14) by Horner in x^2, rotated by q on the float
bits (swapped where q is odd; cos negated where q is 1 or 2, sin where
q is 2 or 3), each within 1e-15 of libm's.  The normals then depend on
numpy's log and sqrt besides IEEE multiply, add and bit operations.  The
value is a pure function of (seed, i, j, kind).  Keying by
(anti-diagonal, i >> 1) lets the replication kernels, which consume the
cells of one anti-diagonal in increasing i, use both outputs of almost
every block instead of discarding the second.  One implementation,
_LayerNoise.blocks, runs the rounds and the Box-Muller tail: the
replication kernels draw a whole layer for a chunk of replications
through _LayerNoise.layers, triangle_normals draws layer 1 through
_LayerNoise.draw for one seed, cell_normals draws single cells for a
chunk of replications, and lattice_normals draws its rectangle
_FILL_PAIR_ROWS pair rows at a time so that a block's temporaries stay
in cache; noise.generate draws only the pairs on or above the initial
line.  _LayerNoise says how a draw keeps its state words and scratch,
and so why blocks and draw return views that the next call overwrites.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, UsageError

_SQRT2 = math.sqrt(2.0)

# diffusion coefficient menu, shared with solver.DiffusionCoefficient
FID_CONSTANT_ONE = 0
FID_AFFINE = 1
FID_SHIFTED_SINE = 2
FID_CLIPPED_LINEAR = 3

# Philox4x32-10 multipliers and Weyl key increments.
_PM0 = np.uint64(0xD2511F53)
_PM1 = np.uint64(0xCD9E8D57)
_PW0 = np.uint64(0x9E3779B9)
_PW1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_ONE = np.uint64(1)
_SH51 = np.uint64(51)
_SH63 = np.uint64(63)
# the stacked rounds' multipliers [PM0, PM1]
_PM = np.array([_PM0, _PM1])[:, None, None]
# Box-Muller's scales of the 53-bit words: the uniform's 2^-53 and the
# angle's 2^-53 2 pi
_U_SCALE = 2.0**-53
_ANG_SCALE = 2.0**-53 * (2.0 * math.pi)
_HALF_QUADRANT = np.uint64(2**50)  # the angle word of pi/4
# Taylor coefficients of [cos x, sin(x)/x] in x^2, highest first: cos to
# x^16 and sin/x to x^14 (its x^16 entry is 0), as a stacked (2, 1, 1) row
# per Horner step
_TRIG_POLY = np.array(
    [[(-1) ** j / math.factorial(2 * j), (-1) ** j / math.factorial(2 * j + 1) if j < 8 else 0.0]
     for j in range(8, -1, -1)]
)[:, :, None, None]
_IOFF = 2147483648  # 2^31 recentres signed lattice indices into u32
_IMASK = 4294967295
_SEED_LIMIT = 2**64  # seeds are 64-bit Philox keys
# lattice resolutions: a march at n reaches anti-diagonals below 2n, which
# stay under 2^31 and so fit the u32 counter word once recentred
_N_LIMIT = 2**30
# blocks that keep the stored-window work in cache: anti-diagonal layers
# per block of _march_stored, and pair rows per block of the stored fill
_LAYER_BLOCK = 16
_FILL_PAIR_ROWS = 16


def _seed_array(seeds):
    """Seeds as contiguous uint64 keys; nothing outside [0, 2^64) is cast."""
    # a list goes in as objects: numpy would turn a mix of large and small
    # Python ints into float64
    arr = seeds if isinstance(seeds, np.ndarray) else np.array(seeds, dtype=object)
    kind = arr.dtype.kind
    if kind in "iu" or (kind == "O" and all(isinstance(s, (int, np.integer)) for s in arr.flat)):
        if arr.size == 0 or (arr.min() >= 0 and arr.max() < _SEED_LIMIT):
            return np.ascontiguousarray(arr, dtype=np.uint64)
    raise UsageError("seeds must be integers in [0, 2^64)")


# a march that overflows raises NumericError on its result, not warnings
_quiet = np.errstate(over="ignore", invalid="ignore")


def _finite(*arrays):
    """Let marched results leave the module only when every value is finite."""
    for x in arrays:
        if not np.isfinite(x).all():
            raise NumericError("marched field is not finite: the solution blew up")


def _rates(eps, a, m, theta):
    """Cell decay beta, noise weight theta/2 and drift weight drh = b eps^2/2.

    drh is 0 at critical damping a = 2m; the cell's own-bottom weight is
    beta^2 - drh.
    """
    beta = math.exp(-a * eps / (2.0 * _SQRT2))
    drh = 0.5 * (0.25 * a * a - m * m) * eps * eps
    return beta, 0.5 * theta, drh


def _f_eval_np(fid, p0, p1, x, out=None):
    """F(x) elementwise, into `out` when given, else into a new array."""
    out = np.empty(np.shape(x)) if out is None else out
    if fid == FID_CONSTANT_ONE:
        out[...] = 1.0
    elif fid == FID_AFFINE:
        np.multiply(x, p1, out=out)
        out += p0
    elif fid == FID_SHIFTED_SINE:
        np.sin(x, out=out)
        if p1 != 1.0:
            out *= p1
        out += p0
    else:
        np.clip(x, -p0, p0, out=out)
        out += p1
    return out


# ---------------------------------------------------------------------------
# noise


def _unit_circle(out, q, k, x):
    """[cos, sin] of the 53-bit angle words k, as the float64 view of `out`.

    The map of the module docstring: the quadrant q and the remainder
    exact in integers, the remainder's angle x rounded once, Taylor
    cos x and sin x / x by Horner in x^2 as one stacked pass, then the
    rotation by q on the float bits (q = 4 is q = 0).  `out` is a
    (2, ...) uint64 block, and q, k and x uint64 blocks of k's shape, all
    scratch: q takes the quadrants, k the remainders, then x^2 and a
    temporary, x the remainders' angles and then a mask.
    """
    x1, x3 = out
    np.add(k, _HALF_QUADRANT, out=q)
    q >>= _SH51
    np.left_shift(q, _SH51, out=x1)
    k -= x1
    xf = x.view(np.float64)
    np.multiply(k.view(np.int64), _ANG_SCALE, out=xf)
    xx = k.view(np.float64)
    np.multiply(xf, xf, out=xx)
    trig = out.view(np.float64)
    np.multiply(xx, _TRIG_POLY[0], out=trig)
    trig += _TRIG_POLY[1]
    for c in _TRIG_POLY[2:]:
        trig *= xx
        trig += c
    trig[1] *= xf
    # where q is odd, sin x changes sign and the words swap, by a masked
    # xor whose mask is q's low bit spread by an arithmetic shift; then
    # both change sign where q is 2 or 3.  So cos changes sign where q is
    # 1 or 2 and sin where q is 2 or 3, as the swap then the flips would
    np.left_shift(q, _SH63, out=x)
    x3 ^= x
    signed = x.view(np.int64)
    signed >>= 63
    np.bitwise_xor(x1, x3, out=k)
    k &= x
    out ^= k
    np.right_shift(q, _ONE, out=k)
    k <<= _SH63
    out ^= k
    return trig


class _LayerNoise:
    """Philox blocks and their normals for a chunk of replications.

    Arrays are laid out (pair, replication).  One Philox block per
    (sigma, i >> 1) pair serves both cells of the pair: rad*cos fills
    the even-i slot and rad*sin the odd-i slot, so a layer costs one
    block per two cells.  The state words live in three flat scratch
    buffers, allocated once and reused from call to call, each read as
    a stacked (2, P, R) block on its first 2*P*R entries: H = [x0, x2],
    Lo = [x1, x3] and the products T.  From round four on a round is
    five calls for both halves at once, since each half's new high word
    takes the other half's product.  Rounds 1 and 2 start from the
    counter words, hi and lo of PM0 x0, which do not depend on sig:
    blocks takes them from a table's rows or from x2's and x3's own.
    With a scalar sig, as a layer draw has, some state words are
    constant along one axis until round four; those stay at their
    smaller shapes and cost no full pass.
    Box-Muller runs in the memory of the words it has used up: the
    radii in T, the trig values in Lo (_unit_circle's scratch is x0, x2
    and T's second half) and the (P, 2, R) normals in H, so what blocks
    and draw return is a view of the scratch, to be read before the
    next call.
    """

    def __init__(self, seeds, max_count):
        R = seeds.shape[0]
        k0 = seeds & _MASK32
        k1 = seeds >> _SH32
        keys = []
        for _ in range(10):
            keys.append((k0, k1))
            k0 = (k0 + _PW0) & _MASK32
            k1 = (k1 + _PW1) & _MASK32
        # rounds four to ten xor [k0, k1] into H as one (2, 1, R) key
        self.keys = keys[:3]
        self.stacked = [np.stack(k)[:, None] for k in keys[3:]]
        size = 2 * (max_count // 2 + 1) * R
        self.scratch = [np.empty(size, dtype=np.uint64) for _ in range(3)]
        self.reps = R

    def _state(self, P):
        """The scratch as stacked (2, P, R) blocks H, Lo and T."""
        return (w[: 2 * P * self.reps].reshape(2, P, self.reps) for w in self.scratch)

    def counter_words(self, q, kind, out=None):
        """hi and lo of PM0 x0 for the blocks (., q, kind, 0), each (P, R).

        x0 = q ^ hi(PM1 kind) ^ k0 is round 1's first word; neither
        depends on the anti-diagonal.  `q` is a (P, 1) array of i >> 1
        values.  Without `out` the words go to the scratch rows where
        blocks reads them, in place of x2 and x3.
        """
        if out is None:
            H, Lo, _ = self._state(q.shape[0])
            out = H[1], Lo[1]
        hi, lo = out
        q = ((q + _IOFF) & _IMASK).astype(np.uint64)
        np.bitwise_xor(q ^ ((int(_PM1) * kind) >> 32), self.keys[0][0], out=lo)
        lo *= _PM0
        np.right_shift(lo, _SH32, out=hi)
        lo &= _MASK32
        return hi, lo

    def blocks(self, sig, words, kind):
        """(P, 2, R) rad*cos and rad*sin of the blocks (sig, q, kind, 0).

        `words` are counter_words(q, kind) for a (P, 1) array of i >> 1
        values, and `sig` an integer or an array of anti-diagonals that
        broadcasts with q.  The result is a view of the scratch that the
        next call overwrites.
        """
        hi, lo = words
        P = hi.shape[0]
        H, Lo, T = self._state(P)
        x0, x2 = H
        x1, x3 = Lo
        t0, t1 = T
        keys = self.keys
        # round 1 takes the counter (sig, q, kind, 0); its x0 is in the
        # counter words.  The shapes below are for a scalar sig; an array
        # sig, as the fill passes, widens the words it reaches to one per pair
        p0 = _PM0 * np.asarray((sig + _IOFF) & _IMASK, dtype=np.uint64)
        c1 = (int(_PM1) * kind) & _IMASK
        c2 = (p0 >> _SH32) ^ keys[0][1]
        c3 = p0 & _MASK32
        # round 2: x0's product is in the counter words, c2 per
        # replication, c1 and c3 scalars
        r1 = _PM1 * c2
        c0 = (r1 >> _SH32) ^ c1 ^ keys[1][0]
        c1 = r1 & _MASK32
        np.bitwise_xor(hi, keys[1][1] ^ c3, out=x2)
        # round 3: c0 and c1 per replication, c2 full; its c3, per
        # replication, goes into x3 so that round 4 runs in the loop
        r0 = _PM0 * c0
        np.multiply(x2, _PM1, out=t1)
        np.right_shift(t1, _SH32, out=x0)
        x0 ^= c1 ^ keys[2][0]
        np.bitwise_and(t1, _MASK32, out=x1)
        np.bitwise_xor(lo, (r0 >> _SH32) ^ keys[2][1], out=x2)
        np.bitwise_and(r0, _MASK32, out=x3)
        # rounds 4-10: T = [PM0 x0, PM1 x2], H = hi(T reversed) ^ Lo ^ key,
        # Lo = lo(T reversed)
        for key in self.stacked:
            np.multiply(H, _PM, out=T)
            np.right_shift(T[::-1], _SH32, out=H)
            H ^= Lo
            H ^= key
            np.bitwise_and(T[::-1], _MASK32, out=Lo)
        # Box-Muller on the 53-bit halves [x0 x1, x2 x3]: u1 = (k + 1)
        # 2^-53 in (0, 1] keeps the log finite
        H <<= _SH32
        H |= Lo
        H >>= _SH11
        x0 += _ONE
        rad = T[0].view(np.float64)
        np.multiply(x0, _U_SCALE, out=rad)
        np.log(rad, out=rad)
        rad *= -2.0
        np.sqrt(rad, out=rad)
        # cos and sin of the angle words x2, in Lo's memory
        trig = _unit_circle(Lo, x0, x2, T[1])
        # the normals go to H's memory pair by pair, so that the 2P cells
        # of P pairs are 2P contiguous rows
        z = H.view(np.float64).reshape(P, 2, self.reps)
        np.multiply(rad[:, None], trig.transpose(1, 0, 2), out=z)
        return z

    def draw(self, sig, ic0, count, kind, words=None):
        """(count, R) normals for cells i = ic0 + k, j = sig - i.

        `words` holds the counter words of q = ic0 >> 1 and on, at least
        as many as the cells' pairs, or is computed here when not given.
        Rows of the blocks' pairs, so again a view of the scratch.
        """
        q0 = ic0 >> 1
        P = ((ic0 + count - 1) >> 1) - q0 + 1
        if words is None:
            words = self.counter_words(q0 + np.arange(P)[:, None], kind)
        z = self.blocks(sig, (words[0][:P], words[1][:P]), kind)
        first = ic0 & 1
        return z.reshape(2 * P, self.reps)[first : first + count]

    def layers(self, i0, L0):
        """The kind-0 normals of layers 2 .. L0-1 of the window (L0, i0).

        Layer s covers cells i0 + s - 1 .. i0 + L0 - 2 of anti-diagonal
        s - 2.  The counter words of every pair these layers reach are
        computed once, into a table of their own, and each layer's draw
        slices them; each yield is a view of the scratch.
        """
        qt = (i0 + 1) >> 1
        q = qt + np.arange(((i0 + L0 - 2) >> 1) - qt + 1)[:, None]
        table = np.empty((2, q.shape[0], self.reps), dtype=np.uint64)
        self.counter_words(q, 0, out=table)
        for s in range(2, L0):
            ic0 = i0 + s - 1
            yield self.draw(s - 2, ic0, L0 - s, 0, table[:, (ic0 >> 1) - qt :])


def lattice_normals(i0, j0, shape, kind, seed, sig_min=None):
    """Standard normals for lattice indices (i0+r, j0+c), any rectangle.

    Pair (q, t) holds the cells (2q, t) and (2q+1, t-1) of anti-diagonal
    2q + t.  The pair grid is drawn _FILL_PAIR_ROWS pair rows at a time,
    each block straight into its output rows.  Only the pairs with
    i + j >= sig_min are drawn and the cells below are +0.0; sig_min
    defaults to i0 + j0, the lowest anti-diagonal of the rectangle.
    """
    rows, cols = shape
    lo = i0 + j0 if sig_min is None else sig_min
    first = i0 & 1
    P = (first + rows + 1) // 2
    z = np.empty((P, 2, cols))
    t = j0 + np.arange(cols + 1, dtype=np.int64)
    pairs = np.empty((2, _FILL_PAIR_ROWS, cols + 1))
    noise = _LayerNoise(_seed_array([seed]), 2 * _FILL_PAIR_ROWS * (cols + 1))
    for p in range(0, P, _FILL_PAIR_ROWS):
        q = (i0 >> 1) + np.arange(p, min(p + _FILL_PAIR_ROWS, P), dtype=np.int64)[:, None]
        sig = 2 * q + t
        on = sig >= lo
        qs = np.broadcast_to(q, sig.shape)[on]
        cos, sin = pairs[:, : q.shape[0]]
        cos[:] = sin[:] = 0.0
        words = noise.counter_words(qs[:, None], kind)
        cos[on], sin[on] = noise.blocks(sig[on][:, None], words, kind)[:, :, 0].T
        z[p : p + q.shape[0], 0] = cos[:, :cols]
        z[p : p + q.shape[0], 1] = sin[:, 1:]
    return z.reshape(-1, cols)[first : first + rows]


def triangle_normals(i0, count, seed):
    """Standard normals for the layer-1 points (i0+k, 1-(i0+k))."""
    return _LayerNoise(_seed_array([seed]), count).draw(1, i0, count, 1)[:, 0]


def cell_normals(seeds, pts_i, pts_j):
    """(R, K) standard normals of the cells (pts_i[k], pts_j[k]), a row per seed."""
    seeds = _seed_array(seeds)
    i = np.asarray(pts_i, dtype=np.int64)
    sig = i + np.asarray(pts_j, dtype=np.int64)
    noise = _LayerNoise(seeds, 2 * i.shape[0])
    z = noise.blocks(sig[:, None], noise.counter_words((i >> 1)[:, None], 0), 0)
    return z[np.arange(i.shape[0]), i & 1].T


def _step_np(X, A, B, c, drive, beta, own, tmp):
    """X[:c] = beta*(A[k]+A[k+1]) - own*bot + drive, in place.

    The one cell update: _march_layers' on contiguous (slot, ...)
    buffers, rows being slots k of a layer and bot = B[k+1], with the
    own-bottom weight own = beta^2 - drh, and that of split's side
    march on (slot, part) buffers, whose parts step with own = beta^2.
    """
    x = X[:c]
    t = tmp[:c]
    np.add(A[:c], A[1 : c + 1], out=x)
    x *= beta
    np.multiply(B[1 : c + 1], own, out=t)
    x -= t
    x += drive


# ---------------------------------------------------------------------------
# the layer loop


def _march_layers(windows, z1, draws, scaled=False):
    """One march per window, yielded layer by layer: w, s, X, A, B, fb, drive.

    `windows` lists (L, i_min, eps, a, m, theta, fid, p0, p1, f0) per
    march: a window carries its whole model, and may repeat.  All step
    on the noise of the widest (the first of the widest on a tie), in
    which every other must nest (see the module docstring), given by the
    caller as z1, its L0 - 1 layer-1 values, and `draws`, which yields
    its layers 2 .. L0-1, slot first: raw normals, or with `scaled`
    stored increments that already carry the triangle's eps/sqrt 2 and
    the cell's eps.  Layer s = 1 .. L-1 of each window is yielded in
    list order, w being the window's place in it: X is layer s, A and B
    the two before it, (slot k, *z1.shape[1:]) buffers of which the
    first c = L - s slots of X are live; fb = F(B[1 : c+1]) are the
    layer's bottom coefficients, None for F ident 1, which is never
    evaluated, and drive its noise drive (both None on layer 1, which
    the boundary triangles seed).  Raw normals need a power-of-two eps,
    which the drive folds into the weight.  Buffers are reused, so a
    yield must be read before the next one is asked for.
    """
    L0, i0 = max(windows, key=lambda w: w[0])[:2]
    fb_buf, drive_buf, tmp = (np.empty((L0, *z1.shape[1:])) for _ in range(3))
    marches = []
    for w, (L, i_min, eps, a, m, theta, fid, p0, p1, f0) in enumerate(windows):
        o = i_min - i0  # the window's first row in the widest window's noise
        beta, th2, drh = _rates(eps, a, m, theta)
        tri, weight = (1.0, th2) if scaled else (eps / _SQRT2, th2 * eps)
        B, A, X = field = [np.zeros((L + 1, *z1.shape[1:])) for _ in range(3)]
        # layer 1, grouped as (theta/2 F(0)) (tri z) on raw and stored
        # noise alike, so both give the same bytes (1.0 * z is z)
        A[: L - 1] = (th2 * f0) * (tri * z1[o : o + L - 1])
        yield w, 1, A, B, X, None, None  # the layers below 1 are zero
        coef = None if fid == FID_CONSTANT_ONE else (fid, p0, p1)
        marches.append((L, o, weight, beta, beta * beta - drh, coef, field))
    for s in range(2, L0):
        z = next(draws)
        for w, (L, o, weight, beta, own, coef, field) in enumerate(marches):
            if s >= L:
                continue
            c = L - s
            B, A, X = field
            drive, dW = drive_buf[:c], z[o : o + c]
            fb = None if coef is None else _f_eval_np(*coef, B[1 : c + 1], out=fb_buf[:c])
            # the drive (F(bot) w) dW, with neither F ident 1 nor a w of 1 multiplied in
            if fb is None:
                np.multiply(dW, weight, out=drive)
            elif weight == 1.0:
                np.multiply(fb, dW, out=drive)
            else:
                np.multiply(fb, weight, out=drive)
                drive *= dW
            _step_np(X, A, B, c, drive, beta, own, tmp)
            yield w, s, X, A, B, fb, drive
            field[:] = A, X, B


# ---------------------------------------------------------------------------
# marching over stored noise arrays (full window out)


def _layers(flat, L, s0, K):
    """Anti-diagonal layers s0 .. s0+K-1 of a flat L x L array, by window row.

    Entry [ii - s0, r] is a[ii, s0+r + L-1-ii], slot ii - s0 - r of
    layer s0 + r, so each row is K adjacent values.  Only r <= ii - s0
    lies in that layer: the other entries, in the first K-1 rows, alias
    cells of the next row on or below layer 0.  With s0 + K <= L the
    view stays inside the array.
    """
    step = flat.strides[0]
    return np.lib.stride_tricks.as_strided(
        flat[s0 * L + L - 1 :], (L - s0, K), ((L - 1) * step, step)
    )


def _stored_rows(cells):
    """Layers 2 .. L-1's cell increments, slots 1 .. L-s of anti-diagonal s-2.

    Read from the L x L `cells` row by row, a block of _LAYER_BLOCK
    layers at a time into a small buffer; each yield is a column of it.
    """
    L = cells.shape[0]
    flat = np.ascontiguousarray(cells, dtype=float).reshape(-1)
    dws = np.empty((L, _LAYER_BLOCK))  # a block's increments, by window row
    for s0 in range(2, L, _LAYER_BLOCK):
        k = min(_LAYER_BLOCK, L - s0)
        dws[s0 - 2 :, :k] = _layers(flat, L, s0 - 2, k)
        for r in range(k):
            yield dws[s0 + r - 1 : L - 1, r]


def _split_parts(layers, L, eps, a, m, theta):
    """Layers (w, s, [v_L, v_C]) of split's side march beside v's layers.

    v_C steps on v's noise drive and v_L on the drift drive drh v(bottom),
    as the columns of (slot, part) buffers, both with own-bottom weight
    beta^2.  v steps with beta^2 - drh on the same drh, so v_L + v_C
    reproduces v to round-off.
    """
    beta, _, drh = _rates(eps, a, m, theta)
    B, A, X, drive, tmp = (np.zeros((L + 1, 2)) for _ in range(5))
    for w, s, v, _, vb, _, d in layers:
        c = L - s
        if s == 1:
            X[:c, 1] = v[:c]  # v_C starts from v's layer 1, v_L from zero
        else:
            np.multiply(vb[1 : c + 1], drh, out=drive[:c, 0])
            drive[:c, 1] = d
            _step_np(X, A, B, c, drive[:c], beta, beta * beta, tmp)
        yield w, s, X
        B, A, X = A, X, B


@_quiet
def _march_stored(cells, tris, eps, a, m, theta, fid, p0, p1, f0, split=False):
    """[v] marched over stored increments, or with `split` its parts [v_L, v_C].

    v steps through _march_layers on 1-D slot buffers.  The kept fields'
    layers are staged _LAYER_BLOCK at a time and each block written row
    by row into the L x L results, each value once, so no layer op walks
    a window anti-diagonal (a stride of L-1 values).
    """
    L = cells.shape[0]
    window = (L, 0, eps, a, m, theta, fid, p0, p1, f0)
    tris = np.asarray(tris, dtype=float)
    layers = _march_layers([window], tris, _stored_rows(cells), scaled=True)
    layers = _split_parts(layers, L, eps, a, m, theta) if split else layers
    fields = [np.zeros((L, L)) for _ in range(2 if split else 1)]
    K = _LAYER_BLOCK
    tri = np.tri(K, dtype=bool)  # [ii - s0, r] of a block's first rows that lie in a layer
    stage = np.empty((len(fields), L, K))  # a block's layers, by window row
    for _, s, X, *_ in layers:
        r = (s - 1) % K
        stage[:, s:, r] = X[: L - s].T
        if r == K - 1 or s == L - 1:
            s0, k = s - r, r + 1
            for f, field in enumerate(fields):
                out = _layers(field.reshape(-1), L, s0, k)
                out[k - 1 :] = stage[f, s0 + k - 1 :, :k]
                np.copyto(out[: k - 1], stage[f, s0 : s0 + k - 1, :k], where=tri[: k - 1, :k])
    _finite(*fields)
    return fields


def march_window(cells, tris, eps, a, m, theta, fid, p0, p1, f0):
    """March one field over a stored noise realization; returns L x L.

    `cells` and `tris` hold actual increments (already scaled); entry
    [ii, jj] corresponds to lattice (i_min+ii, j_min+jj), row-major, with
    values below the initial anti-diagonal left at zero.
    """
    return _march_stored(cells, tris, eps, a, m, theta, fid, p0, p1, f0)[0]


# ---------------------------------------------------------------------------
# batched marching with in-kernel noise (replication workhorses)


def _philox_noise(seeds, windows):
    """_march_layers' noise for a chunk of seeds, drawn for the widest window."""
    L0, i0 = max(windows, key=lambda w: w[0])[:2]
    if any(i_min < i0 or i_min + L > i0 + L0 for L, i_min, *_ in windows):
        raise UsageError("every window must nest in the widest")
    noise = _LayerNoise(seeds, L0 - 1)
    # layer 1 is a view of the scratch, which the first layer draw overwrites
    return noise.draw(1, i0 + 1, L0 - 1, 1), noise.layers(i0, L0)


@_quiet
def march_points(
    seeds, L, i_min, eps, a, m, theta, fid, p0, p1, f0, pts_i, pts_j, *, coarser=(),
):
    """March one replication per seed, keeping only requested values.

    Returns an (R, K) array: column t holds the marched field at lattice
    point (pts_i[t], pts_j[t]), which must lie in the window on or above
    the initial line (where the field is 0).  Memory is O(L) per
    replication; chunk the seeds upstream.

    `coarser` lists further windows, wider or narrower than the first,
    each the argument list of a march_points call of its own after
    `seeds`, marched in lock-step from the widest window's noise draw,
    in which every other must nest.  Their columns follow the first
    window's in the order given, each block equal byte for byte to
    march_points on that window alone.  The coupled linear twin of a
    march is the same window with theta 1 and F ident 1.
    """
    seeds = _seed_array(seeds)
    runs = ((L, i_min, eps, a, m, theta, fid, p0, p1, f0, pts_i, pts_j), *coarser)
    windows = [run[:-2] for run in runs]
    noise = _philox_noise(seeds, windows)  # which checks that the windows nest
    at_layer = []  # per window: the requested points by layer, as (column, slot)
    width = 0
    for L, i_min, *_, pi, pj in runs:
        pi, pj = (np.ascontiguousarray(p, dtype=np.int64) for p in (pi, pj))
        if pi.shape != pj.shape:
            raise UsageError("march_points needs as many pts_i as pts_j")
        s, kt = pi + pj, -i_min - pj
        if not ((s >= 0) & (kt >= 0) & (kt < L - s)).all():
            raise UsageError("every point must lie in its window, on or above the initial line")
        cols = {}
        for t in range(s.shape[0]):
            cols.setdefault(int(s[t]), []).append((width + t, int(kt[t])))
        at_layer.append(cols)
        width += s.shape[0]
    out = np.zeros((seeds.shape[0], width))
    for w, s, X, *_ in _march_layers(windows, *noise):
        for t, kt in at_layer[w].get(s, ()):
            out[:, t] = X[kt]
    _finite(out)
    return out


@_quiet
def march_qv(seeds, N, theta, fid, p0, p1, f0, a, m, *, coarser=()):
    """Quadratic-variation pass: march on the [0,N]^2 dependency window.

    Returns (R, 2): column 0 the sum of squared raw double increments
    over cells with bottom vertex in [0,N)^2, column 1 the matching sum
    of F^2 at the bottom vertices.  Cells are taken anti-diagonal by
    anti-diagonal in marching order, in increasing i within one: the
    cells of one anti-diagonal are added one by one into a partial sum,
    which is then added to the running total, whatever the chunk of
    seeds.

    `coarser` lists further resolutions, above or below N, each the
    argument list of a march_qv call of its own after `seeds`, with its
    own model, all marched in lock-step from the largest one's noise
    draw.  Their column pairs follow N's in the order given, each equal
    byte for byte to march_qv on that argument list alone.
    """
    seeds = _seed_array(seeds)
    R = seeds.shape[0]
    runs = ((N, theta, fid, p0, p1, f0, a, m), *coarser)
    sums = np.zeros((2 * len(runs), R))
    # the reduction's scratch: a layer holds at most n cells of [0, n)^2
    top = max(run[0] for run in runs)
    sq, acc = np.empty((top, R)), np.empty((top, R))
    windows = [(2 * n + 1, -n, 1.0 / n, a_n, m_n, *model) for n, *model, a_n, m_n in runs]
    for w, s, X, A, B, fb, _ in _march_layers(windows, *_philox_noise(seeds, windows)):
        n = runs[w][0]
        # slots k whose cell bottom (s - 1 - n + k, n - 1 - k) is in [0, n)^2
        lo = max(0, n + 1 - s)
        hi = min(2 * n + 1 - s, n)
        if lo < hi:
            k = hi - lo
            d = sq[:k]
            np.subtract(X[lo:hi], A[lo:hi], out=d)
            d -= A[lo + 1 : hi + 1]
            d += B[lo + 1 : hi + 1]
            d *= d
            # add the layer's cells one at a time in slot order, whatever
            # the chunk size (np.sum would go pairwise for a single row)
            sums[2 * w] += np.add.accumulate(d, axis=0, out=acc[:k])[-1]
            if fb is None:  # F ident 1: k ones add up to k exactly
                sums[2 * w + 1] += k
            else:
                np.multiply(fb[lo:hi], fb[lo:hi], out=d)
                sums[2 * w + 1] += np.add.accumulate(d, axis=0, out=acc[:k])[-1]
    out = np.ascontiguousarray(sums.T)
    _finite(out)
    return out
