"""Counter-based Gaussian lattice noise and anti-diagonal marching kernels.

One vectorized numpy path: every march advances a whole anti-diagonal
layer at a time through one cell step, _step_np, on contiguous layer
buffers reused from layer to layer: (slot, replication) blocks in the
replication kernels, (slot, field) blocks in the stored-window marches,
which read and write their L x L windows _LAYER_BLOCK layers at a time.
The two replication kernels share one layer loop, _march_layers:
march_points records points from the layers it yields, march_qv adds
up Q_N and the sum of F^2.
Results are bit-reproducible regardless of window shape, chunking or
thread schedule, and every result leaves the module only when it is
finite.

Noise convention: the standard normal attached to lattice index (i, j)
and stream `kind` comes from the Philox4x32-10 block with counter
((i + j) + 2^31, (i >> 1) + 2^31, kind, 0) and key (seed_lo, seed_hi);
the block's two Box-Muller outputs are split by the parity of i.  The
value is a pure function of (seed, i, j, kind).  Keying by
(anti-diagonal, i >> 1) lets the replication kernels, which consume the
cells of one anti-diagonal in increasing i, use both outputs of almost
every block instead of discarding the second.  One implementation,
_LayerNoise.blocks, runs the rounds and the Box-Muller tail: the
replication kernels draw a whole layer for a chunk of replications
through _LayerNoise.draw, triangle_normals draws layer 1 the same way
for one seed, and lattice_normals draws its rectangle _FILL_PAIR_ROWS
pair rows at a time so that a block's temporaries stay in cache;
noise.generate draws only the pairs on or above the initial line.
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
_INV53 = 2.0**-53
_TWO_PI = 2.0 * math.pi
_IOFF = 2147483648  # 2^31 recentres signed lattice indices into u32
_IMASK = 4294967295
_SEED_LIMIT = 2**64  # seeds are 64-bit Philox keys
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
    """Cell decay beta, noise weight theta/2 and drift weight b eps^2/2."""
    beta = math.exp(-a * eps / (2.0 * _SQRT2))
    return beta, 0.5 * theta, 0.5 * (0.25 * a * a - m * m) * eps * eps


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
        out *= p1
        out += p0
    else:
        np.clip(x, -p0, p0, out=out)
        out += p1
    return out


# ---------------------------------------------------------------------------
# noise


class _LayerNoise:
    """Philox blocks and their normals for a chunk of replications.

    Arrays are laid out (pair, replication).  One Philox block per
    (sigma, i >> 1) pair serves both cells of the pair: rad*cos fills
    the even-i slot and rad*sin the odd-i slot, so a layer costs one
    block per two cells.  The rounds run in place on flat buffers
    allocated once and reused from call to call; P pairs work on the
    first P*R entries as one contiguous (P, R) block.  With a scalar
    sig, as a layer draw has, some state words are constant along one
    axis until round four; those stay at their smaller shapes and cost
    no full pass.
    """

    def __init__(self, seeds, max_count):
        R = seeds.shape[0]
        k0 = seeds & _MASK32
        k1 = seeds >> _SH32
        self.keys = []
        for _ in range(10):
            self.keys.append((k0, k1))
            k0 = (k0 + _PW0) & _MASK32
            k1 = (k1 + _PW1) & _MASK32
        size = (max_count // 2 + 1) * R
        self.words = [np.empty(size, dtype=np.uint64) for _ in range(6)]
        self.reals = [np.empty(size) for _ in range(3)]
        self.pairs = np.empty(2 * size)
        self.reps = R

    def blocks(self, sig, q, kind):
        """(P, 2, R) rad*cos and rad*sin of the blocks (sig, q, kind, 0).

        `q` is a (P, 1) array of i >> 1 values and `sig` an integer or an
        array of anti-diagonals that broadcasts with it.
        """
        R = self.reps
        P = q.shape[0]
        x0, x1, x2, x3, t0, t1 = (w[: P * R].reshape(P, R) for w in self.words)
        keys = self.keys
        q = ((q + _IOFF) & _IMASK).astype(np.uint64)
        # round 1 takes the counter (sig, q, kind, 0).  The shapes below are
        # for a scalar sig; an array sig, as the fill passes, widens the
        # words it reaches to one per pair
        p0 = _PM0 * np.asarray((sig + _IOFF) & _IMASK, dtype=np.uint64)
        p1 = int(_PM1) * kind
        np.bitwise_xor(q ^ (p1 >> 32), keys[0][0], out=x0)
        c1 = p1 & _IMASK
        c2 = (p0 >> _SH32) ^ keys[0][1]
        c3 = p0 & _MASK32
        # round 2: c0 full, c2 per replication, c1 and c3 scalars
        np.multiply(x0, _PM0, out=t0)
        r1 = _PM1 * c2
        c0 = (r1 >> _SH32) ^ c1 ^ keys[1][0]
        c1 = r1 & _MASK32
        np.right_shift(t0, _SH32, out=x2)
        x2 ^= keys[1][1] ^ c3
        np.bitwise_and(t0, _MASK32, out=x3)
        # round 3: c0 and c1 per replication, c2 and c3 full
        r0 = _PM0 * c0
        np.multiply(x2, _PM1, out=t1)
        np.right_shift(t1, _SH32, out=x0)
        x0 ^= c1 ^ keys[2][0]
        np.bitwise_and(t1, _MASK32, out=x1)
        np.bitwise_xor(x3, (r0 >> _SH32) ^ keys[2][1], out=x2)
        c3 = r0 & _MASK32
        # round 4: c3 per replication, the rest full
        np.multiply(x0, _PM0, out=t0)
        np.multiply(x2, _PM1, out=t1)
        np.right_shift(t1, _SH32, out=x0)
        x0 ^= x1
        x0 ^= keys[3][0]
        np.right_shift(t0, _SH32, out=x2)
        x2 ^= c3 ^ keys[3][1]
        np.bitwise_and(t1, _MASK32, out=x1)
        np.bitwise_and(t0, _MASK32, out=x3)
        for k0, k1 in keys[4:]:
            np.multiply(x0, _PM0, out=t0)
            np.multiply(x2, _PM1, out=t1)
            np.right_shift(t1, _SH32, out=x0)
            x0 ^= x1
            x0 ^= k0
            np.right_shift(t0, _SH32, out=x2)
            x2 ^= x3
            x2 ^= k1
            np.bitwise_and(t1, _MASK32, out=x1)
            np.bitwise_and(t0, _MASK32, out=x3)
        # Box-Muller: u1 in (0, 1] keeps the log finite
        u, rad, trig = (f[: P * R].reshape(P, R) for f in self.reals)
        x0 <<= _SH32
        x0 |= x1
        x0 >>= _SH11
        x0 += _ONE
        np.multiply(x0, _INV53, out=u)
        np.log(u, out=rad)
        rad *= -2.0
        np.sqrt(rad, out=rad)
        x2 <<= _SH32
        x2 |= x3
        x2 >>= _SH11
        np.multiply(x2, _INV53, out=u)
        u *= _TWO_PI
        z = self.pairs[: 2 * P * R].reshape(P, 2, R)
        np.cos(u, out=trig)
        np.multiply(rad, trig, out=z[:, 0])
        np.sin(u, out=trig)
        np.multiply(rad, trig, out=z[:, 1])
        return z

    def draw(self, sig, ic0, count, kind):
        """(count, R) normals for cells i = ic0 + k, j = sig - i."""
        q0 = ic0 >> 1
        P = ((ic0 + count - 1) >> 1) - q0 + 1
        z = self.blocks(sig, q0 + np.arange(P)[:, None], kind)
        first = ic0 & 1
        return z.reshape(2 * P, self.reps)[first : first + count]


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
        cos[on], sin[on] = noise.blocks(sig[on][:, None], qs[:, None], kind)[:, :, 0].T
        z[p : p + q.shape[0], 0] = cos[:, :cols]
        z[p : p + q.shape[0], 1] = sin[:, 1:]
    return z.reshape(-1, cols)[first : first + rows]


def triangle_normals(i0, count, seed):
    """Standard normals for the layer-1 points (i0+k, 1-(i0+k))."""
    return _LayerNoise(_seed_array([seed]), count).draw(1, i0, count, 1)[:, 0]


def _step_np(X, A, B, c, drive, beta, beta2, drh, tmp):
    """X[:c] = beta*(A[k]+A[k+1]) - beta2*bot + drive (+ drh*bot), in place.

    The one cell update of every march.  Rows are slots k of a layer
    and bot = B[k+1]; the arrays are contiguous (slot, replication)
    blocks of the replication kernels or (slot, field) blocks of the
    stored marches.  drh=None leaves out the own-bottom reaction term:
    the stored marches add it to v's column alone after the step (the
    split parts v_L and v_C have none) rather than adding 0*bot, which
    would turn -0.0 into +0.0 and an infinity into nan.
    """
    x = X[:c]
    t = tmp[:c]
    bot = B[1 : c + 1]
    np.add(A[:c], A[1 : c + 1], out=x)
    x *= beta
    np.multiply(bot, beta2, out=t)
    x -= t
    x += drive
    if drh is not None:
        np.multiply(bot, drh, out=t)
        x += t


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


@_quiet
def _march_stored(cells, tris, eps, a, m, theta, fid, p0, p1, f0, split=False):
    """[v] marched over stored increments, or [v, v_L, v_C] with `split`.

    The fields march side by side as the columns of (slot, field) layer
    buffers B, A and X, contiguous and reused from layer to layer as in
    march_points, so one set of ufunc calls steps all of them.  Layers go
    in blocks of _LAYER_BLOCK: a block's dW is read from `cells` row by
    row into a small buffer, and its marched layers are staged and then
    written row by row into the L x L results, each value once, so no
    layer op walks a window anti-diagonal (a stride of L-1 values).

    v_C takes v's noise drive th2*F(v(bottom))*dW and v_L the drift
    drive (1/2)(b v(bottom)) eps^2.  Only v gains the own-bottom term
    drh*bot, added after the step, so v_L + v_C reproduces v to
    round-off and the parts never gain a 0*bot (which would turn -0.0
    into +0.0).
    """
    L = cells.shape[0]
    beta, th2, drh = _rates(eps, a, m, theta)
    beta2 = beta * beta
    bcoef = 0.25 * a * a - m * m
    nfield = 3 if split else 1
    fields = [np.zeros((L, L)) for _ in range(nfield)]
    flats = [f.reshape(-1) for f in fields]
    cflat = np.ascontiguousarray(cells, dtype=float).reshape(-1)
    K = _LAYER_BLOCK
    tri = np.tri(K, dtype=bool)  # [ii - s0, r] of a block's first rows that lie in a layer
    B, A, X, drive, tmp = (np.zeros((L + 1, nfield)) for _ in range(5))
    stage = np.empty((L, K, nfield))  # marched layers of a block, by window row
    dws = np.empty((L, K))  # their cell increments, by window row
    fb = np.empty(L)
    np.multiply(th2 * f0, tris, out=A[: L - 1, 0])
    A[:, -1] = A[:, 0]  # v_C starts from v's layer 1, v_L from zero
    for f, flat in enumerate(flats):
        _layers(flat, L, 1, 1)[:, 0] = A[: L - 1, f]
    for s0 in range(2, L, K):
        k = min(K, L - s0)
        dws[s0 - 2 :, :k] = _layers(cflat, L, s0 - 2, k)
        for r in range(k):
            s = s0 + r
            c = L - s
            bot = B[1 : c + 1, 0]
            d = drive[:c, 0]
            np.multiply(_f_eval_np(fid, p0, p1, bot, out=fb[:c]), th2, out=d)
            d *= dws[s - 1 : L - 1, r]
            if split:
                drive[:c, 2] = d
                b = drive[:c, 1]
                np.multiply(bot, bcoef, out=b)
                b *= 0.5
                b *= eps
                b *= eps
            _step_np(X, A, B, c, drive[:c], beta, beta2, None, tmp)
            np.multiply(bot, drh, out=fb[:c])
            X[:c, 0] += fb[:c]
            stage[s:, r] = X[:c]
            B, A, X = A, X, B
        for f, flat in enumerate(flats):
            out = _layers(flat, L, s0, k)
            out[k - 1 :] = stage[s0 + k - 1 :, :k, f]
            np.copyto(out[: k - 1], stage[s0 : s0 + k - 1, :k, f], where=tri[: k - 1, :k])
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


def _march_layers(seeds, L, i_min, eps, a, m, theta, fid, p0, p1, f0, coupled):
    """One march per seed, yielded layer by layer: s, X, A, B, fb, X2.

    X is layer s = 1 .. L-1, A and B the two layers before it, all
    (slot k, replication) buffers of which the first c = L - s slots of X
    are live; fb = F(B[1 : c+1]) are the c bottom coefficients of the
    layer, and X2 the coupled linear field (F ident 1, theta 1, same
    noise) when `coupled`, else None.  Layer 1 comes from the boundary
    triangles: its cells have their bottoms below the initial line, so
    it has no cell increment.  Buffers are reused, so a layer must be
    read before the next one is asked for.
    """
    beta, th2, drh = _rates(eps, a, m, theta)
    beta2 = beta * beta
    tri = eps / _SQRT2
    R = seeds.shape[0]
    noise = _LayerNoise(seeds, L - 1)
    B, A, X = (np.zeros((L + 1, R)) for _ in range(3))
    B2, A2, X2 = (np.zeros((L + 1, R)) for _ in range(3)) if coupled else (None,) * 3
    dw_buf, fb_buf, drive_buf, tmp = (np.empty((L, R)) for _ in range(4))
    z1 = noise.draw(1, i_min + 1, L - 1, 1)
    X[: L - 1] = th2 * f0 * tri * z1
    if coupled:
        X2[: L - 1] = 0.5 * tri * z1
    for s in range(1, L):
        c = L - s
        fb = _f_eval_np(fid, p0, p1, B[1 : c + 1], out=fb_buf[:c])
        if s > 1:
            dw = np.multiply(noise.draw(s - 2, i_min + s - 1, c, 0), eps, out=dw_buf[:c])
            drive = drive_buf[:c]
            np.multiply(fb, th2, out=drive)
            drive *= dw
            _step_np(X, A, B, c, drive, beta, beta2, drh, tmp)
            if coupled:
                np.multiply(dw, 0.5, out=drive)
                _step_np(X2, A2, B2, c, drive, beta, beta2, drh, tmp)
        yield s, X, A, B, fb, X2
        B, A, X = A, X, B
        if coupled:
            B2, A2, X2 = A2, X2, B2


@_quiet
def march_points(
    seeds, L, i_min, eps, a, m, theta, fid, p0, p1, f0,
    pts_i, pts_j, coupled=False,
):
    """March one replication per seed, keeping only requested values.

    Returns an (R, 2K) array: columns 0..K-1 hold the marched field at
    the K lattice points, columns K..2K-1 the coupled linear field
    (F ident 1, theta 1, same noise) when `coupled`, else zeros.
    Memory is O(L) per replication; chunk the seeds upstream.
    """
    seeds = _seed_array(seeds)
    pts_i = np.ascontiguousarray(pts_i, dtype=np.int64)
    pts_j = np.ascontiguousarray(pts_j, dtype=np.int64)
    K = pts_i.shape[0]
    out = np.zeros((seeds.shape[0], 2 * K))
    # the requested points by layer, as (column, slot)
    at_layer = {}
    for t in range(K):
        at_layer.setdefault(int(pts_i[t] + pts_j[t]), []).append((t, -i_min - int(pts_j[t])))
    layers = _march_layers(seeds, L, i_min, eps, a, m, theta, fid, p0, p1, f0, coupled)
    for s, X, _, _, _, X2 in layers:
        for t, kt in at_layer.get(s, ()):
            out[:, t] = X[kt]
            if coupled:
                out[:, K + t] = X2[kt]
    _finite(out)
    return out


@_quiet
def march_qv(seeds, N, theta, fid, p0, p1, f0, a, m):
    """Quadratic-variation pass: march on the [0,N]^2 dependency window.

    Returns (R, 2): column 0 the sum of squared raw double increments
    over cells with bottom vertex in [0,N)^2, column 1 the matching sum
    of F^2 at the bottom vertices.  Cells are taken anti-diagonal by
    anti-diagonal in marching order, in increasing i within one: the
    cells of one anti-diagonal are added one by one into a partial sum,
    which is then added to the running total, whatever the chunk of
    seeds.
    """
    seeds = _seed_array(seeds)
    L = 2 * N + 1
    qn = np.zeros(seeds.shape[0])
    sf = np.zeros(seeds.shape[0])
    layers = _march_layers(seeds, L, -N, 1.0 / N, a, m, theta, fid, p0, p1, f0, False)
    for s, X, A, B, fb, _ in layers:
        # slots k whose cell bottom (s - 1 - N + k, N - 1 - k) is in [0, N)^2
        lo = max(0, N + 1 - s)
        hi = min(L - s, N)
        if lo < hi:
            dd = X[lo:hi] - A[lo:hi] - A[lo + 1 : hi + 1] + B[lo + 1 : hi + 1]
            # add the layer's cells one at a time in slot order, whatever
            # the chunk size (np.sum would go pairwise for a single row)
            qn += np.add.accumulate(dd * dd, axis=0)[-1]
            f = fb[lo:hi]
            sf += np.add.accumulate(f * f, axis=0)[-1]
    out = np.column_stack([qn, sf])
    _finite(out)
    return out
