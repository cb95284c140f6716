"""Timing comparison between the compiled and vectorized kernel twins.

Runs each workhorse on identical inputs through both implementations
and prints a small table.  The compiled twins are skipped when numba is
not importable.  The replication kernels run `reps` seeds per call,
by default the experiments' chunk size on the active path
(experiments._CHUNK), since much smaller chunks mostly time per-layer
call overhead.  Usage: python3 benchmarks/bench_kernels.py [n] [reps]
"""

import math
import sys
import time

import numpy as np

from kgqv import _kernels, experiments


def best_of(fn, repeat=5):
    fn()  # warm up (JIT compile, cache touch)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def normal_fill_pair(n):
    shape = (2 * n + 1, 2 * n + 1)
    k0, k1 = _kernels._split_seed(np.uint64(12345))

    def run_nb():
        out = np.empty(shape)
        _kernels._fill_normals_nb(out, -n, -n, 0, k0, k1)
        return out

    def run_np():
        ii = -n + np.arange(shape[0], dtype=np.int64)[:, None]
        jj = -n + np.arange(shape[1], dtype=np.int64)[None, :]
        return _kernels._normals_np(ii, jj, 0, k0, k1)

    return run_nb, run_np


def march_window_pair(n):
    eps = 1.0 / n
    L = 2 * n + 1
    rng = np.random.default_rng(0)
    cells = rng.standard_normal((L, L)) * eps
    tris = rng.standard_normal(L - 1) * (eps / math.sqrt(2.0))
    beta = math.exp(-eps / (2.0 * math.sqrt(2.0)))
    args = (cells, tris, beta, beta * beta, 0.5, 0.5 * 2.0,
            _kernels.FID_SHIFTED_SINE, 2.0, 1.0, 0.0)
    return (lambda: _kernels._march_window_nb(*args),
            lambda: _kernels._march_window_np(*args))


def march_points_pair(n, reps):
    eps = 1.0 / n
    L = 2 * n + 1
    seeds = np.arange(reps, dtype=np.uint64)
    pts_i = np.array([n // 2, n], dtype=np.int64)
    pts_j = np.array([n // 2, n], dtype=np.int64)
    beta = math.exp(-eps / (2.0 * math.sqrt(2.0)))
    tri = eps / math.sqrt(2.0)
    args = (seeds, L, -n, eps, beta, beta * beta, 0.5,
            _kernels.FID_SHIFTED_SINE, 2.0, 1.0, 0.0,
            0.5 * 2.0 * tri, 0.5 * tri, True, pts_i, pts_j,
            _kernels._NO_CELL, _kernels._NO_CELL)
    return (lambda: _kernels._march_points_nb(*args),
            lambda: _kernels._march_points_np(*args))


def march_qv_pair(n, reps):
    eps = 1.0 / n
    seeds = np.arange(reps, dtype=np.uint64)
    beta = math.exp(-eps / (2.0 * math.sqrt(2.0)))
    args = (seeds, n, eps, beta, beta * beta, 0.5,
            _kernels.FID_SHIFTED_SINE, 2.0, 1.0, 0.0,
            0.5 * 2.0 * (eps / math.sqrt(2.0)))
    return (lambda: _kernels._march_qv_nb(*args),
            lambda: _kernels._march_qv_np(*args))


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    reps = int(sys.argv[2]) if len(sys.argv) > 2 else experiments._CHUNK
    cases = [
        (f"normal fill {2 * n + 1}^2", *normal_fill_pair(n)),
        (f"march window n={n}", *march_window_pair(n)),
        (f"march {reps} reps, 2 points, n={n}", *march_points_pair(n, reps)),
        (f"quad var {reps} reps, N={n}", *march_qv_pair(n, reps)),
    ]
    print(f"{'case':<34} {'compiled':>10} {'vectorized':>11} {'ratio':>7}")
    for label, fn_nb, fn_np in cases:
        t_np = best_of(fn_np)
        if _kernels.HAS_NUMBA:
            t_nb = best_of(fn_nb)
            print(f"{label:<34} {t_nb * 1e3:>8.2f}ms {t_np * 1e3:>9.2f}ms "
                  f"{t_np / t_nb:>6.1f}x")
        else:
            print(f"{label:<34} {'n/a':>10} {t_np * 1e3:>9.2f}ms {'':>7}")


if __name__ == "__main__":
    main()
