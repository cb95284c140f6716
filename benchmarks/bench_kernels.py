"""Timing of the public marching and noise entry points.

Times `_kernels.lattice_normals` over a (2n+1)^2 window; at n=512 (the
field-window size) `noise.generate`, and `march_window` and the split
march (v, v_L and v_C in one pass) over one generated realization; and
the replication kernels `march_points` and `march_qv` at resolution n with
`reps` seeds per call, by default the experiments' chunk size
(experiments._CHUNK), since much smaller chunks mostly time per-layer
call overhead.  Prints the best of five runs per case.
Usage: python3 benchmarks/bench_kernels.py [n] [reps]
"""

import sys
import time

import numpy as np

from kgqv import _kernels, experiments, noise
from kgqv.coords import RotatedGrid

WINDOW_N = 512
F = (_kernels.FID_SHIFTED_SINE, 2.0, 1.0, 2.0)  # fid, p0, p1, F(0)


def best_of(fn, repeat=5):
    fn()  # warm up (cache touch)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def normal_fill(n):
    shape = (2 * n + 1, 2 * n + 1)
    return lambda: _kernels.lattice_normals(-n, -n, shape, 0, 12345)


def generate(n):
    grid = RotatedGrid(n)
    return lambda: noise.generate(grid, 12345)


def stored_args(n):
    grid = RotatedGrid(n)
    nf = noise.generate(grid, 12345)
    return (nf.cells, nf.tris, grid.eps, 1.0, 0.5, 1.0, *F)


def march_window(n):
    args = stored_args(n)
    return lambda: _kernels.march_window(*args)


def march_split(n):
    args = stored_args(n)
    return lambda: _kernels._march_stored(*args, split=True)


def march_points(n, reps):
    seeds = np.arange(reps, dtype=np.uint64)
    pts = np.array([n // 2, n], dtype=np.int64)
    return lambda: _kernels.march_points(
        seeds, 2 * n + 1, -n, 1.0 / n, 1.0, 0.5, 1.0, *F, pts, pts, coupled=True
    )


def march_qv(n, reps):
    seeds = np.arange(reps, dtype=np.uint64)
    return lambda: _kernels.march_qv(seeds, n, 1.0, *F, 1.0, 0.5)


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    reps = int(sys.argv[2]) if len(sys.argv) > 2 else experiments._CHUNK
    cases = [
        (f"normal fill {2 * n + 1}^2", normal_fill(n)),
        (f"noise.generate n={WINDOW_N}", generate(WINDOW_N)),
        (f"march window n={WINDOW_N}", march_window(WINDOW_N)),
        (f"march_split n={WINDOW_N}", march_split(WINDOW_N)),
        (f"march {reps} reps, 2 points, n={n}", march_points(n, reps)),
        (f"quad var {reps} reps, N={n}", march_qv(n, reps)),
    ]
    print(f"{'case':<34} {'time':>10}")
    for label, fn in cases:
        print(f"{label:<34} {best_of(fn) * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
