"""Experiment orchestration: configs, replication plans, reports.

Every experiment is a pure function of its config.  Replications are
keyed by seed = master_seed + replication index, a 64-bit Philox key,
and run in contiguous chunks of at most _CHUNK seeds: a multiple of
--jobs chunks whose sizes differ by at most one, so every thread gets
the same share.  Each replication's row does not depend on the chunk
it sits in, and chunk results are concatenated in index order and
reduced with numpy's pairwise summation, so emitted bytes do not
depend on the plan or on --jobs.  Only the wall_time_s field of the
summary is volatile.
"""

from __future__ import annotations

import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, _kernels, analysis, noise, solver
from .coords import PhysPoint, RotatedGrid, RotPoint, original_coord_diff, to_physical
from .errors import NumericError, UsageError
from .greens import (
    PhysParams,
    fourier_green_branch,
    fourier_green_unified,
    kernel_second_difference_lp,
)

# largest replication chunk: memory bound for the layer buffers and
# the largest work unit handed to a thread (see _chunk_sizes); results
# are chunk-size independent by construction.
# n=256 linear_variance march on a 2-core Xeon: 128 to 384 seeds per
# chunk cost the same per replication within run-to-run noise, 64 is
# ~15% slower (per-layer call overhead dominates), 512 and 1024 are
# 5-25% slower
_CHUNK = 256

# seeds are 64-bit Philox keys; a larger one would alias a smaller one
_SEED_LIMIT = _kernels._SEED_LIMIT

# marching-scheme vs fixed-point-oracle sup-norm ceilings: measured
# 0.0644 at n=8 and 0.0362 at n=16 over the five default seeds at
# default parameters, frozen with ~1.5x headroom (mirrored in
# tests/fixtures/oracle_thresholds.json).  --reps sets the number of
# seeds and the verdict takes the worst, so other or more seeds may
# exceed a ceiling: --reps 20 reaches 0.1235 at n=8 (seed 7)
ORACLE_THRESHOLDS = {8: 0.10, 16: 0.055}

_REMAINDER_POINTS = (RotPoint(0.25, 0.25), RotPoint(0.5, 0.5), RotPoint(0.75, 0.25))
_SLOPE_WINDOW = (1.35, 1.65)

# the model keys each experiment reads: key -> (default, floor or None).
# Setting a key an experiment does not read is a usage error; seed, out
# and jobs are read by all.  quadvar_rate's reps default is per part
# (linear, nonlinear); a set value serves both parts
_MODEL = {"a": (1.0, None), "m": (0.5, None), "theta": (1.0, None),
          "diffusion": ("shifted_sine", None)}
_SETTINGS = {
    "green_identities": {},
    "kernel_lemma": {"n": (256, 64)},
    "linear_variance": {"a": _MODEL["a"], "m": _MODEL["m"], "n": (256, 64), "reps": (100000, 500)},
    "remainder_rate": {**_MODEL, "n": (512, 128), "reps": (500, 100)},
    "quadvar_rate": {**_MODEL, "n": (512, 256), "reps": ((500, 200), 100)},
    "estimator_consistency": {**_MODEL, "theta": (2.0, None), "n": (512, 128), "reps": (200, 100)},
    "oracle_check": {**_MODEL, "reps": (5, 1)},
}
_KEYS = (*_MODEL, "n", "reps")
EXPERIMENT_IDS = tuple(_SETTINGS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat run description; None means the experiment's own default."""

    experiment: str
    a: float | None = None
    m: float | None = None
    theta: float | None = None
    diffusion: str | None = None
    n: int | None = None
    reps: int | None = None
    seed: int = 0
    out: str = "."
    jobs: int = 1


@dataclass
class ExperimentReport:
    experiment: str
    columns: tuple
    rows: list
    summary: dict
    passed: bool
    seed: int
    wall_time_s: float
    version: str
    config: dict


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


def validate_config(cfg: ExperimentConfig) -> dict:
    """The keys cfg's experiment reads, defaults filled in, and its params.

    Raises UsageError before the experiment starts: for an unknown
    experiment, a key it does not read, a value below its floor, bad
    equation parameters, or seeds past 2^64 at its largest replication
    count.
    """
    _require(
        cfg.experiment in EXPERIMENT_IDS,
        f"experiment must be one of {', '.join(EXPERIMENT_IDS)}, "
        f"got {cfg.experiment!r}",
    )
    table = _SETTINGS[cfg.experiment]
    for key in _KEYS:
        _require(key in table or getattr(cfg, key) is None,
                 f"{cfg.experiment} does not read {key}")
    _require(cfg.jobs >= 1, f"jobs must be at least 1, got {cfg.jobs}")
    _require(cfg.seed >= 0, f"seed must be nonnegative, got {cfg.seed}")
    _require(cfg.seed < _SEED_LIMIT, f"seed must be below 2^64, got {cfg.seed}")
    s = {}
    for key, (default, floor) in table.items():
        value = getattr(cfg, key)
        if value is None:
            s[key] = default
            continue
        if key == "n":
            _require(value >= 2 and value & (value - 1) == 0,
                     f"n must be a power of two, got {value}")
        if floor is not None:
            _require(value >= floor, f"{cfg.experiment} needs {key} >= {floor}, got {value}")
        s[key] = (value,) * len(default) if isinstance(default, tuple) else value
    s["params"] = PhysParams(  # raises UsageError on bad a/m/theta/diffusion
        **{"diffusion_id" if k == "diffusion" else k: v
           for k, v in s.items() if k in _MODEL}
    )
    count = int(np.max(s.get("reps", 0)))
    _require(
        cfg.seed + count <= _SEED_LIMIT,
        f"seed + replications must not exceed 2^64 (seeds are 64-bit keys), "
        f"got seed {cfg.seed} with {count} replications",
    )
    return s


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _chunk_sizes(total: int, jobs: int) -> list[int]:
    """Sizes of the contiguous seed chunks, in seed order.

    jobs * ceil(total / (_CHUNK * jobs)) chunks (one per seed if there
    are fewer seeds than jobs) whose sizes differ by at most one and
    never exceed _CHUNK.  One job gets ceil(total / _CHUNK) chunks, the
    fewest kernel calls that keep every chunk within _CHUNK.
    """
    k = min(total, jobs * -(-total // (_CHUNK * jobs)))
    q, r = divmod(total, k)
    return [q + 1] * r + [q] * (k - r)


def _seed_rows(worker, master_seed: int, total: int, jobs: int) -> np.ndarray:
    """worker(seeds) -> (len(seeds), k); rows in seed order for any plan."""
    seeds = np.uint64(master_seed) + np.arange(total, dtype=np.uint64)
    plans = np.split(seeds, np.cumsum(_chunk_sizes(total, jobs))[:-1])
    if jobs <= 1 or len(plans) == 1:
        parts = [worker(p) for p in plans]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(worker, plans))
    return np.concatenate(parts, axis=0)


# ---------------------------------------------------------------------------
# green_identities


def _xi_sweep(a: float, m: float):
    xis = [0.0, 0.1, 0.3, 1.0, 3.7, 11.0]
    gap2 = 0.25 * a * a - m * m
    if gap2 > 0:
        # straddle the z = 0 branch boundary at coarse, fine, and sub-series
        # offsets; the last lands inside the unified form's series window
        k = math.sqrt(gap2)
        for d in (1e-3, 1e-7, 1e-9):
            xis.append(k + d)
            if k - d > 0:
                xis.append(k - d)
    return xis


def _run_green_identities(cfg: ExperimentConfig, s: dict):
    rows = []
    max_rel = 0.0
    zero_max = 0.0
    deriv_max = 0.0
    h = 1e-7
    for a in (0.0, 0.5, 1.0, 2.0, 3.0):
        for m in (0.0, 0.25, 0.5, 1.0, 2.0):
            for xi in _xi_sweep(a, m):
                zero_max = max(zero_max, abs(fourier_green_branch(a, m, 0.0, xi)))
                deriv_max = max(
                    deriv_max, abs(fourier_green_branch(a, m, h, xi) / h - 1.0)
                )
                for t in (0.25, 0.5, 0.8, 1.3, 2.0, 3.0):
                    br = fourier_green_branch(a, m, t, xi)
                    un = fourier_green_unified(a, m, t, xi)
                    denom = max(abs(br), abs(un))
                    rel = abs(br - un) / denom if denom > 0 else 0.0
                    max_rel = max(max_rel, rel)
                    rows.append((a, m, t, xi, br, un, rel))
    summary = {
        "points": len(rows),
        "max_rel_gap": max_rel,
        "zero_time_max_abs": zero_max,
        "unit_derivative_max_err": deriv_max,
        "bounds": {"rel_gap": 1e-10, "zero": 1e-12, "derivative": 1e-6},
    }
    passed = (
        len(rows) >= 1000
        and max_rel <= 1e-10
        and zero_max <= 1e-12
        and deriv_max <= 1e-6
    )
    cols = ("a", "m", "t", "xi", "branch", "unified", "rel_gap")
    return cols, rows, summary, passed


# ---------------------------------------------------------------------------
# kernel_lemma


def _run_kernel_lemma(cfg: ExperimentConfig, s: dict):
    n = s["n"]
    eps_list = [2.0**-k for k in range(4, int(round(math.log2(n))) + 1)]
    rows = []
    configs = {}
    passed = True
    for a in (0.0, 1.0, 2.0):
        for p in (1, 2):
            _progress(f"kernel_lemma: a={a} p={p}")
            target = 2.0**-p
            devs = []
            for eps in eps_list:
                val = kernel_second_difference_lp(a, 1.0, 0.0, eps, p)
                ratio = val / (eps * eps)
                dev = abs(ratio - target)
                devs.append(dev)
                rows.append((a, p, eps, val, ratio, dev))
            level_err = abs(devs[-1]) / target
            level_ok = level_err <= 0.05
            if a == 0.0:
                # regions off the own diamond vanish: value is eps^2/2^p
                # exactly, deviations are quadrature round-off
                exact = max(devs) <= 1e-10 * target
                entry = {
                    "level_rel_err": level_err,
                    "exact_floor": exact,
                    "slope": None,
                    "ok": level_ok and exact,
                }
            else:
                fit = analysis.fit_loglog(eps_list, devs)
                entry = {
                    "level_rel_err": level_err,
                    "exact_floor": False,
                    "slope": fit.slope,
                    "slope_se": fit.stderr,
                    "ok": level_ok and fit.slope >= 0.9,
                }
            configs[f"a={a:g},p={p}"] = entry
            passed = passed and entry["ok"]
    summary = {
        "eps": eps_list,
        "configs": configs,
        "bounds": {"level_rel_err": 0.05, "slope_min": 0.9},
        "p1_note": (
            "for p=1 with a>0 the off-diamond strips carry |increment| of "
            "order eps over area of order eps, the same eps^2 total as the "
            "diamond, so value/eps^2 tends to 1/2 plus a damping-dependent "
            "constant (0.9386 at a=1, 1.2642 at a=2, t=1) and the deviation "
            "from 1/2 does not shrink; only p>=2 suppresses the strips"
        ),
    }
    cols = ("a", "p", "eps", "value", "value_over_eps2", "deviation")
    return cols, rows, summary, passed


# ---------------------------------------------------------------------------
# linear_variance


def _run_linear_variance(cfg: ExperimentConfig, s: dict):
    params, n, base = s["params"], s["n"], s["reps"]
    eps_list = [2.0**-k for k in range(4, int(round(math.log2(n))) + 1)]
    point = RotPoint(0.5, 0.5)
    rows = []
    devs = []
    level_rel_err = None
    for eps in eps_list:
        if eps == eps_list[-1]:
            reps = base
        elif len(eps_list) >= 2 and eps == eps_list[-2]:
            reps = base // 2
        else:
            reps = base // 5
        _progress(f"linear_variance: eps=2^{int(round(math.log2(eps)))} reps={reps}")

        def worker(seeds, eps=eps):
            return analysis.increment_samples(params, eps, point, seeds)

        samples = _seed_rows(worker, cfg.seed, reps, cfg.jobs)
        est = analysis.increment_l2_from_samples(eps, samples)
        devs.append(est.conditional_deviation)
        rows.append(
            (
                eps,
                reps,
                est.raw,
                est.raw_se,
                est.conditional,
                est.conditional_se,
                est.conditional_deviation,
            )
        )
        if eps == eps_list[-1]:
            level_rel_err = abs(est.raw / (0.5 * eps) - 1.0)
    fit = analysis.fit_loglog(eps_list, devs)
    summary = {
        "eps": eps_list,
        "level_rel_err": level_rel_err,
        "deviation_slope": fit.slope,
        "deviation_slope_se": fit.stderr,
        "bounds": {"level_rel_err": 0.02, "slope_min": 1.4},
        "estimator_note": (
            "level uses the raw L2 estimate; the slope uses the conditional "
            "estimate sqrt(eps^2/4 + mean(dd - dW/2)^2), which has the same "
            "mean but removes the chi-square noise floor"
        ),
    }
    passed = level_rel_err <= 0.02 and fit.slope >= 1.4
    cols = ("eps", "reps", "raw", "raw_se", "conditional", "conditional_se", "deviation")
    return cols, rows, summary, passed


# ---------------------------------------------------------------------------
# remainder_rate


def _remainder_window(n: int, eps_list, points):
    kmax = max(int(round(e * n)) for e in eps_list)
    i_max = max(int(round(q.tau * n)) for q in points) + kmax
    j_max = max(int(round(q.lam * n)) for q in points) + kmax
    return RotatedGrid(n, i_max=i_max, j_max=j_max), kmax


def _mapping_gap(seed: int) -> float:
    """Physical-coordinate stencils replayed on small coupled fields."""
    n = 32
    params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="shifted_sine")
    F = solver.shifted_sine()
    gap = 0.0
    for s in range(3):
        nf = noise.generate(RotatedGrid(n), seed + s)
        v = solver.march(params, F, nf)
        V = solver.march_linear(params, nf)
        vf, Vf = v.phys_function(), V.phys_function()
        v_txy = lambda t, x: vf(PhysPoint(t, x))
        V_txy = lambda t, x: Vf(PhysPoint(t, x))
        for q in (RotPoint(0.5, 0.5), RotPoint(0.25, 0.75)):
            base = params.theta * F(v.value(*v.grid.index_of(q)))
            p = to_physical(q)
            for eps_rot in (1.0 / 8, 1.0 / n):
                e_phys = eps_rot / math.sqrt(2.0)
                for k, sign in ((1, -1), (2, 1)):
                    rot = analysis.remainder(v, V, F, q, eps_rot, sign)
                    phys = original_coord_diff(
                        v_txy, p, e_phys, k
                    ) - base * original_coord_diff(V_txy, p, e_phys, k)
                    gap = max(gap, abs(rot - phys))
    return gap


def _run_remainder_rate(cfg: ExperimentConfig, s: dict):
    params, n, reps = s["params"], s["n"], s["reps"]
    F = solver.coefficient_from_id(params.diffusion_id)
    eps_list = [2.0**-k for k in range(4, 10) if 2.0**-k >= 1.0 / n]
    points = _REMAINDER_POINTS
    grid, _ = _remainder_window(n, eps_list, points)
    rows_grid, _ = grid.shape

    # one column per distinct stencil vertex, shared across eps values
    col_of = {}
    for q in points:
        i = int(round(q.tau * n))
        j = int(round(q.lam * n))
        for eps in eps_list:
            k = int(round(eps * n))
            for di, dj in ((0, 0), (k, 0), (0, k), (k, k), (-k, 0), (-k, k)):
                col_of.setdefault((i + di, j + dj), len(col_of))
    pts_i = np.array([ij[0] for ij in col_of], dtype=np.int64)
    pts_j = np.array([ij[1] for ij in col_of], dtype=np.int64)
    ncols = len(col_of)

    def worker(seeds):
        return _kernels.march_points(
            seeds, rows_grid, grid.i_min, grid.eps,
            params.a, params.m, params.theta,
            F.fid, F.p0, F.p1, F(0.0), pts_i, pts_j, coupled=True,
        )

    _progress(f"remainder_rate: n={n} reps={reps} stencil columns={ncols}")
    out = _seed_rows(worker, cfg.seed, reps, cfg.jobs)

    def dd(block, i, j, k, sign):
        c = lambda di, dj: block[:, col_of[(i + di, j + dj)]]
        return (c(sign * k, k) - c(sign * k, 0)) - (c(0, k) - c(0, 0))

    v_block = out[:, :ncols]
    lin_block = out[:, ncols : 2 * ncols]
    rows = []
    slopes = {}
    all_in_window = True
    for p_idx, q in enumerate(points):
        i = int(round(q.tau * n))
        j = int(round(q.lam * n))
        base = params.theta * F(v_block[:, col_of[(i, j)]])
        for sign, label in ((1, "plus"), (-1, "minus")):
            norms = []
            for eps in eps_list:
                k = int(round(eps * n))
                r = dd(v_block, i, j, k, sign) - base * dd(lin_block, i, j, k, sign)
                norm, se = analysis.lp_norm_mc(r, 2.0)
                norms.append(norm)
                rows.append((p_idx, q.tau, q.lam, sign, eps, norm, se))
            fit = analysis.fit_loglog(eps_list, norms)
            ok = _SLOPE_WINDOW[0] <= fit.slope <= _SLOPE_WINDOW[1]
            all_in_window = all_in_window and ok
            coarse = analysis.fit_loglog(eps_list[:-1], norms[:-1])
            slopes[f"point{p_idx}_{label}"] = {
                "slope": fit.slope,
                "slope_se": fit.stderr,
                "in_window": ok,
                "slope_excl_unit_cell": coarse.slope,
            }
    _progress("remainder_rate: checking physical-coordinate stencil mapping")
    map_gap = _mapping_gap(cfg.seed + 1)
    summary = {
        "eps": eps_list,
        "slopes": slopes,
        "slope_window": list(_SLOPE_WINDOW),
        "mapping_max_gap": map_gap,
        "mapping_note": (
            "physical-coordinate double differences equal the rotated ones "
            "with step sqrt(2)*eps exactly, so their fitted slopes are the "
            "slopes reported above"
        ),
        "plus_sign_note": (
            "when the forward stencil shrinks to a single lattice cell "
            "(eps = 1/n) the scheme's own-cell noise term cancels exactly "
            "against theta*F(v at the stencil base) and the remainder drops to "
            "eps^2 order, steepening the fitted plus-side slopes; "
            "slope_excl_unit_cell refits without that final point"
        ),
    }
    passed = all_in_window and map_gap <= 1e-12
    cols = ("point", "tau", "lambda", "sign", "eps", "l2_norm", "se")
    return cols, rows, summary, passed


# ---------------------------------------------------------------------------
# quadvar_rate


def _qv_rows(name, cfg, params, F, n_list, reps):
    per_n = {}
    for N in n_list:
        _progress(f"{name}: N={N} reps={reps} F={F.id} a={params.a:g}")

        def worker(seeds, N=N):
            return _kernels.march_qv(
                seeds, N, params.theta, F.fid, F.p0, F.p1, F(0.0), params.a, params.m
            )

        per_n[N] = _seed_rows(worker, cfg.seed, reps, cfg.jobs)
    return per_n


def _run_quadvar_rate(cfg: ExperimentConfig, s: dict):
    n_top = s["n"]
    # the linear part is the undamped massive field with F = 1, where the
    # N^-1 variance bound can be checked against a clean mean; its sum of
    # F^2 is exactly N^2, so its gap is |Q_N - 1/4|
    lin_params = PhysParams(a=0.0, m=1.0, theta=1.0, diffusion_id="constant_one")
    parts = {
        "linear": (lin_params, (64, 128, 256), s["reps"][0]),
        "nonlinear": (s["params"], (64, 128, 256, 512), s["reps"][1]),
    }
    cols = ("part", "N", "reps", "mean_qn", "se_qn", "var_qn", "mean_gap", "se_gap")
    rows = []
    for part, (params, ns, reps) in parts.items():
        F = solver.coefficient_from_id(params.diffusion_id)
        per_n = _qv_rows("quadvar_rate", cfg, params, F, [N for N in ns if N <= n_top], reps)
        for N, out in per_n.items():
            qn, sf = out[:, 0], out[:, 1]
            gap = np.abs(qn - 0.25 * params.theta * params.theta * sf / (N * N))
            rows.append(
                (part, N, reps, float(qn.mean()),
                 float(qn.std(ddof=1)) / math.sqrt(reps), float(qn.var(ddof=1)),
                 float(gap.mean()), float(gap.std(ddof=1)) / math.sqrt(reps))
            )

    def column(part, name):
        return [row[cols.index(name)] for row in rows if row[0] == part]

    lin_ns = column("linear", "N")
    mean_ok = all(
        abs(mean - 0.25) <= 3.0 * se
        for mean, se in zip(column("linear", "mean_qn"), column("linear", "se_qn"))
    )
    var_fit = analysis.fit_loglog(lin_ns, column("linear", "var_qn"))
    var_in_window = -1.3 <= var_fit.slope <= -0.7
    var_bound_dir = var_fit.slope <= -0.7

    # nonlinear part: gap to the Riemann limit functional
    nl_ns = column("nonlinear", "N")
    gap_fit = analysis.fit_loglog(nl_ns, column("nonlinear", "mean_gap"))
    gap_decay = -gap_fit.slope  # positive when the gap shrinks with N
    gap_in_window = 0.35 <= gap_decay <= 0.65
    gap_bound_dir = gap_decay >= 0.35

    summary = {
        "linear": {
            "N": lin_ns,
            "mean_within_3se": mean_ok,
            "variance_slope": var_fit.slope,
            "variance_slope_se": var_fit.stderr,
            "variance_slope_in_window": var_in_window,
            "variance_bound_direction_ok": var_bound_dir,
            "window": [-1.3, -0.7],
        },
        "nonlinear": {
            "N": nl_ns,
            "gap_decay": gap_decay,
            "gap_decay_se": gap_fit.stderr,
            "gap_decay_in_window": gap_in_window,
            "gap_bound_direction_ok": gap_bound_dir,
            "window": [0.35, 0.65],
        },
    }
    passed = mean_ok and var_in_window and gap_in_window
    return cols, rows, summary, passed


# ---------------------------------------------------------------------------
# estimator_consistency


def _run_estimator_consistency(cfg: ExperimentConfig, s: dict):
    params, n_top, reps = s["params"], s["n"], s["reps"]
    F = solver.coefficient_from_id(params.diffusion_id)
    n_list = [N for N in (64, 128, 256, 512) if N <= n_top]
    rows = []
    medians = []
    per_n = _qv_rows("estimator_consistency", cfg, params, F, n_list, reps)
    for N in n_list:
        qn, sf = per_n[N][:, 0], per_n[N][:, 1]
        if np.any(sf <= 0.0):
            raise NumericError("diffusion coefficient vanished on a whole sample")
        th = np.sqrt(4.0 * N * N * qn / sf)
        rel = np.abs(th - params.theta) / params.theta
        med = float(np.median(rel))
        medians.append(med)
        rows.append(
            (N, reps, med, float(rel.mean()),
             float(rel.std(ddof=1)) / math.sqrt(reps))
        )
    monotone = all(medians[k + 1] <= medians[k] for k in range(len(medians) - 1))
    final_ok = medians[-1] < 0.05
    summary = {
        "theta": params.theta,
        "N": n_list,
        "median_rel_err": medians,
        "monotone_ok": monotone,
        "final_rel_err": medians[-1],
        "bounds": {"final_rel_err": 0.05},
    }
    passed = monotone and final_ok
    cols = ("N", "reps", "median_rel_err", "mean_rel_err", "se_mean")
    return cols, rows, summary, passed


# ---------------------------------------------------------------------------
# oracle_check


def _run_oracle_check(cfg: ExperimentConfig, s: dict):
    params, n_seeds = s["params"], s["reps"]
    F = solver.coefficient_from_id(params.diffusion_id)
    rows = []
    max_by_n = {}
    for n in (8, 16):
        worst = 0.0
        for s in range(n_seeds):
            nf = noise.generate(RotatedGrid(n), cfg.seed + s)
            v = solver.march(params, F, nf)
            u = solver.picard_oracle(params, F, nf)
            sup = float(np.max(np.abs(v.values - u.values)))
            worst = max(worst, sup)
            rows.append((n, cfg.seed + s, sup, ORACLE_THRESHOLDS[n]))
        max_by_n[n] = worst
        _progress(f"oracle_check: n={n} worst sup-diff {worst:.3e}")
    below = all(max_by_n[n] <= ORACLE_THRESHOLDS[n] for n in (8, 16))
    decreasing = max_by_n[16] < max_by_n[8]
    summary = {
        "max_sup_diff": {str(n): max_by_n[n] for n in (8, 16)},
        "thresholds": {str(n): ORACLE_THRESHOLDS[n] for n in (8, 16)},
        "below_thresholds": below,
        "decreasing_with_n": decreasing,
    }
    passed = below and decreasing
    cols = ("n", "seed", "sup_diff", "threshold")
    return cols, rows, summary, passed


# ---------------------------------------------------------------------------
# driver and serialization

_RUNNERS = {
    "green_identities": _run_green_identities,
    "kernel_lemma": _run_kernel_lemma,
    "linear_variance": _run_linear_variance,
    "remainder_rate": _run_remainder_rate,
    "quadvar_rate": _run_quadvar_rate,
    "estimator_consistency": _run_estimator_consistency,
    "oracle_check": _run_oracle_check,
}


def run(cfg: ExperimentConfig) -> ExperimentReport:
    settings = validate_config(cfg)
    t0 = time.perf_counter()
    cols, rows, summary, passed = _RUNNERS[cfg.experiment](cfg, settings)
    # out and jobs never change results, so they stay out of the echo
    echo = {
        "experiment": cfg.experiment,
        "a": cfg.a,
        "m": cfg.m,
        "theta": cfg.theta,
        "diffusion": cfg.diffusion,
        "n": cfg.n,
        "reps": cfg.reps,
        "seed": cfg.seed,
    }
    return ExperimentReport(
        experiment=cfg.experiment,
        columns=cols,
        rows=rows,
        summary=summary,
        passed=bool(passed),
        seed=cfg.seed,
        wall_time_s=time.perf_counter() - t0,
        version=__version__,
        config=echo,
    )


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.17g" % value


def write_csv(report: ExperimentReport, path) -> None:
    """Rows under '#' comment lines; bytes depend only on config and seed."""
    echo = " ".join(
        f"{k}={'default' if v is None else v}" for k, v in report.config.items()
    )
    with open(path, "w", newline="") as fh:
        fh.write(f"# experiment: {report.experiment}\n")
        fh.write(f"# version: {report.version}\n")
        fh.write(f"# config: {echo}\n")
        fh.write(f"# columns: {','.join(report.columns)}\n")
        fh.write(",".join(report.columns) + "\n")
        for row in report.rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def summary_payload(report: ExperimentReport) -> dict:
    return {
        "experiment": report.experiment,
        "version": report.version,
        "seed": report.seed,
        "config": report.config,
        "passed": report.passed,
        "summary": report.summary,
        "wall_time_s": report.wall_time_s,
    }


def summary_json(report: ExperimentReport) -> str:
    """Strict JSON: a non-finite number is a numeric failure, never NaN."""
    try:
        return json.dumps(
            summary_payload(report), sort_keys=True, indent=2, allow_nan=False
        )
    except ValueError:
        raise NumericError("summary holds a non-finite number") from None
