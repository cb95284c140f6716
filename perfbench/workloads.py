"""The benchmark's three workloads: inputs, one timed unit, and its checks.

A unit is the work timed as one sample of wall_s.  Every unit of a run
repeats the same inputs, so a run's units must also agree with each
other byte for byte.  Checks never look at a stored copy of earlier
output: they recompute what they need from the CSV or from the arrays
the public API returns, and compare it with properties the method must
have or with the plain-Python reference in reference.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time

import numpy as np

import reference
from spans import SpanView, Tracer

from kgqv import _kernels, analysis, cli, noise, solver
from kgqv.coords import RotatedGrid, RotPoint
from kgqv.greens import PhysParams


def program_seed(seed: int) -> int:
    """The master seed handed to kgqv, a 62-bit mix of the benchmark seed.

    Both halves of the Philox key are then in play, and seed + reps
    stays below 2^64.
    """
    z = (seed * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) >> 2


def marched_cells(L: int) -> int:
    """Cell recurrences in one march of an L-row window: layers 2..L-1."""
    return (L - 1) * (L - 2) // 2


def _strict_json(text: str):
    def no_constants(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=no_constants)


def _csv_rows(data: bytes):
    body = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    header = body[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in body[1:]]


def _loglog_slope(x, y) -> float:
    lx = [math.log2(v) for v in x]
    ly = [math.log2(v) for v in y]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def _close(got, want, tol=1e-12) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _ns_per(seconds: float, n: int) -> float:
    return seconds / n * 1e9 if n else 0.0


def install_trace(tracer: Tracer) -> None:
    """Every layer boundary the per-layer metrics read, on all workloads."""
    k, a = _kernels, analysis
    tracer.wrap(k, "march_points", "kernels.march_points",
                lambda seeds, L, *r, **kw: {"cells": len(seeds) * marched_cells(L),
                                            "seeds": len(seeds)})
    tracer.wrap(k, "march_qv", "kernels.march_qv",
                lambda seeds, N, *r, **kw: {"cells": len(seeds) * marched_cells(2 * N + 1)})
    tracer.wrap(k, "lattice_normals", "kernels.lattice_normals",
                lambda i0, j0, shape, *r, **kw: {"values": shape[0] * shape[1]})
    tracer.wrap(k, "triangle_normals", "kernels.triangle_normals")
    tracer.wrap(k, "march_window", "kernels.march_window",
                lambda cells, *r, **kw: {"cells": marched_cells(cells.shape[0])})
    tracer.wrap(noise, "generate", "noise.generate",
                lambda grid, *r, **kw: {"cells": grid.shape[0] * grid.shape[1]})
    tracer.wrap(solver, "march", "solver.march")
    tracer.wrap(solver, "march_linear", "solver.march_linear")
    tracer.wrap(solver, "march_split", "solver.march_split",
                lambda p, F, nf, *r, **kw: {"cells": marched_cells(nf.grid.shape[0])})
    for name in ("increment_samples", "increment_l2_from_samples", "fit_loglog",
                 "quad_var", "limit_functional", "estimate_theta"):
        tracer.wrap(a, name, f"analysis.{name}")
    tracer.wrap(cli, "run", "experiments.run")
    tracer.wrap(cli, "write_csv", "cli.write_csv")
    tracer.wrap(cli, "summary_json", "cli.summary_json")


def layer_metrics(view: SpanView, wall: float, jobs: int, fields: int) -> dict:
    """Per-layer figures for one traced unit; 0 where the unit never reached the layer."""
    mp, qv, ln = "kernels.march_points", "kernels.march_qv", "kernels.lattice_normals"
    mw, gen, split = "kernels.march_window", "noise.generate", "solver.march_split"
    mp_calls = view.calls(mp)
    return {
        f"{mp}.ns_per_cell": _ns_per(view.total(mp), view.count(mp, "cells")),
        f"{mp}.cells": view.count(mp, "cells"),
        f"{mp}.seeds_per_call": view.count(mp, "seeds") / mp_calls if mp_calls else 0,
        f"{qv}.ns_per_cell": _ns_per(view.total(qv), view.count(qv, "cells")),
        f"{qv}.cells": view.count(qv, "cells"),
        f"{qv}.calls": view.calls(qv),
        f"{qv}.thread_busy_share": view.total(qv) / (jobs * wall),
        f"{ln}.ns_per_value": _ns_per(view.total(ln), view.count(ln, "values")),
        f"{ln}.values": view.count(ln, "values"),
        f"{mw}.ns_per_cell": _ns_per(view.total(mw), view.count(mw, "cells")),
        f"{gen}.self_ns_per_cell": _ns_per(view.self_time(gen), view.count(gen, "cells")),
        f"{split}.self_ns_per_cell": _ns_per(view.self_time(split), view.count(split, "cells")),
        "analysis.increment_samples.self_ms": view.self_time("analysis.increment_samples") * 1e3,
        "analysis.reduce_ms": (view.total("analysis.increment_l2_from_samples")
                               + view.total("analysis.fit_loglog")) * 1e3,
        "analysis.window_stats_ms_per_field": view.outer_total(
            {"analysis.quad_var", "analysis.limit_functional", "analysis.estimate_theta"}
        ) * 1e3 / fields if fields else 0.0,
        "experiments.run.self_ms": view.self_time("experiments.run") * 1e3,
        "cli.write_csv_ms": view.total("cli.write_csv") * 1e3,
        "cli.summary_json_ms": view.total("cli.summary_json") * 1e3,
    }


class Workload:
    name = ""
    jobs = 1
    fields = 0  # realizations per unit that go through the window statistics
    lattice_args = None  # a lattice_normals call of this workload, for tracemalloc
    cells = 0  # lattice cells marched per unit, counted from the configuration

    def __init__(self, seed: int, outdir: str):
        self.pseed = program_seed(seed)
        self.outdir = outdir
        self.first = None

    def unit(self):
        """Run one unit; returns (api seconds, result)."""
        raise NotImplementedError

    def check(self, result) -> list:
        """Problems found in one unit's result; the first unit is checked in full."""
        raise NotImplementedError

    def reference_check(self) -> list:
        raise NotImplementedError


class CliWorkload(Workload):
    """One `kgqv run` through kgqv.cli.main, in process."""

    experiment = ""
    flags: tuple = ()

    @property
    def argv(self):
        return ["run", "--experiment", self.experiment, *self.flags,
                "--jobs", str(self.jobs), "--seed", str(self.pseed), "--out", self.outdir]

    def unit(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(self.argv)
            wall = time.perf_counter() - t0
        if code not in (0, 1):
            raise RuntimeError(f"kgqv run exited {code}: {err.getvalue()[-300:]}")
        with open(os.path.join(self.outdir, f"{self.experiment}.csv"), "rb") as fh:
            csv_bytes = fh.read()
        return wall, (code, out.getvalue(), csv_bytes)

    def check(self, result) -> list:
        code, stdout, csv_bytes = result
        try:
            payload = _strict_json(stdout)
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        if code != (0 if payload.get("passed") else 1):
            return [f"exit code {code} but passed={payload.get('passed')}"]
        payload.pop("wall_time_s", None)
        if self.first is not None:
            same = self.first == (code, payload, csv_bytes)
            return [] if same else ["output differs from the run's first unit"]
        self.first = (code, payload, csv_bytes)
        return self.check_rows(_csv_rows(csv_bytes), payload)

    def check_rows(self, rows, payload) -> list:
        raise NotImplementedError


class LinearIncrement(CliWorkload):
    """Criterion 03's experiment at its n, with fewer replications."""

    name = "linear-increment"
    experiment = "linear_variance"
    n = 256
    reps = 2000
    flags = ("--n", str(n), "--reps", str(reps))
    levels = [2**k for k in range(4, 9)]  # 1/eps for eps = 2^-4 .. 2^-8
    # criterion 03's level bound holds at its 10^5 replications; the raw
    # estimate's relative standard error is 1/sqrt(2R), so the bound is
    # rescaled by sqrt(10^5 / R) to stay the same number of errors wide
    level_bound = 0.02 * math.sqrt(1e5 / reps)

    def planned_reps(self, n):
        if n == self.levels[-1]:
            return self.reps
        return self.reps // 2 if n == self.levels[-2] else self.reps // 5

    @property
    def cells(self):
        return sum(self.planned_reps(n) * marched_cells(n + 3) for n in self.levels)

    def check_rows(self, rows, payload) -> list:
        problems = []
        got = [(round(1 / r["eps"]), r["reps"]) for r in rows]
        want = [(n, self.planned_reps(n)) for n in self.levels]
        if got != want:
            return [f"rows (1/eps, reps) {got}, planned {want}"]
        fine = rows[-1]
        level = abs(fine["raw"] / (0.5 * fine["eps"]) - 1.0)
        slope = _loglog_slope([r["eps"] for r in rows], [r["deviation"] for r in rows])
        if not level <= self.level_bound:
            problems.append(f"level error {level:.4g} > {self.level_bound:.4g}")
        if not slope >= 1.4:
            problems.append(f"deviation slope {slope:.4g} < 1.4")
        s = payload["summary"]
        if not (_close(s["level_rel_err"], level) and _close(s["deviation_slope"], slope, 1e-9)):
            problems.append("summary level/slope disagree with the CSV rows")
        if payload["passed"] != (level <= 0.02 and slope >= 1.4):
            problems.append("verdict disagrees with criterion 03's bounds")
        return problems

    def reference_check(self) -> list:
        params = PhysParams(a=1.0, m=0.5, theta=1.0, diffusion_id="shifted_sine")
        seeds = [self.pseed, self.pseed + 1, 2**64 - 1]
        problems = []
        for n in (8, 16):
            got = analysis.increment_samples(params, 1.0 / n, RotPoint(0.5, 0.5), seeds)
            for s, row in zip(seeds, got):
                want = reference.increment_row(n, 1.0, 0.5, s)
                if not all(_close(g, w) for g, w in zip(row, want)):
                    problems.append(f"increment_samples n={n} seed={s}: {list(row)} vs {want}")
        return problems


class ThetaEstimator(CliWorkload):
    """estimator_consistency at its defaults: N = 64..512, 200 reps, theta = 2."""

    name = "theta-estimator"
    experiment = "estimator_consistency"
    jobs = 2
    Ns = (64, 128, 256, 512)
    reps = 200
    cells = reps * sum(marched_cells(2 * N + 1) for N in Ns)

    def check_rows(self, rows, payload) -> list:
        got = [(r["N"], r["reps"]) for r in rows]
        want = [(N, self.reps) for N in self.Ns]
        if got != want:
            return [f"rows (N, reps) {got}, expected {want}"]
        med = [r["median_rel_err"] for r in rows]
        problems = []
        if any(b > a for a, b in zip(med, med[1:])):
            problems.append(f"median |theta_hat/theta - 1| not non-increasing in N: {med}")
        if not med[-1] < 0.05:
            problems.append(f"median relative error {med[-1]:.4g} at N=512, not < 0.05")
        if payload["summary"]["median_rel_err"] != med:
            problems.append("summary medians disagree with the CSV rows")
        return problems

    def reference_check(self) -> list:
        F = solver.shifted_sine()
        seeds = [self.pseed, self.pseed + 1, 2**64 - 1]
        got = _kernels.march_qv(np.array(seeds, dtype=np.uint64), 8, 2.0,
                                F.fid, F.p0, F.p1, F(0.0), 1.0, 0.5)
        problems = []
        for s, row in zip(seeds, got):
            want = reference.quad_var_pair(8, 1.0, 0.5, 2.0, reference.shifted_sine(), s)
            if not all(_close(g, w) for g, w in zip(row, want)):
                problems.append(f"march_qv N=8 seed={s}: {list(row)} vs {want}")
        return problems


class FieldWindow(Workload):
    """K single realizations at n = 512 through the public API."""

    name = "field-window"
    n = 512
    K = 4
    fields = K
    params = PhysParams(a=1.0, m=1.0, theta=2.0, diffusion_id="shifted_sine")
    # four marched fields per realization: v, V, v_L and v_C
    cells = K * 4 * marched_cells(2 * n + 1)

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.grid = RotatedGrid(self.n)
        self.F = solver.shifted_sine()
        self.lattice_args = (self.grid.i_min, self.grid.j_min, self.grid.shape, 0, self.pseed)

    def unit(self):
        wall = 0.0
        per_field = []
        for k in range(self.K):
            t0 = time.perf_counter()
            nf = noise.generate(self.grid, self.pseed + k)
            v = solver.march(self.params, self.F, nf)
            V = solver.march_linear(self.params, nf)
            v_l, v_c = solver.march_split(self.params, self.F, nf)
            stats = (
                analysis.estimate_theta(v, self.F),
                analysis.quad_var(v),
                analysis.limit_functional(v, self.F),
                analysis.quad_var(V),
            )
            wall += time.perf_counter() - t0
            # what the checks need from the arrays, taken outside the timing
            per_field.append((*stats, *self._array_facts(nf, v, V, v_l, v_c)))
        return wall, per_field

    def _array_facts(self, nf, v, V, v_l, v_c):
        vv = v.values
        split_gap = float(np.max(np.abs(v_l.values + v_c.values - vv)) / np.max(np.abs(vv)))
        rows = nf.cells.shape[0]
        stored = nf.cells[np.add.outer(np.arange(rows), np.arange(rows)) >= rows - 1]
        n = self.n
        b = V.values[n:, n:]  # lattice indices 0..n on both axes
        dd2 = (b[1:, 1:] - b[1:, :-1] - b[:-1, 1:] + b[:-1, :-1]) ** 2
        qn_var = dd2.size * float(dd2.var(ddof=1))
        return split_gap, float(np.sum(stored * stored)), stored.size, qn_var

    def check(self, result) -> list:
        if self.first is not None:
            return [] if result == self.first else ["output differs from the run's first unit"]
        self.first = result
        theta, eps = self.params.theta, 1.0 / self.n
        th, qv, lim, qlin, gaps, sq, m, qvar = map(list, zip(*result))
        problems = []
        med = statistics.median(abs(t / theta - 1.0) for t in th)
        if not med < 0.05:
            problems.append(f"median |theta_hat/theta - 1| = {med:.4g}, not < 0.05")
        if not all(_close(t * t, q / l) for t, q, l in zip(th, qv, lim)):
            problems.append("estimate_theta^2 != quad_var / limit_functional")
        # linear Q_N against its Riemann limit 1/4; the standard error
        # treats the n^2 squared increments as independent, which
        # overstates the spread seen across realizations about twofold
        se = math.sqrt(sum(qvar)) / self.K
        mean_q = sum(qlin) / self.K
        if not abs(mean_q - 0.25) <= 3.0 * se:
            problems.append(f"mean linear Q_N {mean_q:.6g} is {abs(mean_q - 0.25) / se:.2f} SE from 1/4")
        if not max(gaps) <= 1e-11:
            problems.append(f"v_L + v_C - v reaches {max(gaps):.3g} of max|v|")
        # mean square of M stored N(0, eps^2) increments: chi-square / M,
        # relative standard error sqrt(2 / M); 5 errors wide
        ratio = sum(sq) / sum(m) / (eps * eps)
        if not abs(ratio - 1.0) <= 5.0 * math.sqrt(2.0 / sum(m)):
            problems.append(f"cell increment variance / eps^2 = {ratio:.6g}")
        return problems

    def reference_check(self) -> list:
        n, p = 8, self.params
        grid = RotatedGrid(n)
        problems = []
        for s in (self.pseed, 2**64 - 1):
            nf = noise.generate(grid, s)
            want_v = reference.march(n, n, n, p.a, p.m, p.theta, reference.shifted_sine(), s)
            want_V = reference.march(n, n, n, p.a, p.m, 1.0, reference.constant_one, s)
            v = solver.march(p, self.F, nf)
            V = solver.march_linear(p, nf)
            for (i, j), w in want_v.items():
                pairs = [(v.value(i, j), w), (V.value(i, j), want_V[i, j]),
                         (nf.increment_over_cell(i, j), reference.cell_increment(i, j, 1.0 / n, s))]
                if i + j == 1:
                    pairs.append((nf.increment_over_seed_triangle(i),
                                  reference.triangle_increment(i, 1.0 / n, s)))
                if not all(_close(g, r) for g, r in pairs):
                    problems.append(f"generate/march n={n} seed={s} at ({i}, {j}): {pairs}")
                    break
        return problems


WORKLOADS = {w.name: w for w in (LinearIncrement, ThetaEstimator, FieldWindow)}
