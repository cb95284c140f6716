"""End-to-end benchmark for kgqv: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md): linear-increment, theta-estimator,
field-window.  The program is imported from ../src; the benchmark drives
it only from outside, through kgqv.cli.main or the public API.

A run measures set-up in fresh interpreters, checks the program once
against the plain-Python reference, runs one warm-up unit, then repeats
units for --seconds and reports the median.  Every unit's output is
checked.  With --trace 0 the result holds the end-to-end metrics; with
--trace 1 traced and untraced units alternate and the result holds the
per-layer metrics and the tracing overhead.  The last line of stdout is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("linear-increment", "theta-estimator", "field-window")
SETUP_SPAWNS = 3
IMPORTTIME_SPAWNS = 3
MIN_UNITS = 3  # measured units per run, at least; a traced run takes twice as many

LAYER_UNITS = {
    "kernels.march_points.ns_per_cell": "ns",
    "kernels.march_points.cells": "count",
    "kernels.march_points.seeds_per_call": "count",
    "kernels.march_qv.ns_per_cell": "ns",
    "kernels.march_qv.cells": "count",
    "kernels.march_qv.calls": "count",
    "kernels.march_qv.thread_busy_share": "ratio",
    "kernels.lattice_normals.ns_per_value": "ns",
    "kernels.lattice_normals.values": "count",
    "kernels.lattice_normals.peak_alloc_mb": "MiB",
    "kernels.march_window.ns_per_cell": "ns",
    "noise.generate.self_ns_per_cell": "ns",
    "solver.march_split.self_ns_per_cell": "ns",
    "analysis.increment_samples.self_ms": "ms",
    "analysis.reduce_ms": "ms",
    "analysis.window_stats_ms_per_field": "ms",
    "experiments.run.self_ms": "ms",
    "cli.write_csv_ms": "ms",
    "cli.summary_json_ms": "ms",
    "setup.import_s.numpy": "s",
    "setup.import_s.scipy": "s",
    "setup.import_s.kgqv": "s",
    "setup.import_s.other": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _spawn_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Median seconds from interpreter start until kgqv.cli is imported."""
    cmd = [sys.executable, "-c", "import kgqv.cli"]
    env = _spawn_env()
    subprocess.run(cmd, env=env, check=True)  # writes bytecode in a fresh checkout
    samples = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \| \s*(\S+)")


def import_times() -> dict:
    """Seconds of own import time by top-level package, from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import kgqv.cli"]
    runs = []
    for _ in range(IMPORTTIME_SPAWNS):
        err = subprocess.run(cmd, env=_spawn_env(), check=True,
                             capture_output=True, text=True).stderr
        by_pkg = dict.fromkeys(("numpy", "scipy", "kgqv", "other"), 0.0)
        for us, name in _IMPORT_LINE.findall(err):
            top = name.split(".")[0]
            by_pkg[top if top in by_pkg else "other"] += int(us) * 1e-6
        runs.append(by_pkg)
    return {f"setup.import_s.{k}": statistics.median(r[k] for r in runs) for k in runs[0]}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed checks on units that ran

    def attempt(self, workload):
        """One unit; returns its wall time, or None when it raised."""
        self.attempted += 1
        try:
            wall, result = workload.unit()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"unit {self.attempted} failed: {exc!r}", file=sys.stderr)
            return None
        self.problems.extend(workload.check(result))
        return wall


def _keep_going(walls, attempts, started, seconds, min_units) -> bool:
    if attempts < min_units:
        return True
    if not walls:
        return False
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def measure(workload, tally, seconds):
    walls = []
    started = time.perf_counter()
    attempts = 0
    while _keep_going(walls, attempts, started, seconds, MIN_UNITS):
        attempts += 1
        wall = tally.attempt(workload)
        if wall is not None:
            walls.append(wall)
    return walls


def measure_traced(workload, tally, seconds):
    from spans import SpanView, Tracer
    from workloads import install_trace, layer_metrics

    tracer = Tracer()
    traced, plain, layers = [], [], []
    started = time.perf_counter()
    attempts = 0
    while _keep_going(plain, attempts, started, seconds, 2 * MIN_UNITS):
        attempts += 1
        if attempts % 2:
            mark = tracer.mark()
            install_trace(tracer)
            try:
                wall = tally.attempt(workload)
            finally:
                tracer.restore()
            if wall is not None:
                traced.append(wall)
                view = SpanView(tracer.spans[mark:])
                layers.append(layer_metrics(view, wall, workload.jobs, workload.fields))
        else:
            wall = tally.attempt(workload)
            if wall is not None:
                plain.append(wall)
    return tracer, traced, plain, layers


def lattice_peak_alloc_mb(workload) -> float:
    if workload.lattice_args is None:
        return 0.0
    from kgqv import _kernels

    tracemalloc.start()
    try:
        _kernels.lattice_normals(*workload.lattice_args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "kgqv" / "__init__.py").is_file():
        print(f"error: no kgqv sources at {SRC}", file=sys.stderr)
        return 2

    outdir = HERE / "_runs" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        setup = import_times()
    else:
        setup = {"setup_s": measure_setup()}

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, str(outdir))
    tally = Tally()
    tally.problems.extend(workload.reference_check())
    tally.attempt(workload)  # warm-up: checked in full, not timed
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if args.trace:
        tracer, traced, plain, layers = measure_traced(workload, tally, args.seconds)
        if not layers or not plain:
            print("error: no unit completed", file=sys.stderr)
            return 1
        values = {k: statistics.median(u[k] for u in layers) for k in layers[0]}
        values.update(setup)
        values["kernels.lattice_normals.peak_alloc_mb"] = lattice_peak_alloc_mb(workload)
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
        tracer.write(outdir / f"spans-seed{args.seed}.json")
        record.update(traced_s=traced, untraced_s=plain)
    else:
        walls = measure(workload, tally, args.seconds)
        if not walls:
            print("error: no unit completed", file=sys.stderr)
            return 1
        wall = statistics.median(walls)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "mcells_per_s": {"value": workload.cells / wall / 1e6, "unit": "Mcell/s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        }
        record.update(unit_s=walls)

    for p in tally.problems:
        print(f"check: {p}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record.update(result=result, problems=tally.problems)
    with open(outdir / f"record-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
