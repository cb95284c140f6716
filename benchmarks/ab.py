"""Alternating A/B runs of perfbench/run.py between two checkouts.

    python3 benchmarks/ab.py --parent <dir> --change <dir> --seeds 19001-19010 \
        --workload theta-estimator [--workload ...] --what "<text>" \
        [--claim theta-estimator:wall_s] [--seconds 20] --out benchmarks/BENCH_<name>.json

Each checkout runs its own perfbench/run.py (`--trace 0`) on its own
sources, one fresh interpreter per run.  For every workload and seed the
two sides run back to back, the change first on even pair indices, so
drift of the host falls on both sides alike.  The result has the schema
of the other BENCH_*.json files: `what`, `parent_commit`, `machine`,
`claimed_gain` and, per workload, `runs` and a `summary` per end-to-end
metric of the change's BENCHMARK.json: each side's median and
quartiles (numpy's linear 25th/75th percentiles) and relative spread
(q3 - q1) / median, `change_worse_by` (the relative change of the
median in the metric's worse direction), the metric's bound, the pairs
the change won, and a `verdict`, the first of these that holds:

- `gain`: the change won at least 9 pairs in 10, and its median is
  better than the parent's by more than the parent's quartile distance;
- `worse`: `change_worse_by` exceeds the bound;
- `unresolved`: either side's spread exceeds the bound, and not every
  change run beats every parent run;
- `unchanged`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def seed_list(text: str) -> list[int]:
    """'19001-19003,19010' -> [19001, 19002, 19003, 19010]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_head(path: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(path), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its last stdout line, flattened to metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        **{k: round(v["value"], 4) for k, v in result["metrics"].items()},
    }


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: both sides' quartiles and spreads, worse-by, pairs won, verdict."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par = {r["seed"]: r[name] for r in runs if r["side"] == "parent"}
        chg = {r["seed"]: r[name] for r in runs if r["side"] == "change"}
        (pq1, pm, pq3), (cq1, cm, cq3) = (
            [float(q) for q in np.percentile(list(side.values()), [25, 50, 75])]
            for side in (par, chg))
        sign = 1.0 if lower else -1.0  # > 0 where the first value is the worse
        won = sum(sign * (par[s] - chg[s]) > 0 for s in par)
        worse_by = sign * (cm - pm) / pm
        pspread, cspread = (pq3 - pq1) / pm, (cq3 - cq1) / cm
        if won >= 0.9 * len(par) and sign * (pm - cm) > pq3 - pq1:
            verdict = "gain"
        elif worse_by > m["bound"]:
            verdict = "worse"
        elif max(pspread, cspread) > m["bound"] and not all(sign * (p - c) > 0 for p in par.values()
                                             for c in chg.values()):
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        out[name] = {
            "parent_median": round(pm, 4),
            "parent_q1": round(pq1, 4),
            "parent_q3": round(pq3, 4),
            "parent_spread": round(pspread, 4),
            "change_median": round(cm, 4),
            "change_q1": round(cq1, 4),
            "change_q3": round(cq3, 4),
            "change_spread": round(cspread, 4),
            "change_worse_by": round(worse_by, 4),
            "bound": m["bound"],
            "change_better_pairs": f"{won}/{len(par)}",
            "verdict": verdict,
        }
    return out


def machine() -> dict:
    info = {"cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}
    try:
        import scipy
    except ImportError:
        scipy = None
    info["scipy"] = scipy.__version__ if scipy else None
    info["compute_path"] = "numpy"
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seeds", required=True, type=seed_list)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--what", required=True)
    ap.add_argument("--claim", help="workload:metric of the claimed gain")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        claim = {"workload": workload, "metric": metric}
    record = {
        "what": args.what,
        "parent_commit": git_head(args.parent),
        "machine": machine(),
        "claimed_gain": claim,
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for k, seed in enumerate(args.seeds):
            order = ("change", "parent") if k % 2 == 0 else ("parent", "change")
            for side in order:
                checkout = args.change if side == "change" else args.parent
                run = {"seed": seed, "side": side,
                       **run_once(checkout, workload, seed, args.seconds)}
                runs.append(run)
                print(json.dumps({"workload": workload, **run}), file=sys.stderr, flush=True)
        record["workloads"][workload] = {"runs": runs,
                                         "summary": summarize(runs, bench["end_to_end"])}
        # written after every workload, so a cut session keeps what ran
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
