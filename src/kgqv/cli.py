"""Command line front end.

`kgqv run` assembles an ExperimentConfig from an optional flat JSON
config file plus flags (flags win), runs the experiment, writes one CSV
into the output directory, and prints the JSON summary on stdout.
Progress goes to stderr.  Exit codes: 0 all bounds met, 1 a bound
failed, 2 usage problem (a help request included), 3 numeric failure
or arrays too large to allocate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .errors import KgqvError, UsageError
from .experiments import EXPERIMENT_IDS, ExperimentConfig, run, summary_json, write_csv

# the run keys, each both a `kgqv run` flag and a config-file key:
# key -> (type, help text)
_RUN_KEYS = {
    "experiment": (str, "experiment identifier"),
    "a": (float, "damping coefficient"),
    "m": (float, "mass parameter"),
    "theta": (float, "diffusion scale"),
    "diffusion": (str, "diffusion coefficient identifier"),
    "n": (int, "finest resolution, a power of two"),
    "reps": (int, "replications per configuration"),
    "seed": (int, "master seed"),
    "out": (str, "output directory for the CSV"),
    "jobs": (int, "worker threads (default: the CPUs this process may run on)"),
}
# a config-file value of each key type, as the error messages name it
_KINDS = {float: "a number", int: "an integer", str: "a string"}


def _coerce(key: str, value):
    want = _RUN_KEYS[key][0]
    ok = (int, float) if want is float else want
    # bool is an int subtype, and never a valid value
    if isinstance(value, bool) or not isinstance(value, ok):
        got = "a boolean" if isinstance(value, bool) else repr(value)
        raise UsageError(f"config key {key!r} must be {_KINDS[want]}, got {got}")
    return float(value) if want is float else value


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, bytes that are not UTF-8
        raise UsageError(f"config file {path} cannot be read: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError("config file must hold a single JSON object")
    merged = {}
    for key, value in data.items():
        if key not in _RUN_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, value)
    return merged


def parse_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = {}
    if args.config is not None:
        merged.update(_load_config_file(args.config))
    for key in _RUN_KEYS:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    if "experiment" not in merged:
        raise UsageError("missing required option: experiment")
    return ExperimentConfig(**merged)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a malformed command line is a usage error like any other: stderr
        # starts with "error:", then the usage line, and the exit code is 2
        self.exit(2, f"error: {message}\n{self.format_usage()}")

    def print_help(self, file=None):
        # -h/--help runs no experiment, and exit 0 promises a JSON summary on
        # stdout: the help goes to stderr after an "error:" line, exit code 2
        self.exit(2, f"error: help requested, no experiment was run\n{self.format_help()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgqv",
        description="lattice experiments for a damped hyperbolic SPDE",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser(
        "run",
        help="run one verification experiment",
        description="Experiments: " + ", ".join(EXPERIMENT_IDS),
    )
    for key, (kind, text) in _RUN_KEYS.items():
        runp.add_argument(f"--{key}", type=kind, help=text)
        if key == "experiment":  # --config comes second in the usage line
            runp.add_argument("--config", help="flat JSON config file; flags override it")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args)
        with warnings.catch_warnings():
            # an overflow ends in a NumericError on its non-finite result
            # (exit 3); numpy's floating-point warnings would only put lines
            # of their own on stderr ahead of the "error:" line
            warnings.simplefilter("ignore", RuntimeWarning)
            report = run(cfg)
            text = summary_json(report)  # a numeric failure writes no file
        os.makedirs(cfg.out, exist_ok=True)
        write_csv(report, os.path.join(cfg.out, f"{cfg.experiment}.csv"))
        print(text)
        return 0 if report.passed else 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KgqvError, MemoryError) as exc:
        # an array past the machine's memory fails at once, after the progress lines
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
