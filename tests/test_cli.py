"""Command-line behavior: flag/config merging, exit codes, stream
separation, and byte-level determinism across parallelism."""

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqv import _kernels, cli, experiments, greens, solver
from kgqv.errors import NumericError
from kgqv.experiments import EXPERIMENT_IDS, ExperimentReport


def run_main(args, capsys):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_proc(args):
    return subprocess.run(
        [sys.executable, "-m", "kgqv.cli", *args],
        capture_output=True,
        text=True,
    )


class TestUsageErrors:
    def test_missing_experiment_names_the_field(self, capsys):
        rc, _, err = run_main(["run"], capsys)
        assert rc == 2
        assert "experiment" in err

    def test_unknown_experiment_lists_valid_ids(self, capsys):
        rc, _, err = run_main(["run", "--experiment", "nope"], capsys)
        assert rc == 2
        assert "green_identities" in err and "oracle_check" in err

    def test_non_power_of_two_resolution(self, capsys):
        rc, _, err = run_main(
            ["run", "--experiment", "linear_variance", "--n", "100"], capsys
        )
        assert rc == 2
        assert "power of two" in err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--granularity", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [["--help"], ["run", "--help"], ["run", "-h"]])
    def test_help_runs_nothing_and_keeps_stdout_empty(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        first, rest = captured.err.split("\n", 1)
        assert first == "error: help requested, no experiment was run"
        assert rest.startswith("usage: kgqv")

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "oracle_check", "epsilon": 0.1}))
        rc, _, err = run_main(["run", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "epsilon" in err

    def test_config_wrong_type_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "oracle_check", "n": "big"}))
        rc, _, err = run_main(["run", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "n" in err

    def test_config_boolean_rejected_for_number(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "oracle_check", "a": True}))
        rc, _, err = run_main(["run", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "boolean" in err

    @pytest.mark.parametrize(
        "key, kind", [("n", "an integer"), ("a", "a number"), ("out", "a string")]
    )
    def test_config_boolean_error_names_the_key_type(self, tmp_path, capsys, key, kind):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "oracle_check", key: True}))
        rc, _, err = run_main(["run", "--config", str(cfg)], capsys)
        assert rc == 2
        assert err.startswith(f"error: config key '{key}' must be {kind}, got a boolean\n")

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        for content, message in [
            (b"{not json", "is not valid JSON"),
            (b'{"experiment": "oracle_check\xff"}', "cannot be read: 'utf-8' codec can't decode"),
        ]:
            cfg.write_bytes(content)
            rc, out, err = run_main(["run", "--config", str(cfg)], capsys)
            assert rc == 2
            assert out == ""
            assert err.startswith(f"error: config file {cfg} {message}"), err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        rc, _, err = run_main(["run", "--config", str(cfg)], capsys)
        assert rc == 2

    def test_missing_config_file(self, tmp_path, capsys):
        # a missing file, then a directory
        for path, message in [("/no/such/file.json", "not found"),
                              (str(tmp_path), "Is a directory")]:
            rc, out, err = run_main(["run", "--config", path], capsys)
            assert rc == 2
            assert out == ""
            assert err.startswith("error:") and message in err, err

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exits_two_before_the_run(
        self, under, tmp_path, capsys
    ):
        # refused before the run: otherwise the experiment would run to its
        # end before makedirs failed
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "sub" if under else blocker
        rc, stdout, err = run_main(
            ["run", "--experiment", "oracle_check", "--out", str(out)], capsys
        )
        assert rc == 2
        assert stdout == ""
        assert err == f"error: out {out} cannot be a directory: {blocker} is not one\n"
        assert blocker.read_text() == "kept"

    def test_jobs_past_the_ceiling_exit_two_before_any_thread(
        self, tmp_path, capsys, monkeypatch
    ):
        # --jobs past the reps would hand every seed a thread of its own
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
        rc, out, err = run_main(
            ["run", "--experiment", "linear_variance", "--n", "64", "--reps", "500",
             "--jobs", "100000", "--out", str(tmp_path)],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert err == f"error: jobs must be between 1 and {experiments.MAX_JOBS}, got 100000\n"
        assert not any(tmp_path.iterdir())

    # 2^64 would otherwise be masked to the key of seed 0, and 2^64 - 2
    # with 3 reps would wrap its last seed to 0
    @pytest.mark.parametrize("seed,reps", [(2**64, 1), (2**64 - 2, 3)])
    def test_seeds_past_two_to_the_64_are_rejected_not_aliased(
        self, seed, reps, tmp_path, capsys
    ):
        rc, out, err = run_main(
            ["run", "--experiment", "oracle_check", "--reps", str(reps),
             "--seed", str(seed), "--out", str(tmp_path)],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "2^64" in err

    # past n = 2^30 a march's anti-diagonals no longer fit the 32-bit Philox
    # counter word; 2^63 used to end in a ValueError traceback and 2^70 in
    # an OverflowError one, both with exit 1
    @pytest.mark.parametrize("exp", ["linear_variance", "remainder_rate"])
    @pytest.mark.parametrize("k", [31, 50, 63, 70])
    def test_n_past_the_counter_range_exits_two_before_the_run(self, exp, k, tmp_path, capsys):
        out = tmp_path / "out"
        rc, stdout, err = run_main(
            ["run", "--experiment", exp, "--n", str(2**k), "--reps", "500", "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert stdout == ""
        assert err == (f"error: n must be at most 2^30 (lattice indices are 32-bit "
                       f"Philox counter words), got {2**k}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "exp,n", [("remainder_rate", 128), ("quadvar_rate", 256), ("estimator_consistency", 128)]
    )
    def test_seed_span_error_comes_before_any_progress_line(self, exp, n, tmp_path, capsys):
        rc, out, err = run_main(
            ["run", "--experiment", exp, "--n", str(n), "--reps", "100",
             "--seed", str(2**64 - 16), "--out", str(tmp_path)],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: seed + replications must not exceed 2^64"), err

    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["--experiment", "green_identities", "--n", "64"], None,
             "green_identities does not read n"),
            (["--experiment", "linear_variance", "--n", "64", "--reps", "500",
              "--theta", "2.0"], None,
             "linear_variance does not read theta"),
            ([], {"experiment": "kernel_lemma", "reps": 100},
             "kernel_lemma does not read reps"),
            ([], {"experiment": "oracle_check", "n": 16},
             "oracle_check does not read n"),
        ],
    )
    def test_a_key_the_experiment_does_not_read_exits_two(
        self, args, config, message, tmp_path, capsys
    ):
        out = tmp_path / "out"
        if config is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            args = args + ["--config", str(path)]
        rc, stdout, err = run_main(["run", *args, "--out", str(out)], capsys)
        assert rc == 2
        assert stdout == ""
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("theta", ["1", "2", "3"])
    def test_remainder_rate_refuses_a_constant_diffusion(self, theta, tmp_path, capsys):
        # with F constant the remainder is round-off: a log-log fit of it
        # either fails (exit 3) or gives a slope of rounding noise (exit 1)
        out = tmp_path / "out"
        rc, stdout, err = run_main(
            ["run", "--experiment", "remainder_rate", "--diffusion", "constant_one",
             "--theta", theta, "--n", "128", "--reps", "100", "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert stdout == ""
        assert err.startswith("error: remainder_rate needs a non-constant diffusion:"), err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--a", "nan"), ("--theta", "inf")])
    def test_non_finite_parameter_is_a_usage_error(
        self, flag, value, tmp_path, capsys
    ):
        rc, out, err = run_main(
            ["run", "--experiment", "oracle_check", flag, value,
             "--out", str(tmp_path)],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err


class TestRuns:
    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {"experiment": "green_identities", "seed": 3, "out": str(tmp_path)}
            )
        )
        rc, out, _ = run_main(["run", "--config", str(cfg), "--seed", "9"], capsys)
        assert rc == 0
        assert json.loads(out)["seed"] == 9

    def test_config_file_alone_supplies_everything(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {"experiment": "green_identities", "seed": 3, "out": str(tmp_path)}
            )
        )
        rc, out, _ = run_main(["run", "--config", str(cfg)], capsys)
        assert rc == 0
        assert json.loads(out)["seed"] == 3
        assert (tmp_path / "green_identities.csv").exists()

    def test_stdout_is_json_and_progress_is_on_stderr(self, tmp_path, capsys):
        rc, out, err = run_main(
            ["run", "--experiment", "oracle_check", "--out", str(tmp_path)], capsys
        )
        assert rc == 0
        payload = json.loads(out)  # stdout must parse as a whole
        assert payload["experiment"] == "oracle_check"
        assert "oracle_check" in err

    def test_csv_has_comments_then_header_then_rows(self, tmp_path, capsys):
        rc, out, _ = run_main(
            ["run", "--experiment", "green_identities", "--out", str(tmp_path)],
            capsys,
        )
        assert rc == 0
        lines = (tmp_path / "green_identities.csv").read_text().splitlines()
        head = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert head and body[0].startswith("a,m,t,xi")
        assert len(body) - 1 == json.loads(out)["summary"]["points"]

    def test_failed_bound_exits_one(self, tmp_path, capsys):
        # the p=1 damped quadratures level off above the target, so this
        # configuration reports a failed bound, not an error
        rc, out, _ = run_main(
            ["run", "--experiment", "kernel_lemma", "--n", "64",
             "--out", str(tmp_path)],
            capsys,
        )
        assert rc == 1
        assert json.loads(out)["passed"] is False

    def test_numeric_error_exits_three(self, capsys, monkeypatch):
        def boom(cfg):
            raise NumericError("statistic went non-finite")

        monkeypatch.setattr(cli, "run", boom)
        rc, _, err = run_main(["run", "--experiment", "oracle_check"], capsys)
        assert rc == 3
        assert "non-finite" in err

    @pytest.mark.parametrize("exp", ["linear_variance", "remainder_rate"])
    def test_arrays_too_large_to_allocate_exit_three(self, exp, tmp_path, capsys, monkeypatch):
        # the first allocation of a march past the machine's memory fails at
        # once with numpy's MemoryError, which used to end the run in a
        # traceback with exit 1
        def refuse(seeds, max_count):
            raise MemoryError("Unable to allocate 400. GiB for an array with shape "
                              "(53687091200,) and data type uint64")

        monkeypatch.setattr(_kernels, "_LayerNoise", refuse)
        out = tmp_path / "out"
        rc, stdout, err = run_main(["run", "--experiment", exp, "--out", str(out)], capsys)
        assert rc == 3
        assert stdout == ""
        assert err.splitlines()[-1] == ("error: Unable to allocate 400. GiB for an array "
                                        "with shape (53687091200,) and data type uint64")
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_finite_summary_exits_three_and_writes_no_csv(
        self, tmp_path, capsys, monkeypatch
    ):
        def nan_report(cfg):
            return ExperimentReport(
                experiment=cfg.experiment, columns=("n", "x"), rows=[(8, 0.5)],
                summary={"x": float("nan")}, passed=True, seed=cfg.seed,
                wall_time_s=0.0, version="0.1.0", config={},
            )

        monkeypatch.setattr(cli, "run", nan_report)
        out = tmp_path / "out"
        rc, stdout, err = run_main(
            ["run", "--experiment", "oracle_check", "--out", str(out)], capsys
        )
        assert rc == 3
        assert stdout == ""
        assert err.startswith("error:") and "non-finite" in err
        assert not out.exists()


    def test_blown_up_field_exits_three_and_writes_no_csv(self, tmp_path, capsys):
        # the affine field overflows at theta = 1e200; before the marching
        # kernels checked their results, the nan sup-differences became a
        # "below thresholds" verdict and exit 1
        out = tmp_path / "out"
        rc, stdout, err = run_main(
            ["run", "--experiment", "oracle_check", "--theta", "1e200",
             "--diffusion", "affine", "--reps", "1", "--out", str(out)],
            capsys,
        )
        assert rc == 3
        assert stdout == ""
        assert err.startswith("error:") and "not finite" in err
        assert not out.exists()

    def test_large_finite_oracle_gap_is_a_verdict(self, tmp_path, capsys):
        # both fields stay finite at theta = 20; a sweep-to-sweep growth
        # heuristic once called this a diverging oracle and exited 3
        rc, out, _ = run_main(
            ["run", "--experiment", "oracle_check", "--theta", "20",
             "--diffusion", "affine", "--out", str(tmp_path)],
            capsys,
        )
        assert rc == 1
        gaps = json.loads(out)["summary"]["max_sup_diff"]
        assert all(math.isfinite(gaps[n]) and gaps[n] > 1.0 for n in ("8", "16"))
        assert (tmp_path / "oracle_check.csv").exists()


    def test_overflow_puts_only_progress_lines_before_the_error(self, tmp_path):
        # the summary statistics overflow at theta = 1e200; numpy's warnings
        # used to land on stderr between the progress line and the error.
        # A fresh process shows them: pytest would record them instead.
        # Two threads march the chunks, and the error still comes last
        for exp in ("remainder_rate", "estimator_consistency"):
            r = run_proc(
                ["run", "--experiment", exp, "--n", "128", "--reps", "100",
                 "--theta", "1e200", "--jobs", "2", "--out", str(tmp_path)]
            )
            assert r.returncode == 3
            assert r.stdout == ""
            *progress, last = r.stderr.splitlines()
            assert progress and all(line.startswith(f"{exp}:") for line in progress), r.stderr
            assert last.startswith("error:")

    @pytest.mark.parametrize(
        "args, ns",
        [
            # (N, F, a) per line: quadvar_rate's linear part first, then its
            # nonlinear part
            (["quadvar_rate", "--n", "256"],
             [(N, "constant_one", "0") for N in (64, 128, 256)]
             + [(N, "shifted_sine", "1") for N in (64, 128, 256)]),
            (["estimator_consistency", "--n", "128"],
             [(N, "shifted_sine", "1") for N in (64, 128)]),
        ],
    )
    def test_one_progress_line_per_resolution_before_the_summary(self, args, ns, tmp_path):
        # the resolutions march in shared calls, and each still announces
        # itself on stderr before stdout's summary
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
            rc = cli.main(["run", "--experiment", *args, "--reps", "100", "--out", str(tmp_path)])
        assert rc in (0, 1)
        progress, brace, summary = stream.getvalue().partition("{")
        json.loads(brace + summary)
        pattern = re.compile(rf"{args[0]}: N=(\d+) reps=100 F=(\w+) a=(\S+)")
        fields = [pattern.fullmatch(line) for line in progress.splitlines()]
        assert all(fields), progress
        assert [(int(f[1]), f[2], f[3]) for f in fields] == ns


    def test_one_progress_line_per_level_before_the_summary(self, tmp_path):
        # the levels march in shared calls, finest first, and each still
        # announces itself on stderr, coarsest first, before stdout's summary
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
            rc = cli.main(["run", "--experiment", "linear_variance", "--n", "64",
                           "--reps", "500", "--out", str(tmp_path)])
        assert rc in (0, 1)
        progress, brace, summary = stream.getvalue().partition("{")
        json.loads(brace + summary)
        assert progress.splitlines() == [
            "linear_variance: eps=2^-4 reps=100",
            "linear_variance: eps=2^-5 reps=250",
            "linear_variance: eps=2^-6 reps=500",
        ]


class TestDeterminism:
    BASE = [
        "run", "--experiment", "linear_variance", "--n", "64",
        "--seed", "7",
    ]

    @staticmethod
    def stripped(payload: str) -> dict:
        d = json.loads(payload)
        d.pop("wall_time_s")
        return d

    def test_byte_identical_across_jobs(self, tmp_path):
        # linear_variance's reps span several scheduler chunks;
        # estimator_consistency's 100 fit in one that jobs 2 and 3 split
        estimator = [
            "run", "--experiment", "estimator_consistency", "--n", "128",
            "--reps", "100", "--seed", "11",
        ]
        cases = [
            ("linear_variance", self.BASE + ["--reps", "9000"], ("1", "2")),
            ("estimator_consistency", estimator, ("1", "2", "3")),
        ]
        for exp, args, jobs_list in cases:
            outs = []
            for jobs in jobs_list:
                out = tmp_path / f"{exp}-j{jobs}"
                r = run_proc(args + ["--jobs", jobs, "--out", str(out)])
                assert r.returncode == 0, r.stderr
                outs.append(
                    ((out / f"{exp}.csv").read_bytes(), self.stripped(r.stdout))
                )
            assert all(o == outs[0] for o in outs[1:]), exp

    def test_byte_identical_rerun(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            r = run_proc(
                self.BASE + ["--reps", "600", "--jobs", "2", "--out", str(out)]
            )
            assert r.returncode == 0, r.stderr
            blobs.append((out / "linear_variance.csv").read_bytes())
            blobs.append(self.stripped(r.stdout))
        assert blobs[0] == blobs[2]
        assert blobs[1] == blobs[3]


# --n and --reps at each experiment's floor, so a drawn config that
# validates runs in about a second; quadvar_rate gets an n below its
# floor of 256, where one run takes seconds
SMALLEST = {("quadvar_rate", "n"): 128}
VALID = {
    "--a": ["0.5", "1.0"],
    "--m": ["0.3", "0.5"],
    "--theta": ["2.0", "1e200"],  # 1e200 blows up most fields: exit 3
    "--diffusion": ["affine", "clipped_linear", "shifted_sine"],
    "--seed": ["0", "3"],
    "--jobs": ["1", "2", "3"],
}
# a well-formed value of each model key, set where the experiment does
# not read it
UNREAD = {"--a": "0.5", "--m": "0.5", "--theta": "2.0", "--diffusion": "affine",
          "--n": "64", "--reps": "100"}
INVALID = {
    "--experiment": ["nope"],
    "--n": ["0", "3", "x"],
    "--reps": ["0", "-1"],
    "--a": ["nan"],
    "--m": ["inf"],
    "--theta": ["0"],
    "--diffusion": ["nope"],
    "--seed": ["-1", str(2**64)],
    "--jobs": ["0", "y"],
}


def unread_flags(exp):
    return [f for f in UNREAD if f[2:] not in experiments._EXPERIMENTS[exp][1]]


@st.composite
def small_configs(draw):
    """A small command line of the keys the experiment reads, with a key
    it does not read some of the time and one flag made invalid half the
    time."""
    exp = draw(st.sampled_from(EXPERIMENT_IDS))
    table = experiments._EXPERIMENTS[exp][1]
    flags = {"--experiment": exp}
    for key in ("n", "reps"):
        if key in table:
            flags[f"--{key}"] = str(SMALLEST.get((exp, key), table[key][1]))
    for flag, values in VALID.items():
        if flag in ("--seed", "--jobs") or flag[2:] in table:
            value = draw(st.none() | st.sampled_from(values))
            if value is not None:
                flags[flag] = value
    unread = unread_flags(exp)
    if unread and draw(st.integers(0, 3)) == 0:
        flag = draw(st.sampled_from(unread))
        flags[flag] = UNREAD[flag]
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(INVALID)))
        flags[flag] = draw(st.sampled_from(INVALID[flag]))
    return ["run", *(word for item in flags.items() for word in item)]


def _no_constant(name):
    raise ValueError(f"stdout holds the non-JSON token {name}")


class TestContract:
    @settings(max_examples=60, deadline=None)
    @given(small_configs())
    def test_exit_code_and_streams(self, args):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main([*args, "--out", tmp])
                except SystemExit as exc:  # argparse rejects a malformed flag
                    rc = exc.code
        assert rc in (0, 1, 2, 3)
        exp = args[args.index("--experiment") + 1]
        if exp in EXPERIMENT_IDS and any(f in args for f in unread_flags(exp)):
            assert rc == 2, err.getvalue()
        if rc in (0, 1):
            json.loads(out.getvalue(), parse_constant=_no_constant)
        else:
            assert out.getvalue() == ""
            # a usage error stops the run before its first progress line; a
            # numeric failure may follow progress lines, which name the experiment
            text = err.getvalue()
            if rc == 3:
                while text.startswith(f"{exp}:"):
                    text = text.split("\n", 1)[1]
            assert text.startswith("error:"), err.getvalue()


def _settings_cell(entry):
    if entry is None:
        return "-"
    default, floor = entry
    text = ", ".join(map(str, default)) if isinstance(default, tuple) else str(default)
    return text if floor is None else f"{text} (>= {floor})"


class TestReadme:
    def test_usage_block_lists_exactly_the_parsers_flags(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line\n\n", 1)[1].split("\n\n", 1)[0]
        sub = next(
            a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        flags = [
            s for a in sub.choices["run"]._actions for s in a.option_strings
            if s.startswith("--") and s != "--help"
        ]
        assert re.findall(r"--\w+", block) == flags

    def test_run_key_table_matches_the_settings(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        head = "| experiment | " + " | ".join(experiments._KEYS) + " |\n"
        table = readme.split(head, 1)[1].split("\n\n", 1)[0].splitlines()[1:]
        got = {}
        for line in table:
            exp, *cells = [c.strip() for c in line.strip("|").split("|")]
            got[exp] = cells
        want = {
            exp: [_settings_cell(keys.get(k)) for k in experiments._KEYS]
            for exp, (_, keys) in experiments._EXPERIMENTS.items()
        }
        assert got == want

    def test_id_lists_follow_the_code(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        exps, rest = readme.split("Experiment ids: ", 1)[1].split("Diffusion ids: ", 1)
        diffusions = rest.split("\n\n", 1)[0]
        assert tuple(re.findall(r"`(\w+)`", exps)) == EXPERIMENT_IDS
        assert tuple(re.findall(r"`(\w+)`", diffusions)) == greens.DIFFUSION_IDS
        # the diffusion menu is declared in both modules
        assert tuple(solver._FACTORIES) == greens.DIFFUSION_IDS


# run the CLI with every scipy import failing, as on a numpy-only install
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from kgqv import cli
sys.exit(cli.main(sys.argv[1:]))
"""


class TestStartup:
    @pytest.mark.parametrize(
        "args",
        [["oracle_check", "--reps", "1"], ["kernel_lemma", "--n", "64"]],
        ids=lambda a: a[0],
    )
    def test_import_loads_no_scipy_and_the_oracles_still_run(self, args, tmp_path):
        argv = ["run", "--experiment", *args, "--out", str(tmp_path)]
        r = subprocess.run(
            [sys.executable, "-c", NO_SCIPY, *argv], capture_output=True, text=True
        )
        assert r.returncode in (0, 1), r.stderr
        summary = json.loads(r.stdout, parse_constant=_no_constant)
        assert summary["experiment"] == args[0]
