"""Harness-level behavior: config validation, chunked replication,
report serialization.  Statistical verdicts live in test_acceptance."""

import hashlib
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kgqv import _kernels, cli, experiments, solver
from kgqv.coords import RotatedGrid
from kgqv.errors import KgqvError, NumericError, UsageError
from kgqv.experiments import ExperimentConfig, ExperimentReport

from test_noise import (
    dispatch_skip_reason,
    skip_unless_recorded_noise,
    skip_unless_recorded_numpy,
)


def report_stub(**over):
    base = dict(
        experiment="oracle_check",
        columns=("n", "x"),
        rows=[(8, 0.5), (16, 0.25)],
        summary={"ok": True},
        passed=True,
        seed=3,
        wall_time_s=0.5,
        version="0.1.0",
        config={"experiment": "oracle_check", "a": None, "seed": 3},
    )
    base.update(over)
    return ExperimentReport(**base)


class TestConfigValidation:
    def test_unknown_experiment_lists_choices(self):
        with pytest.raises(UsageError, match="green_identities"):
            experiments.validate_config(ExperimentConfig(experiment="greens"))

    def test_non_power_of_two_resolution(self):
        cfg = ExperimentConfig(experiment="linear_variance", n=100)
        with pytest.raises(UsageError, match="power of two"):
            experiments.validate_config(cfg)

    def test_reps_must_be_positive(self):
        cfg = ExperimentConfig(experiment="oracle_check", reps=0)
        with pytest.raises(UsageError, match="reps"):
            experiments.validate_config(cfg)

    def test_jobs_must_be_positive(self):
        cfg = ExperimentConfig(experiment="oracle_check", jobs=0)
        with pytest.raises(UsageError, match="jobs"):
            experiments.validate_config(cfg)

    def test_jobs_above_the_ceiling_rejected(self):
        ok = ExperimentConfig(experiment="linear_variance", jobs=experiments.MAX_JOBS)
        experiments.validate_config(ok)
        for jobs in (experiments.MAX_JOBS + 1, 100000):
            cfg = ExperimentConfig(experiment="linear_variance", jobs=jobs)
            with pytest.raises(UsageError, match=f"between 1 and {experiments.MAX_JOBS}"):
                experiments.validate_config(cfg)

    def test_default_jobs_stay_within_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "sched_getaffinity",
                            lambda pid: set(range(4 * experiments.MAX_JOBS)))
        assert experiments._default_jobs() == experiments.MAX_JOBS

    def test_negative_seed_rejected(self):
        cfg = ExperimentConfig(experiment="oracle_check", seed=-1)
        with pytest.raises(UsageError, match="seed"):
            experiments.validate_config(cfg)

    def test_seed_must_be_below_two_to_the_64(self):
        cfg = ExperimentConfig(experiment="oracle_check", seed=2**64)
        with pytest.raises(UsageError, match="seed"):
            experiments.validate_config(cfg)

    @pytest.mark.parametrize("reps", [None, 1000])
    def test_seeds_may_not_run_past_two_to_the_64(self, reps):
        # each experiment checks the span of the reps it resolves, from
        # the config or its own default, before any march
        for exp, n in [("oracle_check", None), ("linear_variance", 128),
                       ("remainder_rate", 128), ("quadvar_rate", 256),
                       ("estimator_consistency", 128)]:
            cfg = ExperimentConfig(experiment=exp, seed=2**64 - 2, n=n, reps=reps)
            with pytest.raises(UsageError, match="2\\^64"):
                experiments.run(cfg)

    @pytest.mark.parametrize("field", ["a", "m", "theta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, field, value):
        cfg = ExperimentConfig(experiment="oracle_check", **{field: value})
        with pytest.raises(UsageError, match=f"{field} must be finite"):
            experiments.validate_config(cfg)

    def test_bad_diffusion_id_rejected(self):
        cfg = ExperimentConfig(experiment="oracle_check", diffusion="cubic")
        with pytest.raises(UsageError):
            experiments.validate_config(cfg)

    def test_negative_theta_rejected(self):
        cfg = ExperimentConfig(experiment="oracle_check", theta=-1.0)
        with pytest.raises(UsageError):
            experiments.validate_config(cfg)

    def test_estimator_default_theta_is_two(self):
        p = experiments.validate_config(
            ExperimentConfig(experiment="estimator_consistency")
        )["params"]
        assert p.theta == 2.0
        q = experiments.validate_config(ExperimentConfig(experiment="quadvar_rate"))
        assert q["params"].theta == 1.0

    @pytest.mark.parametrize("exp", sorted(experiments._EXPERIMENTS))
    def test_a_key_the_experiment_does_not_read_is_refused(self, exp):
        table = experiments._EXPERIMENTS[exp][1]
        values = {"a": 0.5, "m": 0.5, "theta": 2.0, "diffusion": "affine",
                  "n": 512, "reps": 1000}
        for key, value in values.items():
            cfg = ExperimentConfig(experiment=exp, **{key: value})
            if key in table:
                experiments.validate_config(cfg)
            else:
                with pytest.raises(UsageError, match=f"^{exp} does not read {key}$"):
                    experiments.validate_config(cfg)

    def test_quadvar_reps_default_per_part_and_set_for_both(self):
        default = experiments.validate_config(ExperimentConfig(experiment="quadvar_rate"))
        assert default["reps"] == (500, 200)
        cfg = ExperimentConfig(experiment="quadvar_rate", reps=300)
        assert experiments.validate_config(cfg)["reps"] == (300, 300)

    def test_experiment_size_floors(self):
        for exp, n in [
            ("linear_variance", 32),
            ("remainder_rate", 64),
            ("quadvar_rate", 128),
            ("estimator_consistency", 64),
        ]:
            with pytest.raises(UsageError, match="needs n"):
                experiments.run(ExperimentConfig(experiment=exp, n=n))


class TestSeedRows:
    TOTALS = (1, 2, 199, 200, 256, 257, 600, 3 * experiments._CHUNK + 17)

    def test_chunking_and_jobs_do_not_change_rows(self, tmp_path):
        def rows(seeds):
            return np.column_stack([seeds.astype(float), np.sqrt(seeds + 0.5)])

        for total in self.TOTALS:
            serial = rows(5 + np.arange(total, dtype=np.uint64))
            for jobs in (1, 2, 3):
                calls = tmp_path / f"{total}-{jobs}"
                calls.mkdir()

                def worker(seeds):
                    # one file per chunk: the chunks may run in other processes
                    (calls / str(seeds[0])).write_text(str(len(seeds)))
                    return rows(seeds)

                out = experiments._seed_rows(worker, 5, total, jobs)
                assert out.tobytes() == serial.tobytes(), (total, jobs)
                plan = experiments._chunk_sizes(total, jobs)
                sizes = [int(f.read_text()) for f in calls.iterdir()]
                assert sorted(sizes) == sorted(plan), (total, jobs)

    def test_rows_are_seed_ordered(self):
        def worker(seeds):
            return seeds.astype(float)[:, None]

        out = experiments._seed_rows(worker, 0, experiments._CHUNK + 3, jobs=2)
        assert np.array_equal(out.ravel(), np.arange(experiments._CHUNK + 3.0))

    @pytest.mark.parametrize("total", TOTALS)
    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 7])
    def test_plan_is_balanced(self, total, jobs):
        sizes = experiments._chunk_sizes(total, jobs)
        assert sum(sizes) == total
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= experiments._CHUNK
        if jobs == 1:
            # the fewest kernel calls with no chunk above _CHUNK
            assert len(sizes) == -(-total // experiments._CHUNK)
        elif total >= jobs:
            assert len(sizes) % jobs == 0
        else:
            assert sizes == [1] * total

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_no_seeds_make_no_chunks(self, jobs):
        # an empty seed span once divided by zero in the plan
        assert experiments._chunk_sizes(0, jobs) == []
        calls = []

        def worker(seeds):
            calls.append(len(seeds))
            return np.zeros((len(seeds), 2))

        out = experiments._seed_rows(worker, 5, 0, jobs)
        assert out.shape == (0, 2)
        assert calls == [0]

    def test_a_failed_chunk_starts_no_other(self, tmp_path):
        # with no stop, the worker whose chunk raised picks up chunk 2
        total = 4 * experiments._CHUNK
        assert len(experiments._chunk_sizes(total, 2)) == 4
        raised = multiprocessing.get_context("fork").Event()

        def worker(seeds):
            (tmp_path / str(seeds[0])).touch()  # chunks started, in any process
            if seeds[0] == 0:
                raised.set()
                raise NumericError("chunk 0 failed")
            raised.wait(5.0)
            time.sleep(0.2)  # the other chunk is still running when chunk 0 fails
            return seeds.astype(float)[:, None]

        with pytest.raises(NumericError, match="chunk 0 failed"):
            experiments._seed_rows(worker, 0, total, jobs=2)
        started = sorted(int(f.name) for f in tmp_path.iterdir())
        assert started[0] == 0 and len(started) <= 2, started

    def test_two_jobs_split_the_default_estimator_reps(self):
        # estimator_consistency's 200 default reps fit in one chunk, and
        # still give both workers half of them
        assert experiments._chunk_sizes(200, 2) == [100, 100]

    def test_workers_share_the_chunks(self):
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=10)

        def worker(seeds):
            barrier.wait()  # each of the two chunks needs its own worker
            return np.full((len(seeds), 1), os.getpid())

        out = experiments._seed_rows(worker, 0, 200, jobs=2)
        assert out.shape == (200, 1)
        pids = set(out.ravel().tolist())
        assert len(pids) == 2 and os.getpid() not in pids

    @pytest.mark.parametrize("fail", ["none", "numeric", "memory", "killed"])
    def test_no_worker_outlives_the_rows(self, fail):
        def worker(seeds):
            if seeds[0] == 200:  # the second of two chunks
                if fail == "numeric":
                    raise NumericError("chunk 1 failed")
                if fail == "memory":
                    np.empty(2**62, dtype=np.uint8)  # numpy's _ArrayMemoryError
                if fail == "killed":  # as the kernel's OOM killer would
                    os.kill(os.getpid(), signal.SIGKILL)
            return seeds.astype(float)[:, None]

        raises = {"none": None, "numeric": NumericError, "memory": MemoryError,
                  "killed": KgqvError}[fail]
        if raises is None:
            assert experiments._seed_rows(worker, 0, 400, jobs=2).shape == (400, 1)
        else:
            with pytest.raises(raises) as info:
                experiments._seed_rows(worker, 0, 400, jobs=2)
            if fail == "memory":
                # the message the CLI prints on exit 3 survives the trip back
                assert str(info.value).startswith("Unable to allocate")
            if fail == "killed":
                assert "exit code -9" in str(info.value)
        assert multiprocessing.active_children() == []
        assert experiments._FORKED is None

    def test_serial_where_the_platform_cannot_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])

        def worker(seeds):
            return np.full((len(seeds), 1), os.getpid())

        out = experiments._seed_rows(worker, 0, 200, jobs=2)
        assert out.ravel().tolist() == [os.getpid()] * 200

    def test_seed_span_may_end_at_two_to_the_64(self):
        def worker(seeds):
            return seeds[:, None]

        top = 2**64 - 3
        cfg = ExperimentConfig(experiment="oracle_check", seed=top, reps=3)
        experiments.validate_config(cfg)
        out = experiments._seed_rows(worker, top, 3, jobs=2)
        assert out.ravel().tolist() == [top, top + 1, top + 2]
        # quadvar_rate's default spans its larger part, 500 seeds
        for exp, seed, reps in [("oracle_check", top, 4), ("quadvar_rate", 2**64 - 499, None)]:
            cfg = ExperimentConfig(experiment=exp, seed=seed, reps=reps)
            with pytest.raises(UsageError, match="2\\^64"):
                experiments.validate_config(cfg)
        experiments.validate_config(ExperimentConfig(experiment="quadvar_rate", seed=2**64 - 500))


class TestPlanRows:
    # windows in no width order, with three distinct reps counts, so the
    # seed segments march three, two and one of them in one call
    REPS = (5, 12, 9)

    def separate(self, plan, march, seed):
        return [march(np.uint64(seed) + np.arange(reps, dtype=np.uint64), *args)
                for args, reps in plan]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_march_qv_plan_rows_equal_separate_marches(self, jobs):
        F, one = solver.shifted_sine(), solver.constant_one()
        plan = [
            ((8, 2.0, F.fid, F.p0, F.p1, F(0.0), 1.0, 0.5), self.REPS[0]),
            ((16, 1.0, one.fid, one.p0, one.p1, one(0.0), 0.0, 1.0), self.REPS[1]),
            ((4, 2.0, F.fid, F.p0, F.p1, F(0.0), 1.0, 0.5), self.REPS[2]),
        ]
        cfg = ExperimentConfig(experiment="quadvar_rate", seed=2**40 + 3, jobs=jobs)
        rows = experiments._plan_rows(cfg, plan, _kernels.march_qv)
        want = self.separate(plan, _kernels.march_qv, cfg.seed)
        assert [r.tobytes() for r in rows] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_march_points_plan_rows_equal_separate_marches(self, jobs):
        F, one = solver.shifted_sine(), solver.constant_one()
        plan = []
        for n, model, reps in [
            (16, (1.0, 0.5, 2.0, F.fid, F.p0, F.p1, F(0.0)), self.REPS[0]),
            (32, (1.0, 0.5, 1.0, one.fid, one.p0, one.p1, one(0.0)), self.REPS[1]),
            (8, (2.0, 0.25, 2.0, F.fid, F.p0, F.p1, F(0.0)), self.REPS[2]),
        ]:
            grid = RotatedGrid(n, i_max=n // 2 + 1, j_max=n // 2 + 1)
            pts = np.array([n // 2, n // 2 + 1, n // 4], dtype=np.int64)
            plan.append(((grid.shape[0], grid.i_min, grid.eps, *model, pts, pts[::-1]), reps))
        cfg = ExperimentConfig(experiment="remainder_rate", seed=2**63 + 1, jobs=jobs)
        rows = experiments._plan_rows(cfg, plan, _kernels.march_points)
        want = self.separate(plan, _kernels.march_points, cfg.seed)
        assert [r.tobytes() for r in rows] == [w.tobytes() for w in want]


class TestTheta:
    # v carries theta F(v) dW, so its remainder and its QV limit must scale
    # with theta; leaving theta out leaves an order-eps remainder and a gap
    # that does not decay (slopes about 1.05, gap decay about 0)
    def test_remainder_backward_slopes_meet_the_bound_at_theta_two(self):
        cfg = ExperimentConfig(experiment="remainder_rate", theta=2.0, n=128, reps=100)
        slopes = experiments.run(cfg).summary["slopes"]
        minus = [v["slope"] for k, v in slopes.items() if k.endswith("_minus")]
        assert len(minus) == 3
        assert min(minus) >= 1.35, minus

    def test_quadvar_gap_decays_at_theta_two(self):
        cfg = ExperimentConfig(experiment="quadvar_rate", theta=2.0, n=256, reps=100)
        nonlinear = experiments.run(cfg).summary["nonlinear"]
        assert nonlinear["gap_bound_direction_ok"], nonlinear["gap_decay"]


class TestRegimes:
    # the rates away from critical damping, where the lattice drift
    # (a^2/4 - m^2) u is live: oscillatory, hyperbolic, and a = m = 0, the
    # wave equation.  Small configs, so only each bound's direction is
    # checked, as in TestTheta
    REGIMES = [(1.0, 1.0), (2.0, 0.25), (0.0, 0.0)]

    @pytest.mark.parametrize("a,m", REGIMES)
    def test_remainder_backward_slopes_meet_the_bound(self, a, m):
        cfg = ExperimentConfig(experiment="remainder_rate", a=a, m=m, n=256, reps=200)
        slopes = experiments.run(cfg).summary["slopes"]
        minus = [v["slope"] for k, v in slopes.items() if k.endswith("_minus")]
        assert len(minus) == 3
        assert min(minus) >= 1.35, minus

    @pytest.mark.parametrize("a,m", REGIMES)
    def test_remainder_mapping_gap_is_zero_at_the_run_model(self, a, m):
        # the physical-coordinate stencils read the run's own marched
        # columns, so the mapping is checked at the model the run was given
        cfg = ExperimentConfig(experiment="remainder_rate", a=a, m=m, theta=2.0,
                               diffusion="affine", n=128, reps=100)
        assert experiments.run(cfg).summary["mapping_max_gap"] == 0.0

    @pytest.mark.parametrize("a,m", REGIMES)
    def test_estimator_medians_fall_with_n(self, a, m):
        cfg = ExperimentConfig(experiment="estimator_consistency", a=a, m=m, n=128, reps=100)
        assert experiments.run(cfg).summary["monotone_ok"]

    def test_quadvar_gap_decays_at_hyperbolic_damping(self):
        cfg = ExperimentConfig(experiment="quadvar_rate", a=2.0, m=0.25, n=256, reps=100)
        nonlinear = experiments.run(cfg).summary["nonlinear"]
        assert nonlinear["gap_bound_direction_ok"], nonlinear["gap_decay"]


class TestSerialization:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "r.csv"
        experiments.write_csv(report_stub(), path)
        lines = path.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert len(comments) == 4
        assert lines[len(comments)] == "n,x"
        assert lines[len(comments) + 1] == "8,0.5"
        # nothing volatile may leak into the bytes
        assert not any("wall" in c or "time" in c for c in comments)

    def test_csv_float_formatting_round_trips(self, tmp_path):
        value = 0.1 + 0.2
        path = tmp_path / "r.csv"
        experiments.write_csv(report_stub(rows=[(1, value)]), path)
        cell = path.read_text().splitlines()[-1].split(",")[1]
        assert float(cell) == value

    def test_summary_json_is_sorted_and_stable(self):
        rep = report_stub()
        s1 = experiments.summary_json(rep)
        s2 = experiments.summary_json(rep)
        assert s1 == s2
        payload = json.loads(s1)
        assert list(payload) == sorted(payload)
        assert payload["passed"] is True
        assert payload["config"]["a"] is None

    def test_summary_json_refuses_non_finite_numbers(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(NumericError, match="non-finite"):
                experiments.summary_json(report_stub(summary={"x": bad}))

    def test_oracle_thresholds_match_fixture(self):
        import pathlib

        fixture = json.loads(
            (pathlib.Path(__file__).parent / "fixtures" / "oracle_thresholds.json")
            .read_text()
        )
        assert {int(k): v for k, v in fixture.items()} == experiments.ORACLE_THRESHOLDS

    def test_oracle_ceilings_are_frozen_on_the_five_default_seeds(self):
        # --reps sets the number of seeds and the verdict takes the worst
        # one, so a seed outside 0..4 may exceed a ceiling: seed 7 at n=8.
        # Criterion 09 checks the default five-seed verdict.
        ceilings = experiments.ORACLE_THRESHOLDS
        seed7 = experiments.run(ExperimentConfig(experiment="oracle_check", seed=7, reps=1))
        assert [row[:2] for row in seed7.rows] == [(8, 7), (16, 7)]
        assert seed7.summary["max_sup_diff"]["8"] > ceilings[8]
        assert seed7.summary["max_sup_diff"]["16"] <= ceilings[16]
        assert not seed7.passed


# SHA-256 of the CSV and of the summary without wall_time_s (sort_keys,
# indent 2, as summary_json writes it), at seed 0.  green_identities uses
# no numpy: its bytes come from libm's sin, sinh and exp through the math
# module, so they hold for the C library and machine they were recorded
# on.  kernel_lemma's values come from libm's exp and expm1 the same way,
# and its slope fits from numpy, so it needs both
RECORDED_LIBM = ("glibc", "2.36", "x86_64")
LIBM_EXPERIMENTS = ("green_identities", "kernel_lemma")
RUN_SHA256 = {
    ("green_identities",): (
        "a4e28d3d021d19ee3b5ee7fe6b58adaeab2f65613585bb2fb9ad1a8c33b2471e",
        "64612134ccc2fc20a8127323b81dc162a47eb11459ec939a0923bc364b6eea9e",
    ),
    ("linear_variance", "--n", "64", "--reps", "500"): (
        "b3e52dbef321dd1bf4b7e2d3c74a8886583d130f5d2b2b72288d9bbf1d631f4b",
        "a9ccb98c0a1ed219cb7f1f868ddc71624fe0506a46b8c0649bafa08787c3a55a",
    ),
    ("remainder_rate", "--n", "128", "--reps", "100"): (
        "c3ee569ecb844af16837bc073ca33573d908434fd29a716c806e502bab0f093c",
        "2c47a061a8867a8dfb36f4bb96e615d96fd7708a662508d9ecd8b286e9594f21",
    ),
    # at the default reps (500 linear, 200 nonlinear) the seeds from 200 on
    # march the linear part alone
    ("quadvar_rate", "--n", "256"): (
        "706a35ef9734cbb2cb7e39d2f79477f3de6dc61b11ba6b2316f2810bf89cd009",
        "78ef41be66004635a31c2efadc3eedb49ce6a1f276863b0cdd618862bc27cfb7",
    ),
    ("quadvar_rate", "--n", "256", "--reps", "100"): (
        "6be367bd02885e614b437f8be4f8f1fd4880f8690e615d2b850f6a8d0a8dbc18",
        "5fdc633d7f15347c11cf1773cd8b57600ec5813654cd6da047b4ae9f9de163f9",
    ),
    ("estimator_consistency", "--n", "128", "--reps", "100"): (
        "5b793e1ef12071f381eb4327fe8e06550e042dae44cd19d60f4c93a591db3f42",
        "2ff80d5f7404ee1e4633d7c7a758a1a541f5b36c12e948b273a5511b3b77542d",
    ),
    ("oracle_check", "--reps", "2"): (
        "95ac4f2e42c27f710e01b8fdfba7d3c397619e0716e8d080965a27319270bb35",
        "fc9c5868838b8c5bc1715ba38a4014086c1a8f50445dfa375d70e7742db10ee6",
    ),
    ("kernel_lemma", "--n", "64"): (
        "65443396f74357543df7e907babf8c16c79e0d97b5dac65df3f6b5aebdfc3abf",
        "85c55ac22ee4e041c8aa38e19f58887d99b55a5e12eb8ed95741030e9107c183",
    ),
}
CHECKED_INSTEAD = {
    "linear_variance": "test_kernels' test_march_points_matches_window_march (bit for bit, n=8)",
    "remainder_rate": "test_kernels' test_march_points_matches_window_march (bit for bit, n=8)",
    "quadvar_rate": "test_kernels' test_march_qv_matches_window_reductions (bit for bit)",
    "estimator_consistency": "test_kernels' test_march_qv_matches_window_reductions (bit for bit)",
    "oracle_check": "test_solver's TestPicardOracle (cone sums against convolve2d; march agreement to 1e-12 at a = m = 0)",
    "kernel_lemma": "test_greens's TestKernelSecondDifference (closed form against dblquad, rel 1e-10)",
    "green_identities": "test_greens's TestFourierGreen (branch against unified form)",
}


class TestRecordedBytes:
    @pytest.mark.parametrize("args", sorted(RUN_SHA256), ids=" ".join)
    def test_run_bytes_match_recorded(self, args, tmp_path, capsys):
        exp = args[0]
        if exp in LIBM_EXPERIMENTS:
            libm = (*platform.libc_ver(), platform.machine())
            if libm != RECORDED_LIBM:
                pytest.skip(
                    f"hashes recorded with {' '.join(RECORDED_LIBM)}, running "
                    f"{' '.join(libm)}: only {CHECKED_INSTEAD[exp]} checked the values"
                )
        if exp == "kernel_lemma":  # draws no noise
            skip_unless_recorded_numpy(CHECKED_INSTEAD[exp])
        elif exp != "green_identities":
            skip_unless_recorded_noise(CHECKED_INSTEAD[exp])
        rc = cli.main(["run", "--experiment", *args, "--out", str(tmp_path)])
        assert rc in (0, 1)
        summary = json.loads(capsys.readouterr().out)
        summary.pop("wall_time_s")
        text = json.dumps(summary, sort_keys=True, indent=2)
        got = (
            hashlib.sha256((tmp_path / f"{exp}.csv").read_bytes()).hexdigest(),
            hashlib.sha256(text.encode()).hexdigest(),
        )
        assert got == RUN_SHA256[args]

    def test_run_pin_skips_off_the_recorded_log_dispatch(self):
        # with AVX-512 switched off numpy runs log on its X86_V3 (AVX2)
        # loop, whose bytes differ: a noise pin must skip and say what
        # checked the values instead
        skip_unless_recorded_numpy(CHECKED_INSTEAD["linear_variance"])
        node = ("tests/test_experiments.py::TestRecordedBytes::"
                "test_run_bytes_match_recorded[linear_variance --n 64 --reps 500]")
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
        r = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider", node],
            cwd=Path(__file__).resolve().parents[1], env=env, capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stdout + r.stderr
        assert "1 skipped" in r.stdout
        reason = dispatch_skip_reason("X86_V3", CHECKED_INSTEAD["linear_variance"])
        assert reason in r.stdout
