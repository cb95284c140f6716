"""The benchmark's own checks must catch a planted wrong value.

Run with: PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanView, Tracer  # noqa: E402

from kgqv import _kernels, analysis  # noqa: E402

# ---------------------------------------------------------------------------
# reference


def test_reference_passes_known_answers():
    reference.check_known_answers()


def test_known_answers_catch_a_missing_round():
    def nine_rounds(ctr, key):
        c0, c1, c2, c3 = ctr
        k0, k1 = key
        for rnd in range(9):
            if rnd:
                k0 = (k0 + 0x9E3779B9) & reference.U32
                k1 = (k1 + 0xBB67AE85) & reference.U32
            p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
            c0, c1, c2, c3 = ((p1 >> 32) ^ c1 ^ k0, p1 & reference.U32,
                              (p0 >> 32) ^ c3 ^ k1, p0 & reference.U32)
        return c0, c1, c2, c3

    with pytest.raises(ValueError):
        reference.check_known_answers(nine_rounds)


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_program_agrees_with_reference(cls, tmp_path):
    assert cls(7, str(tmp_path)).reference_check() == []


def _perturbed(module, attr, monkeypatch, delta=1e-9):
    inner = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **k: inner(*a, **k) + delta)


@pytest.mark.parametrize(
    "cls, module, attr",
    [
        (workloads.LinearIncrement, analysis, "increment_samples"),
        (workloads.ThetaEstimator, _kernels, "march_qv"),
        (workloads.FieldWindow, _kernels, "march_window"),
        (workloads.FieldWindow, _kernels, "lattice_normals"),
    ],
)
def test_reference_catches_planted_value(cls, module, attr, monkeypatch, tmp_path):
    _perturbed(module, attr, monkeypatch)
    assert cls(7, str(tmp_path)).reference_check()


# ---------------------------------------------------------------------------
# linear-increment


def _lv_result(level=0.01, slope=2.0, reps=None, passed=None, code=None, summary_level=None):
    w = workloads.LinearIncrement(0, "unused")
    lines = ["# experiment: linear_variance", "eps,reps,raw,raw_se,conditional,conditional_se,deviation"]
    rows = []
    for n in w.levels:
        eps = 1.0 / n
        raw = 0.5 * eps * (1.0 + level) if n == w.levels[-1] else 0.5 * eps
        r = w.planned_reps(n) if reps is None else reps
        rows.append((eps, r, raw, 0.1 * eps ** slope))
        lines.append("%.17g,%d,%.17g,0,0,0,%.17g" % (eps, r, raw, 0.1 * eps ** slope))
    fine = rows[-1]
    lvl = abs(fine[2] / (0.5 * fine[0]) - 1.0)
    fit = workloads._loglog_slope([r[0] for r in rows], [r[3] for r in rows])
    if passed is None:
        passed = lvl <= 0.02 and fit >= 1.4
    payload = {
        "passed": passed,
        "summary": {"level_rel_err": lvl if summary_level is None else summary_level,
                    "deviation_slope": fit},
        "wall_time_s": 1.0,
    }
    code = (0 if passed else 1) if code is None else code
    return w, (code, json.dumps(payload), ("\n".join(lines) + "\n").encode())


def test_linear_increment_accepts_consistent_output():
    w, result = _lv_result()
    assert w.check(result) == []
    w2, failing = _lv_result(level=0.03)  # above 0.02, inside the rescaled bound
    assert w2.check(failing) == [] and failing[0] == 1


@pytest.mark.parametrize(
    "plant",
    [
        dict(level=0.5),  # level far off eps/2
        dict(slope=1.0),  # deviation shrinking like eps, not eps^2
        dict(reps=7),  # rows without their planned replications
        dict(code=1),  # exit code says a bound failed, summary says passed
        dict(level=0.03, passed=True),  # verdict ignores criterion 03's level bound
        dict(summary_level=0.0),  # summary disagrees with its own CSV rows
    ],
)
def test_linear_increment_catches_planted_value(plant):
    w, result = _lv_result(**plant)
    assert w.check(result)


def test_cli_checks_catch_nonstandard_json_and_drift():
    w, (code, stdout, csv) = _lv_result()
    assert w.check((code, stdout.replace("1.0", "NaN"), csv))
    assert w.check((code, stdout, csv)) == []
    assert w.check((code, stdout, csv.replace(b"0.0625", b"0.0626")))


# ---------------------------------------------------------------------------
# theta-estimator


def _theta_result(med=(0.04, 0.02, 0.01, 0.005), reps=200, summary=None):
    lines = ["# experiment: estimator_consistency", "N,reps,median_rel_err,mean_rel_err,se_mean"]
    for N, m in zip((64, 128, 256, 512), med):
        lines.append("%d,%d,%.17g,0,0" % (N, reps, m))
    passed = all(b <= a for a, b in zip(med, med[1:])) and med[-1] < 0.05
    payload = {"passed": passed, "summary": {"median_rel_err": list(summary or med)}}
    w = workloads.ThetaEstimator(0, "unused")
    return w, (0 if passed else 1, json.dumps(payload), ("\n".join(lines) + "\n").encode())


def test_theta_estimator_accepts_consistent_output():
    w, result = _theta_result()
    assert w.check(result) == []


@pytest.mark.parametrize(
    "plant",
    [
        dict(med=(0.04, 0.02, 0.03, 0.005)),  # not non-increasing in N
        dict(med=(0.09, 0.08, 0.07, 0.06)),  # final error not below 0.05
        dict(reps=100),  # wrong replication count
        dict(summary=(0.04, 0.02, 0.01, 0.004)),  # summary disagrees with CSV
    ],
)
def test_theta_estimator_catches_planted_value(plant):
    w, result = _theta_result(**plant)
    assert w.check(result)


# ---------------------------------------------------------------------------
# field-window, on real small fields


class SmallFieldWindow(workloads.FieldWindow):
    n = 64


@pytest.fixture(scope="module")
def small_fields(tmp_path_factory):
    w = SmallFieldWindow(3, str(tmp_path_factory.mktemp("fw")))
    _, result = w.unit()
    return result


def _plant(result, column, fn):
    return [tuple(fn(v) if c == column else v for c, v in enumerate(r)) for r in result]


def test_field_window_accepts_program_output(small_fields):
    w = SmallFieldWindow(3, "unused")
    assert w.check(small_fields) == []
    assert w.check(list(small_fields)) == []


@pytest.mark.parametrize(
    "column, fn",
    [
        (0, lambda th: th * 1.2),  # theta_hat 20% off
        (1, lambda q: q * 1.01),  # quad_var inconsistent with estimate_theta
        (3, lambda q: q + 0.05),  # linear Q_N away from 1/4
        (4, lambda g: 1e-9),  # v_L + v_C no longer v
        (5, lambda s: s * 1.1),  # cell increments with variance 1.1 eps^2
    ],
)
def test_field_window_catches_planted_value(small_fields, column, fn):
    w = SmallFieldWindow(3, "unused")
    assert w.check(_plant(small_fields, column, fn))


def test_field_window_catches_drift_between_units(small_fields):
    w = SmallFieldWindow(3, "unused")
    assert w.check(small_fields) == []
    assert w.check(_plant(small_fields, 0, lambda th: math.nextafter(th, 0.0)))


# ---------------------------------------------------------------------------
# spans and the result contract


def test_self_time_subtracts_covered_child_time():
    class Mod:
        pass

    mod = Mod()
    mod.leaf = lambda x: sum(range(x))
    mod.top = lambda x: mod.leaf(x) + mod.leaf(x)
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "leaf", lambda x: {"n": x})
    tracer.wrap(mod, "top", "top")
    mod.top(20000)
    tracer.restore()
    view = SpanView(tracer.spans)
    top, = view.named("top")
    assert view.calls("leaf") == 2 and view.count("leaf", "n") == 40000
    assert all(s.parent == top.id for s in view.named("leaf"))
    own = view.self_time("top")
    assert 0.0 <= own < top.end - top.start
    assert own == pytest.approx(top.end - top.start - view.total("leaf"), abs=1e-12)
    assert mod.top.__name__ == "<lambda>" and not hasattr(mod.top, "__wrapped__")


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "mcells_per_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_counts_come_from_the_configuration():
    assert workloads.marched_cells(5) == 6  # layers 2, 3, 4 hold 3 + 2 + 1 cells
    assert workloads.ThetaEstimator.cells == 200 * sum(N * (2 * N - 1) for N in (64, 128, 256, 512))
    assert workloads.program_seed(0) < 2**62 and workloads.program_seed(0) != workloads.program_seed(1)


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "field-window", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0 and capsys.readouterr().out == ""


def test_a_unit_that_raises_counts_as_failed_not_incorrect():
    class Broken:
        def unit(self):
            raise RuntimeError("kgqv run exited 3")

    tally = run.Tally()
    assert tally.attempt(Broken()) is None
    assert (tally.attempted, tally.failed, tally.problems) == (1, 1, [])
