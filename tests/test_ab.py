"""benchmarks/ab.py: the seed list it parses and the summary it writes.

Every performance claim cites a BENCH_*.json file that this tool
writes, so its pair counts, the sign of `change_worse_by`, the spreads
and the verdict are checked here on hand-made runs.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.2}
HIGHER = {"name": "mcells_per_s", "better": "higher", "bound": 0.2}


def runs(name, parent, change):
    """Alternating runs of one metric, one pair per seed from 100 on."""
    out = []
    for k, (p, c) in enumerate(zip(parent, change)):
        out.append({"seed": 100 + k, "side": "parent", name: p})
        out.append({"seed": 100 + k, "side": "change", name: c})
    return out


@pytest.mark.parametrize("text,seeds", [
    ("19001", [19001]),
    ("19001-19003", [19001, 19002, 19003]),
    ("19001-19003,19010", [19001, 19002, 19003, 19010]),
    ("7,5-6", [7, 5, 6]),
])
def test_seed_list(text, seeds):
    assert ab.seed_list(text) == seeds


def test_tied_pairs_count_for_neither_side():
    for metric in (LOWER, HIGHER):
        s = ab.summarize(runs(metric["name"], [2.0, 3.0, 4.0], [2.0, 3.0, 4.0]),
                         [metric])[metric["name"]]
        assert s["change_better_pairs"] == "0/3"
        assert s["change_worse_by"] == 0.0
    # one pair won, one tied, one lost
    s = ab.summarize(runs("wall_s", [2.0, 3.0, 4.0], [1.5, 3.0, 4.5]), [LOWER])["wall_s"]
    assert s["change_better_pairs"] == "1/3"
    s = ab.summarize(runs("mcells_per_s", [2.0, 3.0, 4.0], [1.5, 3.0, 4.5]),
                     [HIGHER])["mcells_per_s"]
    assert s["change_better_pairs"] == "1/3"


def test_change_worse_by_is_positive_when_the_change_is_worse():
    parent = [9.0, 10.0, 11.0]
    slower = [11.0, 12.0, 13.0]  # median 12 against 10
    s = ab.summarize(runs("wall_s", parent, slower), [LOWER])["wall_s"]
    assert s["change_worse_by"] == pytest.approx(0.2)
    assert s["change_better_pairs"] == "0/3"
    s = ab.summarize(runs("wall_s", slower, parent), [LOWER])["wall_s"]
    assert s["change_worse_by"] == pytest.approx(-1 / 6, abs=1e-4)
    assert s["change_better_pairs"] == "3/3"
    # for a higher-better metric a smaller median is the worse one
    s = ab.summarize(runs("mcells_per_s", parent, slower), [HIGHER])["mcells_per_s"]
    assert s["change_worse_by"] == pytest.approx(-0.2)
    assert s["change_better_pairs"] == "3/3"
    s = ab.summarize(runs("mcells_per_s", slower, parent), [HIGHER])["mcells_per_s"]
    assert s["change_worse_by"] == pytest.approx(1 / 6, abs=1e-4)
    assert s["change_better_pairs"] == "0/3"


def test_parent_quartiles_and_bound():
    s = ab.summarize(runs("wall_s", [1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5), [LOWER])["wall_s"]
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (2.0, 3.0, 4.0)
    assert s["change_median"] == 1.0
    assert s["bound"] == 0.2


def test_change_quartiles_and_relative_spreads():
    s = ab.summarize(runs("wall_s", [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 5.0, 6.0, 8.0]),
                     [LOWER])["wall_s"]
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == (4.0, 5.0, 6.0)
    assert s["parent_spread"] == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert s["change_spread"] == pytest.approx(0.4)


TIGHT = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]  # spread 1%


@pytest.mark.parametrize("change,verdict", [
    # 10/10 pairs and a median 10% better, far past the parent's quartiles
    ([x * 0.9 for x in TIGHT], "gain"),
    # 9/10 pairs still count; the lost pair is the last
    ([x * 0.9 for x in TIGHT[:9]] + [10.5], "gain"),
    # 8/10 pairs do not, however large the gap
    ([x * 0.9 for x in TIGHT[:8]] + [10.5, 10.5], "unchanged"),
    # 10/10 pairs by a hair, inside the parent's quartile distance
    ([x - 0.001 for x in TIGHT], "unchanged"),
    # 30% slower against a bound of 20%
    ([x * 1.3 for x in TIGHT], "worse"),
    # 10% slower is inside the bound
    ([x * 1.1 for x in TIGHT], "unchanged"),
    # the change's own runs spread by more than the bound
    ([7.0, 13.0, 10.0, 7.0, 13.0, 10.0, 7.0, 13.0, 10.0, 10.0], "unresolved"),
])
def test_verdict(change, verdict):
    s = ab.summarize(runs("wall_s", TIGHT, change), [LOWER])["wall_s"]
    assert s["verdict"] == verdict
    # a higher-better metric mirrors it: 1/x turns lower-better into higher-better
    s = ab.summarize(runs("mcells_per_s", [1 / x for x in TIGHT], [1 / x for x in change]),
                     [HIGHER])["mcells_per_s"]
    assert s["verdict"] == verdict


def test_a_wide_spread_is_resolved_when_every_change_run_wins():
    parent = [20.0, 30.0, 40.0, 20.0, 30.0, 40.0, 20.0, 30.0, 40.0, 30.0]
    change = [15.0, 18.0, 19.0, 15.0, 18.0, 19.0, 15.0, 18.0, 19.0, 18.0]
    s = ab.summarize(runs("wall_s", parent, change), [LOWER])["wall_s"]
    # every change run beats every parent run, but the median gap (12) is
    # inside the parent's quartile distance (20), so no gain either
    assert s["parent_spread"] > LOWER["bound"]
    assert s["verdict"] == "unchanged"
    s = ab.summarize(runs("wall_s", parent, [x - 1.0 for x in parent]), [LOWER])["wall_s"]
    assert s["verdict"] == "unresolved"
