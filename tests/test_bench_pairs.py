"""The paired-benchmark script's aggregation and verdicts, on synthetic
run records; no benchmark runs here."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load()


def runs(base, change, workload="w", failed=(0, 0), correct=(True, True)):
    """Run records of len(base) pairs, campaign_s from the two lists and
    every other end-to-end metric equal on both sides."""
    out = []
    for i, values in enumerate(zip(base, change)):
        for side in pairs.pair_order(i):
            k = pairs.SIDES.index(side)
            metrics = {m["name"]: 1.0 for m in END_TO_END}
            metrics["campaign_s"] = values[k]
            out.append({"workload": workload, "pair": i, "seed": 100 + i,
                        "side": side, "correct": correct[k],
                        "attempted": 3, "failed": failed[k],
                        "metrics": metrics})
    return out


def campaign(records, workload="w"):
    return pairs.aggregate(records, END_TO_END)[workload]["metrics"][
        "campaign_s"]


def test_order_alternates():
    assert [pairs.pair_order(i)[0] for i in range(4)] == [
        "base", "change", "base", "change"]


def test_quartiles_ratios_and_counts():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.3, 2.0, 4.0]
    got = pairs.aggregate(runs(base, change), END_TO_END)["w"]
    assert got["seeds"] == [100, 101, 102, 103, 104]
    assert got["sides"]["base"] == {"runs": 5, "correct": True,
                                    "attempted": 15, "failed": 0}
    m = got["metrics"]["campaign_s"]
    assert m["base"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert m["change"] == {"q1": 2.0, "median": 2.0, "q3": 3.3}
    assert m["ratios"] == pytest.approx([0.5, 1.0, 1.1, 0.5, 0.8])
    assert (m["change_lower"], m["change_better"], m["change_worse"],
            m["pairs"]) == (3, 3, 1, 5)
    assert m["median_ratio"] == 2.0 / 3.0
    # every metric of BENCHMARK.json is judged, with its own bound
    assert set(got["metrics"]) == {s["name"] for s in END_TO_END}
    assert got["metrics"]["rmse_pos_m"]["regression"] == "none"
    assert got["metrics"]["rmse_pos_m"]["gain"] is False


def test_gain_needs_nine_of_ten_and_a_gap_wider_than_the_spread():
    base = [1.00, 1.01, 1.02, 0.99, 1.00, 1.01, 0.98, 1.00, 1.02, 0.99]
    lower = [b * 0.9 for b in base]
    assert campaign(runs(base, lower))["gain"] is True
    # 8 of 10 lower: not a gain, however wide the gap
    eight = lower[:8] + [b * 1.01 for b in base[8:]]
    assert campaign(runs(base, eight))["change_better"] == 8
    assert campaign(runs(base, eight))["gain"] is False
    # 10 of 10 lower, by less than the base's quartile spread
    narrow = [b - 0.005 for b in base]
    assert campaign(runs(base, narrow))["change_better"] == 10
    assert campaign(runs(base, narrow))["gain"] is False
    # ties count for neither side
    tied = lower[:9] + base[9:]
    assert campaign(runs(base, tied))["change_worse"] == 0
    assert campaign(runs(base, tied))["gain"] is True


@pytest.mark.parametrize("failed, correct", [((0, 1), (True, True)),
                                             ((0, 0), (True, False))])
def test_no_gain_with_more_failures_or_a_failed_check(failed, correct):
    base = [1.0 + 0.01 * i for i in range(10)]
    got = campaign(runs(base, [b * 0.8 for b in base], failed=failed,
                        correct=correct))
    assert got["change_better"] == 10 and got["gain"] is False


def test_regression_against_the_benchmark_bound():
    bound = {m["name"]: m["bound"] for m in END_TO_END}["campaign_s"]
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    within = campaign(runs(base, [b * (1 + bound / 2) for b in base]))
    worse = campaign(runs(base, [b * (1 + 2 * bound) for b in base]))
    assert within["bound"] == bound
    assert (within["regression"], worse["regression"]) == ("none", "worse")


def test_spread_wider_than_the_bound_is_unresolved():
    bound = {m["name"]: m["bound"] for m in END_TO_END}["campaign_s"]
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    got = campaign(runs(wide, list(reversed(wide))))
    assert got["base"]["q3"] - got["base"]["q1"] > bound
    assert got["regression"] == "unresolved"
    # unless every run of the change is better than every run of the base
    separated = campaign(runs(wide, [0.5, 0.9, 0.5, 0.9, 0.5, 0.9]))
    assert separated["regression"] == "none"


def test_a_failed_run_is_left_out_of_its_pair():
    records = runs([1.0, 1.1, 1.2], [0.9, 1.0, 1.1])
    broken = next(r for r in records if r["pair"] == 1
                  and r["side"] == "change")
    broken.update(correct=False, failed=None, metrics={})
    got = pairs.aggregate(records, END_TO_END)["w"]
    assert got["metrics"]["campaign_s"]["pairs"] == 2
    assert got["sides"]["change"]["correct"] is False
    assert got["metrics"]["campaign_s"]["gain"] is False
