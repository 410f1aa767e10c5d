"""tools/bench_pairs.py's summary arithmetic, on canned result summaries (no bench run)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(run_s, rss, ok=1.0, correct=True):
    """A `bench/run.py` summary line with the metrics the arithmetic reads."""
    return {"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        "run_s": {"value": run_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "ok_share": {"value": ok, "unit": "ratio"},
    }}


BETTER = {"run_s": "lower", "peak_rss_mb": "lower", "ok_share": "higher"}
BOUNDS = {"run_s": 0.2, "peak_rss_mb": 0.1, "ok_share": 0.01}


def canned_runs():
    # parent run_s 1..5, change run_s 0.5, 2.5, 3.0, 3.5, 6.0: the change wins pairs 0, 3
    # and 4 is a loss; pair 2 (3.0 against 3.0) is a tie
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 3.0, 3.5, 6.0]
    return [
        {"seed": 1900 + k, "order": list(bench_pairs.pair_order(k)),
         "parent": result(p, 80.0 + k), "change": result(c, 81.0, ok=1.0 if k else 0.9)}
        for k, (p, c) in enumerate(zip(parent, change))
    ]


def test_summary_medians_quartiles_and_wins():
    summary = bench_pairs.summarize(canned_runs(), BETTER, BOUNDS)
    assert summary["pairs"] == 5
    run_s = summary["run_s"]
    assert run_s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert run_s["change"] == {"median": 3.0, "q1": 2.5, "q3": 3.5}
    assert run_s["change_wins"] == 2  # pairs 0 and 3; the tie counts for neither side
    assert run_s["change_over_parent_median"] == 1.0
    rss = summary["peak_rss_mb"]
    assert rss["parent"]["median"] == 82.0 and rss["change"]["median"] == 81.0
    assert rss["change_wins"] == 3  # 81 beats 82, 83 and 84
    assert rss["change_over_parent_median"] == pytest.approx(81.0 / 82.0)
    # higher is better: 0.9 loses pair 0, the others tie
    assert summary["ok_share"]["change_wins"] == 0
    assert summary["ok_share"]["change"]["q1"] == 1.0
    assert summary["all_correct"] is True
    # run_s: the parent's q3 - q1 (2.0) is wider than 20% of its median (0.6)
    assert run_s["verdict"] == "unresolved"
    assert rss["verdict"] == "flat"  # 3 of 5 pairs is no gain
    assert summary["ok_share"]["verdict"] == "flat"


def run_s_verdict(parent, change):
    runs = [{"seed": k, "order": list(bench_pairs.pair_order(k)),
             "parent": result(p, 80.0), "change": result(c, 80.0)}
            for k, (p, c) in enumerate(zip(parent, change))]
    return bench_pairs.summarize(runs, {"run_s": "lower"}, BOUNDS)["run_s"]["verdict"]


TEN = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # q3 - q1 = 0.045


@pytest.mark.parametrize("change, want", [
    ([t - 0.5 for t in TEN], "gain"),
    # 9 of 10 pairs still gains; 8 of 10 does not
    ([t - 0.5 for t in TEN[:9]] + [2.0], "gain"),
    ([t - 0.5 for t in TEN[:8]] + [2.0, 2.0], "flat"),
    # wins every pair, but by less than the parent's quartile spread
    ([t - 0.01 for t in TEN], "flat"),
    ([t + 0.1 for t in TEN], "flat"),  # worse, within the 20% bound
    ([t + 0.3 for t in TEN], "regression"),
])
def test_verdicts_on_a_tight_parent(change, want):
    assert run_s_verdict(TEN, change) == want


def test_verdicts_on_a_spread_parent():
    # q1 1.0, median 1.0, q3 2.75: the spread is wider than 20% of the median
    parent = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert run_s_verdict(parent, parent[::-1]) == "unresolved"
    assert run_s_verdict(parent, [1.1] * 10) == "unresolved"
    # every change run beats every parent run, by less than the spread
    assert run_s_verdict(parent, [0.9] * 10) == "flat"
    assert run_s_verdict(parent, [1.3] * 10) == "regression"


# study-krr's run_s in BENCH_20.json, (parent, change) per pair; throughput
# was work / run_s on the same runs
KRR_RUN_S = [(0.3685, 0.3265), (0.3639, 0.3238), (0.3355, 0.3120), (0.3352, 0.3012),
             (0.3178, 0.3219), (0.3955, 0.3342), (0.3631, 0.3213), (0.3752, 0.3611),
             (0.3427, 0.3193), (0.3345, 0.3248)]


def test_throughput_takes_the_run_s_verdict():
    def sides(p, c):
        return {side: {"correct": True, "metrics": {
            "run_s": {"value": t}, "throughput": {"value": 1.0 / t}}}
            for side, t in (("parent", p), ("change", c))}

    runs = [{"seed": k, "order": list(bench_pairs.pair_order(k)), **sides(p, c)}
            for k, (p, c) in enumerate(KRR_RUN_S)]
    parent, change = (np.array(side) for side in zip(*KRR_RUN_S))
    # judged apart the gap falls inside run_s's quartile spread and outside
    # throughput's
    assert bench_pairs.verdict(-parent, -change, 0.2) == "flat"
    assert bench_pairs.verdict(1 / parent, 1 / change, 0.2) == "gain"
    summary = bench_pairs.summarize(runs, {"run_s": "lower", "throughput": "higher"},
                                    {"run_s": 0.2, "throughput": 0.2})
    assert summary["run_s"]["verdict"] == summary["throughput"]["verdict"] == "flat"
    assert summary["throughput"]["change_wins"] == summary["run_s"]["change_wins"] == 9


def test_summary_percentiles_interpolate_linearly():
    runs = canned_runs()[:4]  # parent run_s 1, 2, 3, 4
    run_s = bench_pairs.summarize(runs, {"run_s": "lower"}, BOUNDS)["run_s"]
    assert run_s["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_one_incorrect_run_clears_all_correct():
    runs = canned_runs()
    runs[3]["parent"]["correct"] = False
    assert bench_pairs.summarize(runs, BETTER, BOUNDS)["all_correct"] is False


def test_pairs_alternate_which_side_goes_first():
    assert [bench_pairs.pair_order(k) for k in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_seed_lists():
    assert bench_pairs.parse_seeds("1901-1903") == [1901, 1902, 1903]
    assert bench_pairs.parse_seeds("7,9-10") == [7, 9, 10]
