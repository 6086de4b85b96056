"""Every committed ``BENCH_*.json`` record names the benchmark's own
workloads and metrics, holds all of them, and states medians and a claim
that follow from its own runs.

A record compares a parent and a change over paired runs of
``perfbench/run.py``. Per workload it stores ``pairs`` and, per metric and
side, the ``runs`` and their ``median`` rounded to 4 decimals. Its ``claim``
is met when the change wins at least 9 pairs in 10 and its median beats the
parent's by more than the parent's interquartile range.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ROUNDING = 0.5e-4 + 1e-9  # half the last stored decimal, plus float noise


def test_records_are_committed():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=lambda path: path.name)
def record(request):
    return json.loads(request.param.read_text())


def test_claim_names_a_benchmark_metric(record):
    assert record["claim"]["workload"] in WORKLOADS
    assert record["claim"]["metric"] in METRICS


def test_every_workload_holds_every_metric(record):
    for name in WORKLOADS:
        workload = record["workloads"][name]
        assert workload["pairs"] >= 1, name
        missing = [metric for metric in METRICS if metric not in workload]
        assert not missing, f"{name} lacks {missing}"


def test_medians_follow_from_the_runs(record):
    for name in WORKLOADS:
        workload = record["workloads"][name]
        for metric in METRICS:
            for side in ("parent", "change"):
                stats = workload[metric][side]
                where = f"{name} {metric} {side}"
                assert len(stats["runs"]) == workload["pairs"], where
                assert abs(stats["median"] - statistics.median(stats["runs"])) <= ROUNDING, where


def test_claim_is_met_exactly_when_its_rule_holds(record):
    claim = record["claim"]
    measured = record["workloads"][claim["workload"]][claim["metric"]]
    won = claim["pairs_won"] >= 0.9 * claim["pairs"]
    gain = claim["parent_median"] - claim["change_median"]  # every end-to-end metric is lower-better
    assert claim["met"] is (won and gain > claim["parent_iqr"])
    # the claim restates its workload's entry for the metric
    assert claim["pairs"] == record["workloads"][claim["workload"]]["pairs"]
    assert claim["pairs_won"] == measured["pairs_won"]
    assert claim["parent_median"] == measured["parent"]["median"]
    assert claim["change_median"] == measured["change"]["median"]
    assert claim["parent_iqr"] == measured["parent"]["iqr"]
