"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import Verdict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _metrics(workload: str, trace: int, seed: int) -> dict:
    out = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    metrics = _metrics(workload, trace, seed=5)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in metrics.items()
    }
    for m in metrics.values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert metrics["trace.coverage"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_work_counts_repeat_across_seeds(workload):
    first, second = _metrics(workload, 1, seed=5), _metrics(workload, 1, seed=6)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert any(first[k]["value"] for k in counts)


def test_spec_lists_what_the_runner_emits():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.per_layer_units())
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


class _Rows:
    """A stand-in workload whose rows are fixed verdicts or an exception."""

    per_row = 1

    def __init__(self, rows):
        self.rows = rows

    def run(self, row, tracer):
        if isinstance(row, Exception):
            raise row
        return [row]


def test_row_checker_counts_over_ceiling_and_leaky_rows():
    good = Verdict(observed=0.25, ceiling=0.25, leakage=1e-30)
    over_ceiling = Verdict(observed=0.25 + 1e-6, ceiling=0.25)
    leaky = Verdict(observed=0.1, ceiling=0.25, leakage=1e-8)
    stats = run_pass(_Rows([good, over_ceiling, leaky]), Tracer(False))
    assert (stats["attempted"], stats["failed"]) == (3, 2)
    assert "over ceiling" in stats["messages"][0] and "leaky" in stats["messages"][1]


def test_rows_that_raise_or_disagree_are_failures():
    mismatch = Verdict(observed=0.5, ceiling=1.0, expected=0.5 + 1e-6)
    nan = Verdict(observed=float("nan"), ceiling=1.0)
    stats = run_pass(_Rows([mismatch, nan, RuntimeError("boom")]), Tracer(False))
    assert (stats["attempted"], stats["failed"]) == (3, 3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
