"""phaselab benchmark: run a verification workload and print its metrics.

    python3 perfbench/run.py --workload haar-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, untraced then traced

Each workload runs in its own fresh process (``worker.py``) with BLAS pinned
to one thread, so peak RSS is per workload and every run is single-threaded.
Set-up is timed over several fresh processes. With ``--trace 0`` the last line of output is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of a
traced run. Every output row is checked against the property the paper
proves; any failure makes the exit code nonzero. See NOTES.md.

Only the standard library is used here, so this process stays small.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("haar-grid", "search", "exact", "cli-sweep")
SETUP_PROBES = 6  # extra fresh processes that only import and build inputs
WORKER_TIMEOUT_S = 170

# Pinned in every worker before numpy loads; recorded with every result.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The end-to-end metrics of BENCHMARK.json. Times other than set-up are in
# units of ``ref``, the host-speed reference kernel (see worker.py); raw
# seconds are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "row_p50_ref": "ref",
    "row_p90_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
}
# The report's metrics besides error_rate: (raw name, unit, steady name or None).
REPORT = (
    ("setup_s", "s", None),
    ("wall_s", "s", "wall_ref"),
    ("row_ms_p50", "ms", "row_p50_ref"),
    ("row_ms_p90", "ms", "row_p90_ref"),
    ("cpu_s", "s", "cpu_ref"),
    ("peak_rss_mb", "MB", None),
)

# Spans the benchmark places around its own calls into phaselab.
SPANS = (
    "simulate.haar_random_algorithm",
    "simulate.run_purified_transcript",
    "simulate.success_probability_average",
    "algorithms.build_truncated_optimal",
    "algorithms.cemm_on_continuous_phase",
    "experiments.adversarial_search",
    "cli.main",
    "simulate.leakage_from_weights",
    "simulate.success_probability_purified",
    "simulate.run_purified",
    "simulate.counter_leakage",
    "oracles.default_family",
)
# Inner public functions re-run on identical inputs outside the traced wall.
REPLAYS = (
    "linalg.haar_random_unitary",
    "oracles.coherent_controlled_u",
    "fourier.fourier_weights",
    "experiments.run_experiment",
    "experiments.ExperimentResult.rendered",
)
# Work counts computed from the inputs; they repeat exactly for a workload.
COUNTS = (
    "simulate.haar_random_algorithm.matrix_elems",
    "simulate.run_purified_transcript.state_elems",
    "simulate.success_probability_average.labels",
    "algorithms.build_truncated_optimal.matrix_elems",
    "algorithms.cemm_on_continuous_phase.matrix_elems",
    "experiments.adversarial_search.iterations",
    "cli.main.rows",
)


def per_layer_units() -> dict[str, str]:
    units = {"traced.wall_ref": "ref", "trace.coverage": "ratio"}
    for span in SPANS + tuple("replay." + r for r in REPLAYS):
        units[span + ".calls"] = "count"
        units[span + ".share"] = "ratio"
    units["cli.main.self.share"] = "ratio"
    for name in COUNTS:
        units[name] = "count"
    return units


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this tree
    return lines[1]


def _worker_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class WorkerError(RuntimeError):
    """A worker failed to start, crashed or timed out: the run has no result."""


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it printed READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready_s = perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {' '.join(args)} failed during set-up (exit {proc.returncode})")
    return proc, ready_s


def _finish(proc: subprocess.Popen, expect_result: bool = True) -> dict | None:
    """Wait for a worker (killing it after the timeout); return its JSON result."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or (expect_result and not lines):
        raise WorkerError(f"worker exited {proc.returncode} without a result")
    return json.loads(lines[-1]) if lines else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """One measured worker. Untraced runs also time set-up in fresh processes,
    half before and half after it, so that the samples span the run."""
    base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])

    def probe() -> float:
        proc, ready_s = _spawn(base + ["--setup-only"])
        _finish(proc, expect_result=False)
        return ready_s

    probes = 0 if trace else SETUP_PROBES
    setup = [probe() for _ in range(probes // 2)]
    proc, ready_s = _spawn(base + ["--seconds", str(seconds), "--trace", str(int(trace))])
    result = _finish(proc)
    setup += [ready_s] + [probe() for _ in range(probes - probes // 2)]
    result["setup_samples"] = len(setup)
    result["setup_s"] = statistics.median(setup)
    result["env"]["git_revision"] = _git_revision()
    return result


def end_to_end_metrics(result: dict) -> dict:
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(result: dict) -> dict:
    trace = result["trace"]
    layers = trace["layers"]
    known = set(SPANS) | {"replay." + r for r in REPLAYS} | {"cli.main.self"}
    if set(layers) - known or set(trace["counts"]) - set(COUNTS):
        raise WorkerError(f"spans or counts missing from the metric list: {sorted(layers)}")
    values = {"traced.wall_ref": trace["wall_ref"], "trace.coverage": trace["coverage"]}
    for span in SPANS + tuple("replay." + r for r in REPLAYS):
        values[span + ".calls"] = layers.get(span, {}).get("calls", 0)
        values[span + ".share"] = layers.get(span, {}).get("share", 0.0)
    values["cli.main.self.share"] = layers.get("cli.main.self", {}).get("share", 0.0)
    for name in COUNTS:
        values[name] = trace["counts"].get(name, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


def _num(value: float | None, width: int) -> str:
    return f"{'n/a':>{width}}" if value is None else f"{value:{width}.4f}"


def report(workload: str, result: dict) -> None:
    """Human-readable lines; the JSON result stays the last line of output."""
    head = f"== {workload} seed={result['env']['seed']}: {result['passes']} pass(es)"
    print(f"{head}, {result['attempted']} rows, {result['failed']} failed")
    if "trace" in result:
        trace = result["trace"]
        print(f"  traced wall {trace['wall_s']:.4f} s = {trace['wall_ref']:.1f} ref per pass, "
              f"direct spans cover {trace['coverage']:.1%}")
        print(f"  {'span (per pass)':48} {'calls':>8} {'busy_s':>10} {'share':>7}")
        for name, v in sorted(trace["layers"].items(), key=lambda kv: -kv[1]["busy_s"]):
            print(f"  {name:48} {v['calls']:8d} {v['busy_s']:10.4f} {v['share']:7.1%}")
        for name, v in sorted(trace["counts"].items()):
            print(f"  {name:48} {v:>27,d}")
    else:
        notes = {
            "setup_s": f"median of {result['setup_samples']} fresh processes",
            "wall_s": f"per pass, median of {result['passes']}",
            "row_ms_p50": f"{result['row_samples']} samples",
            "row_ms_p90": f"{result['row_samples']} samples",
            "cpu_s": "user+sys per pass, median",
            "peak_rss_mb": "worker process",
        }
        for name, unit, steady in REPORT:
            ref = f"{_num(result[steady], 14)} ref" if steady else f"{'':18}"
            print(f"  {name:12} {_num(result[name], 12)} {unit:3} {ref}  {notes[name]}")
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':12} {rate:12.4f} {'':22}  {result['failed']}/{result['attempted']} rows")
        print(f"  reference kernel {result['ref_ms']:.4f} ms (median)")
    for message in result["messages"]:
        print(f"  FAILED {message}")
    print("  env " + json.dumps(result["env"], sort_keys=True))


def _save(name: str, payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _line(result: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def run_all(seed: int, seconds: float, tiny: bool) -> int:
    """Every workload untraced, then traced; a summary table and the overhead."""
    results = {}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, False, tiny)
        report(workload, plain)
        traced = run_workload(workload, seed, seconds, True, tiny)
        report(workload, traced)
        results[workload] = {"untraced": plain, "traced": traced}
    print("\n" + f"{'workload':10}" + "".join(f"{name:>13}" for name, *_ in REPORT)
          + f"{'error_rate':>11}{'overhead':>10}{'coverage':>9}")
    metrics = {}
    for workload, pair in results.items():
        plain, traced = pair["untraced"], pair["traced"]
        # in ref units, so that host speed does not enter the difference
        overhead = traced["trace"]["wall_ref"] / plain["wall_ref"] - 1.0
        pair["trace_overhead"] = overhead
        rate = plain["failed"] / plain["attempted"]
        print(f"{workload:10}" + "".join(_num(plain[name], 13) for name, *_ in REPORT)
              + f"{rate:11.4f}{overhead:10.1%}{traced['trace']['coverage']:9.1%}")
        for name, m in end_to_end_metrics(plain).items():
            metrics[f"{workload}.{name}"] = m
        metrics[f"{workload}.error_rate"] = {"value": rate, "unit": "ratio"}
        metrics[f"{workload}.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    _save(f"all-seed{seed}.json", results)
    total = {
        "failed": sum(p[k]["failed"] for p in results.values() for k in ("untraced", "traced")),
        "attempted": sum(
            p[k]["attempted"] for p in results.values() for k in ("untraced", "traced")
        ),
    }
    print(_line(total, metrics))
    return 0 if total["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phaselab benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal sizes, for the tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phaselab" / "__init__.py").is_file():
        print(f"perfbench: no phaselab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.tiny)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        metrics = per_layer_metrics(result) if args.trace else end_to_end_metrics(result)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, result)
    _save(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", result)
    print(_line(result, metrics))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
