"""Run one workload in this fresh process and print its measurements as JSON.

Started by ``run.py``, which pins the BLAS thread count in the environment
before this process imports numpy. After the imports and the inputs are
built it prints ``READY`` (the parent times set-up up to that line), then
runs whole passes over the workload's rows, closed loop, and prints one JSON
line. Every pass runs the same rows, so per-pass work counts repeat exactly.

Host-speed reference. A shared cloud host can switch between a fast and a
slow state, about 1.5x apart, every few seconds, so raw times of the same
run differ by 15-25% from one minute to the next. Between every two
rows the worker times a fixed numpy reference kernel (no phaselab code) and
divides each row's time by the mean of the kernel times just before and
just after it. Those ratios, in units of ``ref`` (one run of the kernel on
the same host at the same moment), are the steady figures; raw seconds are
reported beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter, process_time

import numpy as np

from tracing import Tracer
from workloads import OUT_DIR, WORKLOADS

MAX_MESSAGES = 20  # failure messages kept in the result

_rng = np.random.default_rng(20230405)
_REF_MATRIX = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))


def _kernel_s() -> float:
    start = perf_counter()
    np.linalg.qr(_REF_MATRIX)
    v = _REF_MATRIX[:, 0]
    for _ in range(60):
        v = _REF_MATRIX @ v
        v = v / np.linalg.norm(v)
    return perf_counter() - start


def reference_s() -> float:
    """Seconds for the reference kernel (1-2 ms): a dense QR and a chain
    of small matrix-vector products, the two kinds of work the workloads mix.
    The faster of two back-to-back runs, so that a cache just emptied by a
    large row or a timer interrupt does not count."""
    return min(_kernel_s(), _kernel_s())


def run_pass(workload, tracer: Tracer, first_row: int = 0) -> dict:
    """One closed-loop pass over every row.

    Row times leave out replays (traced runs) and the reference kernel.
    """
    refs = [reference_s()]
    wall_s = wall_ref = cpu_s = cpu_ref = 0.0
    latencies_ms: list[float] = []
    latencies_ref: list[float] = []
    attempted, failed, messages = 0, 0, []
    for i, row in enumerate(workload.rows):
        tracer.row = first_row + i
        x0, c0, r0 = tracer.excluded_s, process_time(), perf_counter()
        try:
            verdicts, error = workload.run(row, tracer), None
        except Exception as exc:  # a row that raises fails every output it owed
            verdicts, error = [], exc
        tracer.end_row(r0)
        seconds = perf_counter() - r0 - (tracer.excluded_s - x0)
        cpu = process_time() - c0
        refs.append(reference_s())
        scale = (refs[-2] + refs[-1]) / 2
        wall_s += seconds
        wall_ref += seconds / scale
        cpu_s += cpu
        cpu_ref += cpu / scale
        if error is not None:
            attempted += workload.per_row
            failed += workload.per_row
            messages.append(f"row {row!r}: {type(error).__name__}: {error}")
        for v in verdicts:
            attempted += 1
            problems = v.failures()
            if problems:
                failed += 1
                messages.append(f"row {row!r}: {'; '.join(problems)}")
            latency_s = seconds if v.ms is None else v.ms / 1000.0
            latencies_ms.append(latency_s * 1000.0)
            latencies_ref.append(latency_s / scale)
    return {
        "wall_s": wall_s,
        "wall_ref": wall_ref,
        "cpu_s": cpu_s,
        "cpu_ref": cpu_ref,
        "refs": refs,
        "latencies_ms": latencies_ms,
        "latencies_ref": latencies_ref,
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:MAX_MESSAGES],
    }


def _blas() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
        "platform": platform.platform(),
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _trace_summary(tracer: Tracer, passes: list[dict]) -> dict:
    wall_s = statistics.fmean(p["wall_s"] for p in passes)
    layers = tracer.summary(wall_s, len(passes))
    direct = sum(v["busy_s"] for k, v in layers.items() if not k.startswith("replay."))
    if "cli.main" in layers:
        inner = sum(
            layers.get("replay." + k, {}).get("busy_s", 0.0)
            for k in ("experiments.run_experiment", "experiments.ExperimentResult.rendered")
        )
        self_s = layers["cli.main"]["busy_s"] - inner
        layers["cli.main.self"] = {"calls": 0, "busy_s": self_s, "share": self_s / wall_s}
    counts = {}
    for name, total in tracer.counts.items():
        if total % len(passes):
            raise RuntimeError(f"work count {name} differs between passes")
        counts[name] = total // len(passes)
    return {
        "wall_s": wall_s,
        "wall_ref": statistics.fmean(p["wall_ref"] for p in passes),
        "coverage": direct / wall_s,
        "layers": layers,
        "counts": counts,
    }


def measure(workload, seconds: float, trace: bool) -> tuple[dict, Tracer]:
    """Whole passes, as many as bring the measured time nearest to ``seconds``."""
    reference_s()  # warm the kernel before its first timed run
    tracer = Tracer(trace)
    passes: list[dict] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, tracer, first_row=len(passes) * len(workload.rows)))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 > seconds:
            break
    latencies_ms = [x for p in passes for x in p["latencies_ms"]]
    latencies_ref = [x for p in passes for x in p["latencies_ref"]]
    result = {
        "passes": len(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "messages": [m for p in passes for m in p["messages"]][:MAX_MESSAGES],
        "ref_ms": statistics.median(r for p in passes for r in p["refs"]) * 1000.0,
        "row_samples": len(latencies_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for key in ("wall_s", "wall_ref", "cpu_s", "cpu_ref"):
        result[key] = statistics.median(p[key] for p in passes)
    enough = len(latencies_ms) > 1  # none when every row raised
    result["row_ms_p50"] = statistics.median(latencies_ms) if enough else None
    result["row_ms_p90"] = _p90(latencies_ms) if enough else None
    result["row_p50_ref"] = statistics.median(latencies_ref) if enough else None
    result["row_p90_ref"] = _p90(latencies_ref) if enough else None
    if trace:
        result["trace"] = _trace_summary(tracer, passes)
    return result, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal sizes, for the tests")
    parser.add_argument("--setup-only", action="store_true", help="exit after READY")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result, tracer = measure(workload, args.seconds, bool(args.trace))
    result["env"] = environment(args.seed)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
        result["spans_file"] = f"{OUT_DIR.name}/{path.name}"
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
