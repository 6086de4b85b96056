"""Command-line front end for the verification sweeps.

Exit codes: 0 success, 1 a proven bound or leakage budget was violated or
a numerical check inside a row failed, 2 usage or configuration error, or an
output file that cannot be written. Row data goes to --out or stdout; the
one-line summary always goes to stderr so piped CSV stays clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from ._version import __version__
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    LEAKAGE_BUDGET,
    VerificationError,
    run_experiment,
)
from .linalg import PROB_TOL

_KIND_BY_COMMAND = {
    "verify-bound": "bound-sweep",
    "verify-counter": "counter-scan",
    "stress": "random-stress",
    "cemm": "cemm-curve",
    "epr-check": "epr-check",
    "reduction-check": "reduction-check",
}

_DEFAULT_TRIALS = {
    "bound-sweep": 10,
    "counter-scan": 25,
    "random-stress": 200,
}

ENV_SEED = "PHASELAB_SEED"


def parse_int_spec(text: str) -> tuple[int, ...]:
    """Parse '8', '2,4,8' and inclusive ranges '0..7', also mixed forms."""
    values: list[int] = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty entry in integer list {text!r}")
        if ".." in token:
            lo_text, _, hi_text = token.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"descending range {token!r}")
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(token))
    return tuple(values)


def parse_float_list(text: str) -> tuple[float, ...]:
    """Parse a comma list of floats, '0.1,0.25'; an empty entry is an error."""
    tokens = str(text).split(",")
    if not all(token.strip() for token in tokens):
        raise ValueError(f"empty entry in number list {text!r}")
    return tuple(float(token) for token in tokens)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Numerical verification lab for phase-oracle query bounds",
    )
    parser.add_argument("--version", action="version", version=f"phaselab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", help="problem sizes: value, comma list, or a..b range")
        p.add_argument("--trials", type=int, help="trials / search iterations per grid point")
        p.add_argument("--seed", type=int, help=f"master seed (fallback: ${ENV_SEED})")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        p.add_argument("--jobs", type=int, default=1, help="worker threads (default 1)")
        p.add_argument("--config", help="JSON config file; flags override its values")

    p = sub.add_parser("verify-bound", help="success probability vs the (q+1)/n ceiling")
    common(p)
    p.add_argument("--q", help="query counts: value, comma list, or a..b range")

    p = sub.add_parser("verify-counter", help="counter-spectrum leakage scans")
    common(p)
    p.add_argument("--q", help="query counts (default: 0..min(n-1, 12))")

    p = sub.add_parser("stress", help="adversarial search for bound violations")
    common(p)
    p.add_argument("--q", help="query counts (default: 0..min(n-1, 12))")

    p = sub.add_parser("cemm", help="estimator success curve over a phase grid")
    common(p)
    p.add_argument("--theta", help="comma list of phases in [0, 1)")

    p = sub.add_parser("epr-check", help="correlated-state basis-change identity")
    common(p)

    p = sub.add_parser("reduction-check", help="exact estimation bound via the rounding reduction")
    common(p)
    p.add_argument("--q", help="query counts (default: 0..min(n-1, 12))")

    p = sub.add_parser("sweep", help="run an experiment described by a config file")
    common(p)
    p.add_argument("--q", help="query counts override")
    p.add_argument("--theta", help="phase grid override")

    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")

    if args.command == "sweep":
        if "kind" not in data:
            raise ValueError("sweep requires a config file that sets 'kind'")
    else:
        data["kind"] = _KIND_BY_COMMAND[args.command]

    if args.n is not None:
        data["n_values"] = parse_int_spec(args.n)
    if getattr(args, "q", None) is not None:
        data["q_values"] = parse_int_spec(args.q)
    if getattr(args, "theta", None) is not None:
        data["theta_grid"] = parse_float_list(args.theta)
    if args.trials is not None:
        data["trials"] = args.trials
    if args.out is not None:
        data["output_path"] = args.out
    if args.format is not None:
        data["format"] = args.format

    # Seed precedence: flag, then environment, then config file, then 0.
    if args.seed is not None:
        data["seed"] = args.seed
    elif ENV_SEED in os.environ:
        data["seed"] = int(os.environ[ENV_SEED])

    if "n_values" not in data:
        raise ValueError("no problem sizes given: pass --n or a config file")
    cfg = ExperimentConfig.from_dict(data)  # checks the kind before it picks a default
    if "trials" in data or cfg.kind not in _DEFAULT_TRIALS:
        return cfg
    return dataclasses.replace(cfg, trials=_DEFAULT_TRIALS[cfg.kind])


def _summary(result: ExperimentResult, cfg: ExperimentConfig) -> str:
    rows = result.rows
    kind = cfg.kind
    if kind in ("bound-sweep", "random-stress", "reduction-check"):
        ok = sum(1 for r in rows if r.gap >= -PROB_TOL)
        deficit = max(r.observed_probability - r.bound_value for r in rows)
        return f"{kind}: {ok}/{len(rows)} rows within bound; max gap deficit {deficit:.3g}"
    if kind == "counter-scan":
        ok = sum(1 for r in rows if r.max_leakage <= LEAKAGE_BUDGET)
        worst = max(r.max_leakage for r in rows)
        return f"{kind}: {ok}/{len(rows)} rows within leakage budget; max leakage {worst:.3g}"
    if kind == "cemm-curve":
        curve = [r for r in rows if r.kind == "cemm"]
        worst = min(r.observed_probability for r in curve)
        return f"{kind}: worst within-tolerance probability {worst:.6g} over {len(curve)} phases"
    if kind == "epr-check":
        dev = max(r.max_leakage for r in rows)
        return f"{kind}: max entrywise deviation {dev:.3g}"
    return f"{kind}: {len(rows)} rows"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return exc.code if isinstance(exc.code, int) else 2

    try:
        cfg = _build_config(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"phaselab: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_experiment(cfg, jobs=args.jobs)
    except VerificationError as exc:
        print(f"phaselab: VERIFICATION FAILURE: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"phaselab: configuration error: {exc}", file=sys.stderr)
        return 2

    text = result.rendered(cfg.format)
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"phaselab: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print(_summary(result, cfg), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
