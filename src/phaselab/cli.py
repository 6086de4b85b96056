"""Command-line front end for the verification sweeps.

Exit codes: 0 success, 1 a proven bound or leakage budget was violated or
a numerical check inside a row failed, 2 usage or configuration error, or an
output file that cannot be written. Row data goes to --out or stdout; the
one-line summary always goes to stderr so piped CSV stays clean.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from ._version import __version__
from .experiments import KINDS, ExperimentConfig, VerificationError, run_experiment

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


def _one_int(text: str, flag: str) -> int:
    """The one integer a flag such as ``--seed`` takes, read as
    ``parse_int_spec`` reads ``--n``; anything else raises ``ValueError``."""
    try:
        values = parse_int_spec(text)
    except ValueError:
        values = ()
    if len(values) != 1:
        raise ValueError(f"{flag} takes one integer, got {text!r}")
    return values[0]


def parse_float_list(text: str) -> tuple[float, ...]:
    """Parse a comma list of floats, '0.1,0.25'; an empty entry is an error."""
    tokens = str(text).split(",")
    if not all(token.strip() for token in tokens):
        raise ValueError(f"empty entry in number list {text!r}")
    return tuple(float(token) for token in tokens)


# Each config flag: the ExperimentConfig field it sets, the reader of its
# text and its help line, in --help order, which is also the order
# _build_config reads them in, so their errors fire in that order.
_FLAGS = {
    "--n": ("n_values", parse_int_spec, "problem sizes: value, comma list, or a..b range"),
    "--q": ("q_values", parse_int_spec,
            "query counts: value, comma list, or a..b range (default: 0..min(n-1, 12))"),
    "--theta": ("theta_grid", parse_float_list, "comma list of phases in [0, 1)"),
    "--trials": ("trials", functools.partial(_one_int, flag="--trials"),
                 "trials / search iterations per grid point"),
    "--seed": ("seed", functools.partial(_one_int, flag="--seed"),
               f"master seed (fallback: ${ENV_SEED})"),
    "--out": ("output_path", str, "output file (default: stdout)"),
    "--format": ("format", str, "output format: csv (default) or json"),
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser, one command per ``experiments.KINDS`` entry, then
    ``sweep``: every command takes every flag, and ``ExperimentConfig``
    rejects a field the command's kind never reads."""
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Numerical verification lab for phase-oracle query bounds",
    )
    parser.add_argument("--version", action="version", version=f"phaselab {__version__}")
    commands = [f"{k.command}: {k.about}" for k in KINDS.values()]
    commands.append("sweep: run an experiment described by a config file")
    parser.add_argument(
        "command", choices=(*(k.command for k in KINDS.values()), "sweep"), metavar="command",
        help="one of " + "; ".join(commands),
    )
    for flag, (_, _, help_line) in _FLAGS.items():
        parser.add_argument(flag, help=help_line)
    parser.add_argument("--jobs", default="1", help="worker threads (default 1)")
    parser.add_argument("--config", help="JSON config file; flags override its values")
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
        kind = next(name for name, k in KINDS.items() if k.command == args.command)
        if data.setdefault("kind", kind) != kind:
            raise ValueError(
                f"config file kind {data['kind']!r} does not match {args.command}, "
                f"which runs {kind!r}"
            )

    for flag, (field, read, _) in _FLAGS.items():
        text = getattr(args, flag[2:])
        if text is not None:
            data[field] = read(text)
    # Seed precedence: flag, then environment, then config file, then 0.
    if args.seed is None and ENV_SEED in os.environ:
        data["seed"] = _one_int(os.environ[ENV_SEED], f"${ENV_SEED}")

    if "n_values" not in data:
        raise ValueError("no problem sizes given: pass --n or a config file")
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return exc.code if isinstance(exc.code, int) else 2

    try:
        cfg = _build_config(args)
        jobs = _one_int(args.jobs, "--jobs")
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"phaselab: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_experiment(cfg, jobs=jobs)
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
    print(f"{cfg.kind}: {KINDS[cfg.kind].summary(result.rows)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
