import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phaselab import cli, experiments, linalg, simulate
from phaselab.experiments import CSV_HEADER, ExperimentConfig, VerificationError, run_experiment


def strip_wall_time(text):
    return [line.rsplit(",", 1)[0] for line in text.strip().split("\n")]


class TestIntSpec:
    def test_single_value(self):
        assert cli.parse_int_spec("8") == (8,)

    def test_comma_list(self):
        assert cli.parse_int_spec("2,4,8") == (2, 4, 8)

    def test_inclusive_range(self):
        assert cli.parse_int_spec("0..7") == tuple(range(8))

    def test_mixed(self):
        assert cli.parse_int_spec("1,4..6,9") == (1, 4, 5, 6, 9)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            cli.parse_int_spec("3..1")
        with pytest.raises(ValueError):
            cli.parse_int_spec("a,b")
        with pytest.raises(ValueError):
            cli.parse_int_spec("1,,2")


class TestVerifyBound:
    def test_spec_example_row_count(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli.main(
            ["verify-bound", "--n", "8", "--q", "0..7", "--trials", "50",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) - 1 == 400 + 8
        err = capsys.readouterr().err
        assert "bound-sweep" in err and "rows within bound" in err

    def test_invalid_q_exits_2(self, capsys):
        assert cli.main(["verify-bound", "--q", "9", "--n", "4"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_stdout_when_no_out(self, capsys):
        code = cli.main(["verify-bound", "--n", "3", "--q", "0", "--trials", "1", "--seed", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER)
        assert "bound-sweep" in captured.err

    def test_json_format(self, capsys):
        code = cli.main(
            ["verify-bound", "--n", "3", "--q", "0", "--trials", "1", "--seed", "1",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["kind"] == "bound-sweep"

    def test_identical_seeds_identical_rows(self, tmp_path):
        args = ["verify-bound", "--n", "4", "--q", "0..3", "--trials", "3", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert strip_wall_time(a.read_text()) == strip_wall_time(b.read_text())


def run_with_blas_threads(argv, threads, out):
    """``phaselab`` in a fresh interpreter whose BLAS runs ``threads`` threads."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "phaselab.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return out.read_text()


class TestBlasThreadDeterminism:
    # BLAS sums in a thread-dependent order, so an exactly-zero counter
    # leakage comes out as different ~1e-29 roundoff; the rendered leakage
    # columns must not show it. On a one-CPU host both runs use one thread
    # and agree anyway.

    def test_csv_rows_identical(self, tmp_path):
        # the probabilities of this sweep differ by at most an ulp between
        # thread counts, which 12 significant digits do not show
        argv = ["verify-bound", "--n", "16,32", "--q", "0..8", "--trials", "5", "--seed", "7"]
        one, two = (
            run_with_blas_threads(argv, t, tmp_path / f"{t}.csv") for t in (1, 2)
        )
        assert strip_wall_time(one) == strip_wall_time(two)

    def test_json_rows_identical(self, tmp_path):
        # counter rows: observed_probability and max_leakage are leakages,
        # and gap = 1e-10 - leakage is 1e-10 exactly in floating point
        argv = ["verify-counter", "--n", "16,32", "--q", "0..8", "--trials", "3", "--seed", "7",
                "--format", "json"]
        rows = []
        for t in (1, 2):
            payload = json.loads(run_with_blas_threads(argv, t, tmp_path / f"{t}.json"))
            rows.append([{k: v for k, v in r.items() if k != "wall_time_ms"}
                         for r in payload["rows"]])
        assert rows[0] == rows[1]


class TestSeedPrecedence:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv(cli.ENV_SEED, "33")
        cli.main(["verify-bound", "--n", "4", "--q", "1", "--trials", "2", "--out", str(a)])
        monkeypatch.delenv(cli.ENV_SEED)
        cli.main(["verify-bound", "--n", "4", "--q", "1", "--trials", "2", "--seed", "33",
                  "--out", str(b)])
        assert strip_wall_time(a.read_text()) == strip_wall_time(b.read_text())

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv(cli.ENV_SEED, "1000")
        cli.main(["verify-bound", "--n", "4", "--q", "1", "--trials", "2", "--seed", "33",
                  "--out", str(a)])
        monkeypatch.delenv(cli.ENV_SEED)
        cli.main(["verify-bound", "--n", "4", "--q", "1", "--trials", "2", "--seed", "33",
                  "--out", str(b)])
        assert strip_wall_time(a.read_text()) == strip_wall_time(b.read_text())


class TestOtherCommands:
    def test_epr_check_prints_deviation(self, capsys):
        assert cli.main(["epr-check", "--n", "12"]) == 0
        err = capsys.readouterr().err
        assert "max entrywise deviation" in err

    def test_verify_counter_defaults(self, capsys):
        assert cli.main(["verify-counter", "--n", "4", "--trials", "2"]) == 0
        assert "within leakage budget" in capsys.readouterr().err

    def test_cemm_requires_theta(self, capsys):
        assert cli.main(["cemm", "--n", "8"]) == 2

    def test_cemm_curve(self, capsys):
        assert cli.main(["cemm", "--n", "8", "--theta", "0.125,0.0625"]) == 0
        assert "worst within-tolerance" in capsys.readouterr().err

    def test_reduction_check(self, capsys):
        assert cli.main(["reduction-check", "--n", "4", "--q", "0..3"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().split("\n")) == 1 + 4
        assert "reduction-check: 4/4 rows within bound; max gap deficit" in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, jobs, capsys):
        assert cli.main(["epr-check", "--n", "3", "--jobs", jobs]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--jobs", "1.5"), ("--jobs", "2,3"), ("--trials", "2.5"), ("--seed", "x"), ("--seed", "1..2")],
    )
    def test_one_integer_flags_exit_2_as_configuration_errors(self, flag, value, capsys):
        assert cli.main(["verify-bound", "--n", "4", flag, value]) == 2
        err = capsys.readouterr().err
        assert f"phaselab: configuration error: {flag} takes one integer, got {value!r}" in err
        assert "usage:" not in err

    def test_negative_and_environment_seeds_still_work(self, monkeypatch, capsys):
        argv = ["verify-bound", "--n", "4", "--q", "0..1", "--trials", "2"]
        assert cli.main(argv + ["--seed", "-3"]) == 0
        flag_out = strip_wall_time(capsys.readouterr().out)
        monkeypatch.setenv(cli.ENV_SEED, "-3")
        assert cli.main(argv) == 0
        assert strip_wall_time(capsys.readouterr().out) == flag_out
        monkeypatch.setenv(cli.ENV_SEED, "x")
        assert cli.main(argv) == 2
        assert f"${cli.ENV_SEED} takes one integer" in capsys.readouterr().err

    def test_stress_small(self, capsys):
        assert cli.main(["stress", "--n", "2", "--q", "1", "--trials", "20", "--seed", "1"]) == 0
        assert "random-stress" in capsys.readouterr().err

    def test_missing_n_exits_2(self, capsys):
        assert cli.main(["epr-check"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_usage_error_exits_2(self, capsys):
        assert cli.main([]) == 2


class TestConfigKind:
    @pytest.mark.parametrize("config", [{}, {"kind": "counter-scan"}], ids=["no-kind", "same-kind"])
    def test_matching_or_absent_kind_is_accepted(self, config, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "n_values": [4], "trials": 2}))
        args = cli.build_parser().parse_args(["verify-counter", "--config", str(path)])
        assert cli._build_config(args).kind == "counter-scan"

    def test_other_kind_names_both(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "bound-sweep", "n_values": [4], "trials": 2}))
        args = cli.build_parser().parse_args(["verify-counter", "--config", str(path)])
        with pytest.raises(ValueError, match="'bound-sweep' does not match .* 'counter-scan'"):
            cli._build_config(args)


class TestSweepCommand:
    def test_runs_config_file(self, tmp_path, capsys):
        cfg = {
            "kind": "bound-sweep",
            "n_values": [4],
            "q_values": [0, 1],
            "trials": 2,
            "seed": 5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)
        assert len(out.strip().split("\n")) == 1 + 2 + 4

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = {"kind": "epr-check", "n_values": [2], "seed": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", "--config", str(path), "--n", "3,4"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["3", "4"]

    @pytest.mark.parametrize("trials", [None, 2], ids=["kind-default", "given"])
    def test_library_runs_the_same_rows(self, trials, tmp_path, capsys):
        # one config file, read by run_experiment and by `sweep --config`
        cfg = {"kind": "bound-sweep", "n_values": [4], "q_values": [0, 1], "seed": 5}
        if trials is not None:
            cfg["trials"] = trials
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        cli_rows = strip_wall_time(capsys.readouterr().out)
        lib = run_experiment(ExperimentConfig.from_dict(json.loads(path.read_text())))
        assert strip_wall_time(lib.rendered("csv")) == cli_rows
        assert len(cli_rows) == 1 + 2 * (1 + (trials or 10))

    def test_sweep_needs_kind(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_values": [2]}))
        assert cli.main(["sweep", "--config", str(path)]) == 2

    def test_missing_config_file(self, capsys):
        assert cli.main(["sweep", "--config", "/nonexistent/cfg.json"]) == 2

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert cli.main(["sweep", "--config", str(path)]) == 2


class TestCommandTable:
    def test_every_kind_has_one_command(self):
        parser = cli.build_parser()
        assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
        command = next(a for a in parser._actions if a.dest == "command")
        assert tuple(command.choices) == (*(k.command for k in experiments.KINDS.values()), "sweep")
        for kind, entry in experiments.KINDS.items():
            theta = ["--theta", "0.25"] if kind == "cemm-curve" else []
            args = parser.parse_args([entry.command, "--n", "4"] + theta)
            assert cli._build_config(args).kind == kind
        assert set(SUMMARIES) == {entry.command for entry in experiments.KINDS.values()}

    def test_help_names_every_command(self, capsys):
        assert cli.main(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps long help lines
        for entry in experiments.KINDS.values():
            assert f"{entry.command}: {entry.about}" in out
        assert "sweep: run an experiment described by a config file" in out

    @pytest.mark.parametrize(
        "command,kind,trials",
        [("verify-bound", "bound-sweep", 10), ("verify-counter", "counter-scan", 25),
         ("stress", "random-stress", 200), ("cemm", "cemm-curve", 1),
         ("epr-check", "epr-check", 1), ("reduction-check", "reduction-check", 1)],
    )
    def test_default_trials(self, command, kind, trials, tmp_path):
        theta = ["--theta", "0.25"] if kind == "cemm-curve" else []
        args = cli.build_parser().parse_args([command, "--n", "4"] + theta)
        assert cli._build_config(args).trials == trials
        config = {"kind": kind, "n_values": [4]}
        if theta:
            config["theta_grid"] = [0.25]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = cli.build_parser().parse_args(["sweep", "--config", str(path)])
        assert cli._build_config(args).trials == trials
        # the library takes the same default as the command line
        assert ExperimentConfig.from_dict(config).trials == trials


# each command's flags for a small seeded run and the stderr line it prints
SUMMARIES = {
    "verify-bound": ("--n 4 --q 0..1 --trials 2",
                     r"bound-sweep: 6/6 rows within bound; max gap deficit \S+"),
    "verify-counter": ("--n 4 --q 0..1 --trials 2",
                       r"counter-scan: 6/6 rows within leakage budget; max leakage \S+"),
    "stress": ("--n 4 --q 0..1 --trials 2",
               r"random-stress: 2/2 rows within bound; max gap deficit \S+"),
    "cemm": ("--n 8 --theta 0.125,0.0625",
             r"cemm-curve: worst within-tolerance probability \S+ over 2 phases"),
    "epr-check": ("--n 2,4", r"epr-check: max entrywise deviation \S+"),
    "reduction-check": ("--n 4 --q 0..1",
                        r"reduction-check: 2/2 rows within bound; max gap deficit \S+"),
}


@pytest.mark.parametrize("command", SUMMARIES)
def test_summary_line(command, capsys):
    flags, summary = SUMMARIES[command]
    assert cli.main([command, *flags.split(), "--seed", "5"]) == 0
    err = capsys.readouterr().err
    assert re.fullmatch(summary + "\n", err), err


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"kind": "epr-check", "n_values": [2]}, ["--out", "missing/r.csv"]),
        ([["kind", "epr-check"], ["n_values", [2]]], []),
        ({"kind": "epr-check", "n_values": 4}, []),
        ({"kind": "epr-check", "n_values": [2], "trials": "5"}, []),
        ({"kind": "bound-sweep", "n_values": [2], "trials": 2.5}, []),
        # null is not the kind's default trial count
        ({"kind": "bound-sweep", "n_values": [2], "trials": None}, []),
        ({"kind": "epr-check", "n_values": [2], "seed": 1.5}, []),
        # seeds that derive_seed, reading them mod 2**64, would alias
        ({"kind": "epr-check", "n_values": [2], "seed": 2**64 + 1}, []),
        (None, ["verify-bound", "--n", "4", "--seed", "18446744073709551617"]),
        (None, ["verify-bound", "--n", "4", "--seed", "-9223372036854775809"]),
        ({"kind": "cemm-curve", "n_values": [8], "theta_grid": [None]}, []),
        ({"kind": "cemm-curve", "n_values": [8], "theta_grid": [[0.1]]}, []),
        ({"kind": "cemm-curve", "n_values": [8], "theta_grid": ["0.1"]}, []),
        ({"kind": "reduction-check", "n_values": [4], "theta_grid": [True]}, []),
        ({"kind": ["x"], "n_values": [2]}, []),
        # fields the kind never reads
        ({"kind": "reduction-check", "n_values": [4], "theta_grid": [0.3, 0.6],
          "trials": 1000}, []),
        ({"kind": "epr-check", "n_values": [3], "q_values": [0, 1, 2], "theta_grid": [0.1],
          "trials": 7}, []),
        ({"kind": "bound-sweep", "n_values": [4], "theta_grid": [0.1]}, []),
        ({"kind": "cemm-curve", "n_values": [8], "theta_grid": [0.1], "q_values": [1]}, []),
        (None, ["cemm", "--n", "8,1", "--theta", "0.1"]),
        (None, ["epr-check", "--n", "3", "--trials", "9"]),
        (None, ["cemm", "--n", "8", "--theta", "0.1", "--trials", "9"]),
        (None, ["cemm", "--n", "8", "--theta", "0.1,,0.2"]),
        # flags the command's kind never reads, and a format no writer has
        (None, ["verify-bound", "--n", "4", "--theta", "0.1"]),
        (None, ["epr-check", "--n", "3", "--q", "1"]),
        (None, ["reduction-check", "--n", "4", "--theta", "0.3"]),
        (None, ["verify-bound", "--n", "4", "--format", "xml"]),
        # a config file whose kind is not the command's
        ({"kind": "bound-sweep", "n_values": [4], "trials": 2}, ["verify-counter"]),
    ],
    ids=["out-in-missing-dir", "top-level-list", "n-not-a-list", "trials-string",
         "trials-fraction", "trials-null", "seed-fraction", "seed-2to64-plus-1",
         "seed-flag-2to64-plus-1", "seed-flag-below-minus-2to63", "theta-null", "theta-list",
         "theta-string", "floor-bool", "kind-list", "reduction-floors-and-trials",
         "epr-unread-fields", "bound-sweep-theta", "cemm-q", "cemm-grid-below-2",
         "epr-check-trials", "cemm-trials", "theta-empty-entry", "bound-sweep-theta-flag",
         "epr-check-q-flag", "reduction-theta-flag", "format-xml", "config-kind-not-the-commands"],
)
def test_malformed_outside_input_exits_2(config, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        if not argv or argv[0].startswith("-"):  # a case that names no command runs sweep
            argv = ["sweep"] + argv
        argv = argv + ["--config", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("phaselab: ")
    if "--out" not in argv:
        assert err.startswith("phaselab: configuration error")


class NanGenerator:
    def standard_normal(self, shape):
        return np.full(shape, np.nan)


class TestFailurePropagation:
    def test_verification_failure_exits_1(self, monkeypatch, capsys):
        def boom(cfg, jobs=None):
            raise VerificationError("bound violated: seed=42")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert cli.main(["verify-bound", "--n", "4", "--q", "1"]) == 1
        assert "VERIFICATION FAILURE" in capsys.readouterr().err

    def test_failed_numerical_check_in_a_row_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(
            simulate, "_haar_isometries",
            lambda rngs, count, dim, m: linalg._haar_isometries(
                [NanGenerator()] * len(rngs), count, dim, m
            ),
        )
        with np.errstate(invalid="ignore"):
            assert cli.main(["verify-bound", "--n", "4", "--q", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("phaselab: VERIFICATION FAILURE: sampled isometry fails its check")
        assert "(n=4 q=1 kind=haar trial=0 seed=" in err

    @pytest.mark.parametrize(
        "command,kind", [("verify-bound", "haar"), ("verify-counter", "schedule")]
    )
    def test_failed_trial_of_a_batch_is_named(self, command, kind, monkeypatch, capsys):
        # only trial 2's generator draws NaN; the trials batched beside it pass
        n, q, trial, master = 4, 1, 2, 5
        seed = experiments.derive_seed(master, kind, n, q, trial)
        rng = np.random.default_rng(seed)
        if kind == "schedule":
            rng.choice(experiments._SCHEDULE_EXPONENTS, size=q)
        target = rng.bit_generator.state  # the state the steps are drawn from
        draw = linalg._haar_isometries

        def nan_in_one(rngs, count, dim, m):
            rngs = [NanGenerator() if r.bit_generator.state == target else r for r in rngs]
            return draw(rngs, count, dim, m)

        monkeypatch.setattr(simulate, "_haar_isometries", nan_in_one)
        argv = [command, "--n", str(n), "--q", str(q), "--trials", "3", "--seed", str(master)]
        with np.errstate(invalid="ignore"):
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("phaselab: VERIFICATION FAILURE: sampled isometry fails its check")
        assert f"(n=4 q=1 kind={kind} trial=2 seed={seed})" in err

    @pytest.mark.parametrize(
        "command,kind", [("verify-bound", "haar"), ("verify-counter", "forward")]
    )
    def test_off_norm_trial_of_a_batch_is_named(self, command, kind, monkeypatch, capsys):
        # trial 2's columns scaled by 1 + 1e-6 in the first Haar step: its
        # counter spectrum sums to ~1 + 2e-6, and its own row fails
        n, q, master = 4, 1, 5
        apply = simulate._IsometryStep.__matmul__
        planted = []

        def scaled(step, cols):
            out = apply(step, cols)
            if not planted:
                planted.append(True)
                out.reshape(out.shape[0], -1, n)[:, 2] *= 1 + 1e-6
            return out

        monkeypatch.setattr(simulate._IsometryStep, "__matmul__", scaled)
        argv = [command, "--n", str(n), "--q", str(q), "--trials", "3", "--seed", str(master)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("phaselab: VERIFICATION FAILURE: ")
        seed = experiments.derive_seed(master, kind, n, q, 2)
        assert f"(n=4 q=1 kind={kind} trial=2 seed={seed})" in err

    def test_leakage_over_budget_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "leakage_from_weights", lambda weights, allowed: 1e-6)
        assert cli.main(["verify-bound", "--n", "4", "--q", "1", "--trials", "1"]) == 1
        assert "counter leakage 1e-06 exceeds budget" in capsys.readouterr().err
