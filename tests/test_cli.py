import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phaselab import cli, experiments, linalg, simulate
from phaselab.experiments import CSV_HEADER, VerificationError


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

    def test_stress_small(self, capsys):
        assert cli.main(["stress", "--n", "2", "--q", "1", "--trials", "20", "--seed", "1"]) == 0
        assert "random-stress" in capsys.readouterr().err

    def test_missing_n_exits_2(self, capsys):
        assert cli.main(["epr-check"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_usage_error_exits_2(self, capsys):
        assert cli.main([]) == 2


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


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"kind": "epr-check", "n_values": [2]}, ["--out", "missing/r.csv"]),
        ([["kind", "epr-check"], ["n_values", [2]]], []),
        ({"kind": "epr-check", "n_values": 4}, []),
        ({"kind": "epr-check", "n_values": [2], "trials": "5"}, []),
        ({"kind": "bound-sweep", "n_values": [2], "trials": 2.5}, []),
        ({"kind": "epr-check", "n_values": [2], "seed": 1.5}, []),
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
    ],
    ids=["out-in-missing-dir", "top-level-list", "n-not-a-list", "trials-string",
         "trials-fraction", "seed-fraction", "theta-null", "theta-list", "theta-string",
         "floor-bool", "kind-list", "reduction-floors-and-trials", "epr-unread-fields",
         "bound-sweep-theta", "cemm-q", "cemm-grid-below-2", "epr-check-trials", "cemm-trials",
         "theta-empty-entry"],
)
def test_malformed_outside_input_exits_2(config, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["sweep", "--config", str(path)] + argv
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("phaselab: ")
    if "--out" not in argv:
        assert err.startswith("phaselab: configuration error")


class TestFailurePropagation:
    def test_verification_failure_exits_1(self, monkeypatch, capsys):
        def boom(cfg, jobs=None):
            raise VerificationError("bound violated: seed=42")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert cli.main(["verify-bound", "--n", "4", "--q", "1"]) == 1
        assert "VERIFICATION FAILURE" in capsys.readouterr().err

    def test_failed_numerical_check_in_a_row_exits_1(self, monkeypatch, capsys):
        class NanGenerator:
            def standard_normal(self, shape):
                return np.full(shape, np.nan)

        monkeypatch.setattr(
            simulate, "_haar_isometries",
            lambda rng, count, dim, m: linalg._haar_isometries(NanGenerator(), count, dim, m),
        )
        with np.errstate(invalid="ignore"):
            assert cli.main(["verify-bound", "--n", "4", "--q", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("phaselab: VERIFICATION FAILURE: sampled isometry fails its check")
        assert "(n=4 q=1 kind=haar trial=0 seed=" in err

    def test_leakage_over_budget_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "counter_leakage", lambda state, budget: 1e-6)
        assert cli.main(["verify-bound", "--n", "4", "--q", "1", "--trials", "1"]) == 1
        assert "counter leakage 1e-06 exceeds budget" in capsys.readouterr().err
