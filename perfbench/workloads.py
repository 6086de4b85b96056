"""The four benchmark workloads and the check every output row must pass.

Each workload builds its inputs from the master seed alone (the program sees
only those inputs) and yields rows. ``run(row, tracer)`` calls phaselab's
public functions through the tracer and returns one ``Verdict`` per verified
output row. A check compares a row with the property the paper proves: a
success probability never exceeds its ``(q+1)/n`` ceiling, the counter
register leaks no Fourier weight outside the reachable range, and two routes
to the same quantity agree. No check compares against pinned output values,
so a change to how seeds map to algorithms cannot fail it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from phaselab import algorithms, cli, experiments, fourier, linalg, oracles, simulate

PROB_TOL = 1e-9  # acceptance tolerance on probabilities
LEAK_TOL = 1e-10  # acceptance tolerance on counter leakage

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


@dataclass(frozen=True)
class Verdict:
    """One output row: a probability against its proven ceiling, the counter
    leakage of the run behind it, and optionally a value it must equal.

    ``ms`` is the row's latency when the program timed the row itself.
    """

    observed: float
    ceiling: float
    leakage: float = 0.0
    expected: float | None = None
    ms: float | None = None

    def failures(self) -> list[str]:
        # written so that NaN fails every comparison
        out = []
        if not self.observed <= self.ceiling + PROB_TOL:
            out.append(f"over ceiling: {self.observed!r} > {self.ceiling!r}")
        if not self.leakage <= LEAK_TOL:
            out.append(f"leaky: {self.leakage!r} > {LEAK_TOL}")
        if self.expected is not None and not abs(self.observed - self.expected) <= PROB_TOL:
            out.append(f"mismatch: {self.observed!r} != {self.expected!r}")
        return out


def _seed(master: int, *key: int) -> int:
    """Row seed from the master seed and the row's coordinates."""
    ss = np.random.SeedSequence([master & 0xFFFFFFFFFFFFFFFF, *key])
    return int(ss.generate_state(1, np.uint64)[0])


def _budgets(n: int) -> range:
    return range(min(n - 1, 12) + 1)


def _dim(n: int) -> int:
    return simulate.standard_layout(n).total_dim  # (O, B, W) = n * 2 * 2


class HaarGrid:
    """Haar-random algorithms over the criterion-1/2 grid at reduced trials.

    Haar sampling of dense steps and the purified simulator do nearly all the
    work; the ``algorithms`` builders never run.
    """

    per_row = 1

    def __init__(self, seed: int, tiny: bool = False):
        ns = (2, 4) if tiny else (2, 4, 8, 16, 32, 64)
        trials = 1 if tiny else 3
        pick = np.random.default_rng(_seed(seed, 1))
        self.rows = []
        for n in ns:
            for q in _budgets(n):
                cross_check = int(pick.integers(trials))  # one trial per point
                for t in range(trials):
                    self.rows.append((n, q, _seed(seed, 1, n, q, t), t == cross_check))

    def run(self, row, tr) -> list[Verdict]:
        n, q, seed, cross_check = row
        family = tr.call("oracles.default_family", oracles.default_family, n)
        alg = tr.call(
            "simulate.haar_random_algorithm", simulate.haar_random_algorithm, n, q, seed
        )
        dim = _dim(n)
        tr.count("simulate.haar_random_algorithm.matrix_elems", (q + 1) * dim * dim)
        rng = np.random.default_rng(seed)  # the same stream the algorithm drew from
        for _ in range(q + 1):
            tr.replay("linalg.haar_random_unitary", linalg.haar_random_unitary, dim, rng)

        transcript = tr.call(
            "simulate.run_purified_transcript", simulate.run_purified_transcript, alg, family
        )
        # q+1 steps and q oracle calls, each over the whole purified state
        tr.count("simulate.run_purified_transcript.state_elems", (2 * q + 1) * dim * n)
        if q:
            tr.replay(
                "oracles.coherent_controlled_u", oracles.coherent_controlled_u, family,
                oracles.FORWARD,
            )
        for _ in range(q + 1):
            # snapshots are taken on states of the final state's shape
            tr.replay(
                "fourier.fourier_weights", fourier.fourier_weights, transcript.final_state,
                simulate.COUNTER,
            )

        leakage = max(
            tr.call(
                "simulate.leakage_from_weights", simulate.leakage_from_weights, w, range(j + 1)
            )
            for j, w in enumerate(transcript.counter_weights)
        )
        observed = tr.call(
            "simulate.success_probability_purified",
            simulate.success_probability_purified,
            transcript.final_state,
        )
        expected = None
        if cross_check:
            expected = tr.call(
                "simulate.success_probability_average",
                simulate.success_probability_average, alg, family,
            )
            tr.count("simulate.success_probability_average.labels", n)
        return [Verdict(observed, (q + 1) / n, leakage, expected)]


class Search:
    """Adversarial search over the criterion-2 grid, several seeds per point.

    The private simulator and 64x64 SVDs inside ``adversarial_search`` do the
    work; Haar sampling runs only at restarts, and neither ``fourier`` nor the
    builders run.
    """

    per_row = 1

    def __init__(self, seed: int, tiny: bool = False):
        ns = (4,) if tiny else (8, 16)
        seeds = 1 if tiny else 5
        self.iterations = 1 if tiny else 3
        self.rows = [
            (n, q, _seed(seed, 2, n, q, k)) for n in ns for q in _budgets(n) for k in range(seeds)
        ]

    def run(self, row, tr) -> list[Verdict]:
        n, q, seed = row
        best, alg = tr.call(
            "experiments.adversarial_search", experiments.adversarial_search,
            n, q, self.iterations, seed,
        )
        tr.count("experiments.adversarial_search.iterations", self.iterations)
        family = tr.call("oracles.default_family", oracles.default_family, n)
        observed = tr.call(
            "simulate.success_probability_average", simulate.success_probability_average,
            alg, family,
        )
        tr.count("simulate.success_probability_average.labels", n)
        state = tr.call("simulate.run_purified", simulate.run_purified, alg, family)
        leakage = tr.call("simulate.counter_leakage", simulate.counter_leakage, state, q)
        return [Verdict(best, (q + 1) / n, leakage, expected=observed)]


def _fejer(theta: float, n: int) -> np.ndarray:
    """Closed-form outcome distribution of grid-n phase estimation at theta."""
    delta = theta - np.arange(n) / n
    return np.sin(math.pi * n * delta) ** 2 / (n * n * np.sin(math.pi * delta) ** 2)


class Exact:
    """Tightness scan and estimator curve: dense step builders and fixed-label
    runs over many labels; no Haar sampling and no purified run.

    The estimator circuit is rebuilt for every phase, so a build cache shows.
    """

    per_row = 1

    def __init__(self, seed: int, tiny: bool = False):
        tight_ns = range(2, 5) if tiny else range(2, 25)
        curve_ns = (8,) if tiny else (64, 96)
        pick = np.random.default_rng(_seed(seed, 3))
        eig = np.array([1.0, 0.0], dtype=np.complex128)
        self.rows = [("tight", n, q) for n in tight_ns for q in range(n)]
        for n in curve_ns:
            off_grid = (int(pick.integers(n)) + float(pick.uniform(0.1, 0.9))) / n
            for theta in (0.5 / n, off_grid):
                self.rows.append(("curve", n, oracles.PhaseInstance(theta, eig)))

    def run(self, row, tr) -> list[Verdict]:
        kind, n, arg = row
        dim = _dim(n)
        if kind == "tight":
            q = arg
            alg = tr.call(
                "algorithms.build_truncated_optimal", algorithms.build_truncated_optimal, n, q
            )
            tr.count("algorithms.build_truncated_optimal.matrix_elems", (q + 1) * dim * dim)
            family = tr.call("oracles.default_family", oracles.default_family, n)
            observed = tr.call(
                "simulate.success_probability_average", simulate.success_probability_average,
                alg, family,
            )
            tr.count("simulate.success_probability_average.labels", n)
            return [Verdict(observed, (q + 1) / n, expected=(q + 1) / n)]
        inst = arg
        dist = tr.call(
            "algorithms.cemm_on_continuous_phase", algorithms.cemm_on_continuous_phase, inst, n
        )
        tr.count("algorithms.cemm_on_continuous_phase.matrix_elems", n * dim * dim)
        # at theta = 0.5/n entry 0 is 1/(n^2 sin^2(pi/2n)); check every entry
        fejer = _fejer(inst.theta, n)
        worst = int(np.argmax(np.abs(dist - fejer)))
        return [Verdict(float(dist[worst]), 1.0, expected=float(fejer[worst]))]


class CliSweep:
    """``phaselab verify-bound`` in-process: 1,280 rows of dim-32 work.

    Per-call overhead and validation dominate rather than BLAS. It is the
    only workload that covers ``cli``, the runners and the rendering. The
    rows come from twenty calls of 7 trials each rather than one call of
    150, so that the host-speed reference is sampled every ~0.4 s. ``--jobs
    1``: with two threads on two cores the time of a pass depended on how
    the host scheduled the pair and spread by 28% (row p90 by 50%) over ten
    seeds, wider than any bound the benchmark may set.
    """

    def __init__(self, seed: int, tiny: bool = False):
        n, trials, calls = (4, 2, 2) if tiny else (8, 7, 20)
        self.out = OUT_DIR / f"cli-sweep-{os.getpid()}.csv"
        self.rows = []  # one (argv, config) per cli.main call
        for k in range(calls):
            call_seed = _seed(seed, 4, k) >> 33  # a plain 31-bit CLI seed
            argv = [
                "verify-bound", "--n", str(n), "--q", f"0..{n - 1}", "--trials", str(trials),
                "--seed", str(call_seed), "--jobs", "1", "--out", str(self.out),
            ]
            config = experiments.ExperimentConfig(
                kind="bound-sweep", n_values=(n,), q_values=tuple(range(n)), trials=trials,
                seed=call_seed, output_path=str(self.out),
            )
            self.rows.append((argv, config))
        self.per_row = n * (trials + 1)  # one saturating plus `trials` Haar rows per q

    def run(self, row, tr) -> list[Verdict]:
        argv, config = row
        OUT_DIR.mkdir(exist_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = tr.call("cli.main", cli.main, argv)
        if code != 0:
            raise RuntimeError(f"cli.main exited {code}: {err.getvalue().strip()}")
        try:
            with open(self.out, encoding="utf-8") as fh:
                records = list(csv.DictReader(fh))
        finally:
            self.out.unlink(missing_ok=True)
        result = tr.replay("experiments.run_experiment", experiments.run_experiment,
                           config, jobs=1)
        if result is not None:
            tr.replay("experiments.ExperimentResult.rendered", result.rendered, "csv")
        if len(records) != self.per_row:
            raise RuntimeError(f"expected {self.per_row} CSV rows, got {len(records)}")
        tr.count("cli.main.rows", len(records))
        # every bound-sweep row averages success over its n labels
        tr.count("simulate.success_probability_average.labels", sum(int(r["n"]) for r in records))
        return [
            Verdict(
                float(r["observed_probability"]), float(r["bound_value"]),
                float(r["max_leakage"]), ms=float(r["wall_time_ms"]),
            )
            for r in records
        ]


WORKLOADS = {"haar-grid": HaarGrid, "search": Search, "exact": Exact, "cli-sweep": CliSweep}
