"""Acceptance suite: every release gate runs here at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`) and
asserts the same condition, so the suite doubles as a human-readable report:

    python -m pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

import reference
from phaselab import cli
from phaselab.algorithms import (
    build_cemm,
    build_truncated_optimal,
    cemm_on_continuous_phase,
    epr_fourier_deviation,
)
from phaselab.experiments import _reduction_chain, adversarial_search, derive_seed
from phaselab.oracles import PhaseInstance, default_family
from phaselab.simulate import (
    _haar_transcript,
    _run_labels,
    haar_random_algorithm,
    leakage_from_weights,
    reachable_counter_values,
    run_purified,
    success_probability_average,
    success_probability_purified,
)

MASTER_SEED = 2026
GRID_N = (2, 4, 8, 16, 32, 64)
GRID_TRIALS = 25
LEAK_TOL = 1e-10
PROB_TOL = 1e-9
AMP_TOL = 1e-10


def _budgets(n):
    return range(min(n - 1, 12) + 1)


def report(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def grid_sweep():
    """One pass over the shared grid of criteria 1 and 2.

    For every (n, q) and 25 Haar-random algorithms, drawn on their label
    columns: worst per-step counter leakage plus the exact success
    probability read off the purified final state. A seeded subsample of
    dense ``haar_random_algorithm``s cross-checks the kernel's fixed-label
    average against the dense coherent-oracle purified run of the tests
    reference, so the two success routes stay tied at 1e-9.
    """
    t0 = time.perf_counter()
    max_leakage = 0.0
    max_deficit = -1.0
    max_consistency_gap = 0.0
    rows = 0
    for n in GRID_N:
        family = default_family(n)
        for q in _budgets(n):
            bound = (q + 1) / n
            for trial in range(GRID_TRIALS):
                seed = derive_seed(MASTER_SEED, "haar", n, q, trial)
                tr = _haar_transcript(family, [1] * q, np.random.default_rng(seed))
                leak = max(float(w[j + 1 :].sum()) for j, w in enumerate(tr.counter_weights))
                observed = success_probability_purified(tr.final_state)
                max_leakage = max(max_leakage, leak)
                max_deficit = max(max_deficit, observed - bound)
                rows += 1
                if trial < 2 and q == max(_budgets(n)):
                    alg = haar_random_algorithm(n, q, seed)
                    avg = success_probability_average(alg, family)
                    ref = success_probability_purified(reference.run_purified(alg, family))
                    max_consistency_gap = max(max_consistency_gap, abs(avg - ref))
    return {
        "max_leakage": max_leakage,
        "max_deficit": max_deficit,
        "max_consistency_gap": max_consistency_gap,
        "rows": rows,
        "seconds": time.perf_counter() - t0,
    }


def test_criterion_1_counter_sparsity(grid_sweep):
    ok = grid_sweep["max_leakage"] <= LEAK_TOL
    report(
        1,
        "counter sparsity",
        ok,
        f"{grid_sweep['rows']} runs over n={GRID_N}, worst leakage "
        f"{grid_sweep['max_leakage']:.3e} (budget {LEAK_TOL:.0e}), "
        f"grid pass took {grid_sweep['seconds']:.1f}s",
    )


@pytest.fixture(scope="module")
def search_sweep():
    """Best success of a 200-sweep adversarial search at every (n, q) with
    n in {2, 4, 8, 16}, shared by criterion 2 and tightness by search."""
    t0 = time.perf_counter()
    best = {}
    for n in (2, 4, 8, 16):
        for q in _budgets(n):
            seed = derive_seed(MASTER_SEED, "adversarial", n, q, 0)
            best[n, q] = adversarial_search(n, q, iterations=200, seed=seed)[0]
    return {"best": best, "seconds": time.perf_counter() - t0}


def test_criterion_2_success_upper_bound(grid_sweep, search_sweep):
    assert grid_sweep["max_consistency_gap"] <= PROB_TOL
    worst_deficit = grid_sweep["max_deficit"]
    for (n, q), best in search_sweep["best"].items():
        worst_deficit = max(worst_deficit, best - (q + 1) / n)
    ok = worst_deficit <= PROB_TOL
    report(
        2,
        "upper bound",
        ok,
        f"worst observed-minus-bound {worst_deficit:.3e} over the grid plus "
        f"200-iteration adversarial search, extra {search_sweep['seconds']:.1f}s",
    )


def test_criterion_2_tightness_by_search(search_sweep):
    # the search climbs to (q+1)/n from Haar restarts, without the hand-built circuit
    gaps = [best - (q + 1) / n for (n, q), best in search_sweep["best"].items()]
    shortfall, overshoot = -min(gaps), max(gaps)
    ok = shortfall <= PROB_TOL and overshoot <= PROB_TOL
    report(
        2,
        "tightness by search",
        ok,
        f"{len(gaps)} searches over n in {{2,4,8,16}}, all q: largest shortfall from "
        f"(q+1)/n {shortfall:.3e}, largest overshoot {overshoot:.3e}",
    )


def test_criterion_3_tightness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 33):
        family = default_family(n)
        for q in range(n):
            got = success_probability_average(build_truncated_optimal(n, q), family)
            worst = max(worst, abs(got - (q + 1) / n))
    ok = worst <= PROB_TOL
    report(
        3,
        "tightness",
        ok,
        f"max |success - (q+1)/n| = {worst:.3e} over n=2..32, all q, "
        f"took {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_4_estimator_equivalence():
    worst = 0.0
    for n in range(2, 17):
        family = default_family(n)
        a, b = build_cemm(n), build_truncated_optimal(n, n - 1)
        diff = _run_labels(a, family, range(n)) - _run_labels(b, family, range(n))
        worst = max(worst, float(np.max(np.abs(diff))))
        pur = run_purified(a, family).amps - run_purified(b, family).amps
        worst = max(worst, float(np.max(np.abs(pur))))
    ok = worst <= AMP_TOL
    report(4, "estimator equivalence", ok, f"max final-state deviation {worst:.3e} for n=2..16")


def test_criterion_5_correlated_state_identity():
    worst = max(epr_fourier_deviation(n) for n in range(1, 33))
    ok = worst <= AMP_TOL
    report(5, "correlated-state identity", ok, f"max entrywise deviation {worst:.3e} for n=1..32")


def test_criterion_6_counter_arithmetic():
    t0 = time.perf_counter()
    n = 16
    family = default_family(n)
    rng = np.random.default_rng(derive_seed(MASTER_SEED, "schedule", n, 0, 0))
    worst = 0.0
    for _ in range(100):
        q = int(rng.integers(1, 13))
        exponents = [int(m) for m in rng.choice([1, -1, 2, 3, 5], size=q)]
        tr = _haar_transcript(family, exponents, rng)
        reach = reachable_counter_values(exponents, n)
        worst = max(
            worst,
            max(leakage_from_weights(w, s) for w, s in zip(tr.counter_weights, reach)),
        )
    ok = worst <= LEAK_TOL
    report(
        6,
        "counter arithmetic",
        ok,
        f"100 mixed forward/inverse/power schedules at n=16, worst out-of-set "
        f"leakage {worst:.3e}, took {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_7_reduction_preserves_success():
    # _reduction_chain raises VerificationError unless p_m <= r_m <= (q+1)/m
    # holds at every grid m <= N
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for n in (4, 8, 16):
        for q in range(n):
            algs = [build_truncated_optimal(n, q)] + [
                haar_random_algorithm(n, q, derive_seed(MASTER_SEED, "reduction", n, q, t))
                for t in range(5)
            ]
            for alg in algs:
                chain = _reduction_chain(alg)
                worst = max(worst, max(p * m / (q + 1) for m, (p, _) in enumerate(chain, 1)))
                checked += len(chain)
    ok = worst <= 1.0 + PROB_TOL
    report(
        7,
        "estimation bound",
        ok,
        f"p_m <= rounded success <= (q+1)/m at {checked} (estimator, m) points over "
        f"N in {{4,8,16}}, all q, optimal + 5 Haar estimators; worst p_m*m/(q+1) "
        f"{worst:.6f}, took {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_8_midgrid_probability_limit():
    target = 4 / np.pi**2
    values = {}
    for n in (8, 16, 32, 64):
        theta = 0.5 / n
        dist = cemm_on_continuous_phase(PhaseInstance(theta=theta, eigenstate=[1, 0]), n)
        closed = 1.0 / (n * n * np.sin(np.pi / (2 * n)) ** 2)
        assert dist[0] == pytest.approx(closed, abs=PROB_TOL)
        values[n] = float(dist[0])
    ok = abs(values[64] - target) <= 0.02 and abs(values[64] - target) < abs(values[8] - target)
    report(
        8,
        "mid-grid probability",
        ok,
        f"nearest-outcome probability {values[64]:.6f} at n=64 vs 4/pi^2={target:.6f} "
        f"(n=8 gives {values[8]:.6f})",
    )


def test_criterion_9_determinism(tmp_path):
    args = ["verify-bound", "--n", "8", "--q", "0..7", "--trials", "5", "--seed", "77"]
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        assert cli.main(args + ["--out", str(path)]) == 0
    stripped = [
        [line.rsplit(",", 1)[0] for line in path.read_text().strip().split("\n")]
        for path in paths
    ]
    ok = stripped[0] == stripped[1]
    report(
        9,
        "determinism",
        ok,
        f"two seeded runs produced byte-identical rows "
        f"({len(stripped[0]) - 1} rows, wall-time column excluded)",
    )
