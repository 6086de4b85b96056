"""Acceptance suite: every release gate runs here at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`) and
asserts the same condition, so the suite doubles as a human-readable report:

    python -m pytest tests/test_acceptance.py -v -s
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import reference
from phaselab import cli
from phaselab.algorithms import (
    _assemble,
    build_truncated_optimal,
    cemm_on_continuous_phase,
    epr_fourier_deviation,
)
from phaselab.experiments import _reduction_chain, adversarial_search, derive_seed
from phaselab.linalg import UnitaryMatrix
from phaselab.oracles import PhaseInstance, default_family
from phaselab.simulate import (
    QueryAlgorithm,
    _counter_spectra,
    _haar_runs,
    _label_success,
    _outcome_weights,
    _purified_state,
    _run,
    _run_labels,
    haar_random_algorithm,
    leakage_from_weights,
    reachable_counter_values,
    run_purified,
    standard_layout,
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


def per_run_ceiling(weights, q, n):
    """B = (sum_{k<=q} sqrt(w_k))^2 / n for the final counter spectrum w.

    With psi_y = sum_k omega^(yk) phi_k and w_k = |phi_k|^2, Minkowski's
    inequality over the labels y gives success <= B, and Cauchy-Schwarz
    gives B <= (q+1)/n, with equality exactly when w_k = 1/(q+1) for k <= q.
    """
    return float(np.sqrt(weights[: q + 1]).sum() ** 2 / n)


def final_spectrum(alg, family):
    """The counter spectrum after the last query, and the success, read off
    the algorithm's label columns."""
    cols = _run_labels(alg, family, range(family.n))
    return _counter_spectra(cols, family.n)[0], _label_success(cols)


@pytest.fixture(scope="module")
def grid_sweep():
    """One pass over the shared grid of criteria 1 and 2.

    For every (n, q), 25 Haar-random algorithms drawn on their label
    columns and run side by side by ``_haar_runs``: worst per-step counter
    leakage plus the exact success probability read off the purified final
    state. A seeded subsample of
    dense ``haar_random_algorithm``s cross-checks the kernel's fixed-label
    average against the dense coherent-oracle purified run of the tests
    reference, so the two success routes stay tied at 1e-9.
    """
    t0 = time.perf_counter()
    max_leakage = 0.0
    max_deficit = -1.0
    max_consistency_gap = 0.0
    max_ceiling_excess = -1.0  # worst success minus the run's own ceiling B
    rows = 0
    for n in GRID_N:
        family, layout = default_family(n), standard_layout(n)
        for q in _budgets(n):
            bound = (q + 1) / n
            seeds = [derive_seed(MASTER_SEED, "haar", n, q, t) for t in range(GRID_TRIALS)]
            rngs = [np.random.default_rng(seed) for seed in seeds]
            runs = _haar_runs(family, [[1] * q] * GRID_TRIALS, rngs)
            for trial, (seed, (cols, spectra)) in enumerate(zip(seeds, runs)):
                leak = max(float(w[j + 1 :].sum()) for j, w in enumerate(spectra))
                observed = success_probability_purified(_purified_state(layout, cols))
                max_leakage = max(max_leakage, leak)
                max_deficit = max(max_deficit, observed - bound)
                excess = observed - per_run_ceiling(spectra[-1], q, n)
                max_ceiling_excess = max(max_ceiling_excess, excess)
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
        "max_ceiling_excess": max_ceiling_excess,
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
    n in {2, 4, 8, 16}, and the algorithm that reaches it, shared by
    criterion 2, tightness by search and the equality case."""
    t0 = time.perf_counter()
    best, algs = {}, {}
    for n in (2, 4, 8, 16):
        for q in _budgets(n):
            seed = derive_seed(MASTER_SEED, "adversarial", n, q, 0)
            best[n, q], algs[n, q] = adversarial_search(n, q, iterations=200, seed=seed)
    return {"best": best, "algs": algs, "seconds": time.perf_counter() - t0}


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


def test_criterion_2_per_run_ceiling(grid_sweep, search_sweep):
    excess = grid_sweep["max_ceiling_excess"]
    for (n, q), alg in search_sweep["algs"].items():
        weights, success = final_spectrum(alg, default_family(n))
        excess = max(excess, success - per_run_ceiling(weights, q, n))
    ok = excess <= PROB_TOL
    report(
        2,
        "per-run ceiling",
        ok,
        f"success <= (sum_{{k<=q}} sqrt w_k)^2/n on all {grid_sweep['rows']} runs of the "
        f"grid and {len(search_sweep['algs'])} searched optima, w the final counter "
        f"spectrum; worst success minus ceiling {excess:.3e}",
    )


def test_criterion_2_per_run_ceiling_is_reached():
    # the square-root measurement: started in sqrt(w) on O, the truncated
    # optimal's walk leaves the final counter spectrum w and reaches its
    # ceiling B(w) exactly, for every spectrum w on {0..q}
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst_spectrum = worst_gap = 0.0
    cases = 0
    for n in (3, 8, 16, 33, 64):
        family = default_family(n)
        for q in sorted({0, 1, n // 3, n - 1}):
            for w in rng.dirichlet(np.ones(q + 1), size=5):
                amps = np.zeros(n, dtype=np.complex128)
                amps[: q + 1] = np.sqrt(w)
                weights, success = final_spectrum(_assemble(q, amps, None), family)
                worst_spectrum = max(worst_spectrum, np.max(np.abs(weights - np.abs(amps) ** 2)))
                worst_gap = max(worst_gap, abs(success - per_run_ceiling(w, q, n)))
                cases += 1
    ok = worst_spectrum <= 1e-12 and worst_gap <= 1e-12
    report(
        2,
        "per-run ceiling reached",
        ok,
        f"{cases} seeded Dirichlet spectra w over n in {{3,8,16,33,64}}, q in "
        f"{{0,1,n//3,n-1}}: the sqrt(w) start ends on spectrum w within "
        f"{worst_spectrum:.1e} and succeeds with (sum sqrt w_k)^2/n within "
        f"{worst_gap:.1e}, took {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_3_equality_case(search_sweep):
    # reaching (q+1)/n forces the flat spectrum w_k = 1/(q+1): exactly for
    # the truncated optimal, and within the search's distance to the
    # ceiling for its optima, as (q+1)/n - B = ((q+1)/n) sum_k (sqrt w_k - mu)^2
    t0 = time.perf_counter()
    exact_flatness = exact_gap = 0.0
    for n in range(2, 33):
        family = default_family(n)
        for q in range(n):
            weights, success = final_spectrum(build_truncated_optimal(n, q), family)
            exact_flatness = max(exact_flatness, np.max(np.abs(weights[: q + 1] - 1 / (q + 1))))
            exact_gap = max(exact_gap, abs(success - per_run_ceiling(weights, q, n)))
    search_flatness, search_excess = 0.0, -1.0
    for (n, q), alg in search_sweep["algs"].items():
        weights, _ = final_spectrum(alg, default_family(n))
        roots = np.sqrt(weights[: q + 1])
        spread = float(np.sum((roots - roots.mean()) ** 2))
        allowed = n * ((q + 1) / n - search_sweep["best"][n, q]) / (q + 1)
        search_excess = max(search_excess, spread - allowed)
        search_flatness = max(search_flatness, np.max(np.abs(weights[: q + 1] - 1 / (q + 1))))
    ok = exact_flatness <= 1e-12 and exact_gap <= 1e-12 and search_excess <= 1e-12
    report(
        3,
        "equality case",
        ok,
        f"truncated optimal over n=2..32, all q: flat to {exact_flatness:.1e}, success "
        f"minus ceiling {exact_gap:.1e}; searched optima: worst spread minus its allowance "
        f"{search_excess:.1e}, flat to {search_flatness:.1e}; took "
        f"{time.perf_counter() - t0:.2f}s",
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
    # the library's estimator, the q = n-1 optimal algorithm, against the
    # dense kron construction of the textbook circuit started in F|0>
    worst = 0.0
    for n in range(2, 17):
        family = default_family(n)
        start, steps = reference.cemm(n, family.eigenstate)
        dense = [UnitaryMatrix(step) for step in steps]
        a = QueryAlgorithm(standard_layout(n), dense, [1] * (n - 1), start)
        b = build_truncated_optimal(n, n - 1)
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
        _, spectra = next(_haar_runs(family, [exponents], [rng]))
        reach = reachable_counter_values(exponents, n)
        worst = max(worst, max(leakage_from_weights(w, s) for w, s in zip(spectra, reach)))
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


def phase_outcomes(alg, thetas):
    """Entry [y', j] is the probability of outcome y' on O, of dimension N =
    alg.n, at the continuous phase thetas[j]."""

    def roots(m):  # the continuous-phase oracle, one column per theta
        return np.exp(2j * np.pi * thetas * m)

    cols = _run(alg, default_family(alg.n).eigenstate, roots, len(thetas))
    return _outcome_weights(cols, alg.n)


def cosine_rewards(alg, thetas):
    """Expected reward cos 2 pi (y'/N - theta) of ``alg``, its outcome y' of
    N = alg.n read as the phase y'/N, at each theta of the continuous-phase
    oracle."""
    errors = np.arange(alg.n)[:, None] / alg.n - thetas
    return np.sum(phase_outcomes(alg, thetas) * np.cos(2 * np.pi * errors), axis=0)


def mean_cosine_reward(alg):
    """``cosine_rewards`` of a forward-query ``alg`` averaged over theta in
    [0, 1): the reward is a trigonometric polynomial of degree q+1 in
    theta, so its mean over q+2 equispaced theta is exact."""
    return float(np.mean(cosine_rewards(alg, np.arange(alg.q + 2) / (alg.q + 2))))


def sine_start(q, big_n):
    """The cosine reward's top eigenvector, a_k ~ sin(pi (k+1)/(q+2)) on
    {0..q}, zero-padded to N outcomes."""
    amps = np.zeros(big_n, dtype=np.complex128)
    amps[: q + 1] = np.sin(np.pi * np.arange(1, q + 2) / (q + 2))
    return amps / np.linalg.norm(amps)


def test_criterion_10_cosine_reward():
    # the cosine reward's Toeplitz matrix is tridiagonal with 1/2 off the
    # diagonal, top eigenvalue cos(pi/(q+2)) on the sine state; for N >= q+2
    # the probe's reward is a degree-(q+1) trigonometric polynomial of
    # period 1/N in theta, so it is that constant at every theta, and q+3
    # equispaced points plus random ones pin it
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst_sine = worst_uniform = 0.0
    cases = 0
    for q in range(32):
        thetas = np.concatenate([rng.random(8), np.arange(q + 3) / (q + 3)])
        for big_n in sorted({q + 2, 2 * q + 3, 64}):
            uniform = np.zeros(big_n, dtype=np.complex128)
            uniform[: q + 1] = 1 / np.sqrt(q + 1)
            got = cosine_rewards(_assemble(q, sine_start(q, big_n), None), thetas)
            worst_sine = max(worst_sine, np.max(np.abs(got - np.cos(np.pi / (q + 2)))))
            got = cosine_rewards(_assemble(q, uniform, None), thetas)
            worst_uniform = max(worst_uniform, np.max(np.abs(got - q / (q + 1))))
            cases += 1
    ok = worst_sine <= 1e-12 and worst_uniform <= 1e-12
    report(
        10,
        "cosine reward",
        ok,
        f"{cases} probes, q in 0..31, N in {{q+2, 2q+3, 64}}, 8 random and q+3 "
        f"equispaced theta each: the sine start's reward is cos(pi/(q+2)) within "
        f"{worst_sine:.1e} at every theta, the uniform start's q/(q+1) within "
        f"{worst_uniform:.1e}, took {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_10_cosine_bound_on_searched_optima(search_sweep):
    # no q-query estimator earns more than lambda_max(R) = cos(pi/(q+2)) of
    # the cosine reward on average over theta; criterion 2's searched
    # optima, read on their n outcomes as y'/n, must not either
    t0 = time.perf_counter()
    margins = [
        np.cos(np.pi / (q + 2)) - mean_cosine_reward(alg)
        for (n, q), alg in search_sweep["algs"].items()
    ]
    worst = min(margins)
    report(
        10,
        "cosine bound on searched optima",
        worst >= -1e-12,
        f"{len(margins)} searched optima, n in {{2,4,8,16}}, all q, read as y'/n: the "
        f"average cosine reward over theta is at most cos(pi/(q+2)), worst margin "
        f"{worst:+.1e}, took {time.perf_counter() - t0:.2f}s",
    )


def test_cosine_bound_catches_an_extra_query():
    # planted defect: the sine probe with q+1 queries earns cos(pi/(q+3)),
    # above the q-query bound, at every (n, q) of criterion 2 with q+2 <= n
    for n in (2, 4, 8, 16):
        for q in _budgets(n):
            if q + 2 <= n:
                probe = _assemble(q + 1, sine_start(q + 1, n), None)
                assert mean_cosine_reward(probe) > np.cos(np.pi / (q + 2)) + 1e-12


def shift_gap(alg, thetas):
    """Worst |P(y' | theta + 1/N) - P(y' - 1 mod N | theta)| of ``alg`` read
    on its N = alg.n outcomes, over the given theta."""
    before = phase_outcomes(alg, thetas)
    after = phase_outcomes(alg, thetas + 1 / alg.n)
    return float(np.max(np.abs(after - np.roll(before, 1, axis=0))))


def shift_probe(q, big_n, rng):
    """``_assemble(q, a, None)`` with a a random unit vector on O's first
    q+1 values, zero-padded to N."""
    amps = np.zeros(big_n, dtype=np.complex128)
    amps[: q + 1] = rng.standard_normal(q + 1) + 1j * rng.standard_normal(q + 1)
    return _assemble(q, amps / np.linalg.norm(amps), None)


def test_criterion_10_shift_covariance():
    # any start on {0..q} read by F† on N >= q+1 outcomes is shift-covariant:
    # theta + 1/N multiplies branch k by w_N^k, which F† turns into y' + 1
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst, cases = 0.0, 0
    for m in (16, 64):
        for q in sorted({0, 3, 15, m // 2 - 1, m - 1}):
            for big_n in sorted({q + 1, m, 4 * m}):
                worst = max(worst, shift_gap(shift_probe(q, big_n, rng), rng.random(8)))
                cases += 1
    report(
        10,
        "shift covariance",
        worst <= 1e-12,
        f"{cases} random probes, m in {{16, 64}}, q in {{0, 3, 15, m/2-1, m-1}}, "
        f"N in {{q+1, m, 4m}}, 8 random theta each: P(y'|theta+1/N) = P(y'-1|theta) "
        f"within {worst:.1e}, took {time.perf_counter() - t0:.2f}s",
    )


def test_shift_covariance_catches_a_misplaced_flip():
    # planted defect: the walk's step 2 flips B at O = 3, not O = 2
    rng = np.random.default_rng(MASTER_SEED)
    alg = shift_probe(5, 16, rng)
    steps = list(alg.steps)
    assert steps[2].factors == (slice(2, 3),)
    steps[2] = replace(steps[2], factors=(slice(3, 4),))
    planted = replace(alg, steps=tuple(steps))
    assert shift_gap(planted, rng.random(8)) > 1e-3


def window_matrix(q, m):
    """The (q+1) x (q+1) Toeplitz matrix M of the window reward
    [|delta| < eps], eps = 1/(2m): M[j, k] = sin(2 pi eps (j-k))/(pi (j-k)),
    2 eps on the diagonal (the discrete prolate matrix)."""
    d = np.subtract.outer(np.arange(q + 1), np.arange(q + 1))
    return np.where(d == 0, 1 / m, np.sin(np.pi * d / m) / (np.pi * np.where(d == 0, 1, d)))


def window_mean(q, start, m, big_n):
    """The probe ``_assemble(q, a, None)``'s window reward averaged over
    theta, for a the start on {0..q} zero-padded to N outcomes, eps =
    1/(2m). By shift covariance outcome y' earns the same integral of
    P(0 | phi) over |phi| < eps, so the mean is N times that integral, taken
    by 96-node Gauss-Legendre on kernel outputs at real phases; P(0 | phi)
    has degree q < m, so the rule is exact to roundoff."""
    amps = np.zeros(big_n, dtype=np.complex128)
    amps[: q + 1] = start
    eps = 1 / (2 * m)
    nodes, weights = np.polynomial.legendre.leggauss(96)
    at_zero = phase_outcomes(_assemble(q, amps, None), eps * nodes)[0]
    return big_n * eps * float(weights @ at_zero)


def window_cases():
    """(m, q, N, M) for m in {16, 64}, q in {0, 3, 15, m/2-1, m-1} and
    N in {q+1, m, 4m}."""
    for m in (16, 64):
        for q in sorted({0, 3, 15, m // 2 - 1, m - 1}):
            for big_n in sorted({q + 1, m, 4 * m}):
                yield m, q, big_n, window_matrix(q, m)


def test_criterion_10_window_reward():
    # the window reward's Toeplitz matrix is the prolate matrix M; the probe
    # started on its top eigenvector earns lambda_max(M) on average, and
    # lambda_max <= tr M = 2 eps (q+1) = (q+1)/m is the paper's bound
    t0 = time.perf_counter()
    worst, cases = 0.0, 0
    for m, q, big_n, window in window_cases():
        values, vectors = np.linalg.eigh(window)
        worst = max(worst, abs(window_mean(q, vectors[:, -1], m, big_n) - values[-1]))
        cases += 1
    tops = {m: [np.linalg.eigvalsh(window_matrix(q, m))[-1] for q in range(m)] for m in (16, 64)}
    excess = max(top - (q + 1) / m for m in tops for q, top in enumerate(tops[m]))
    ratio = min(tops[64][q] * 64 / (q + 1) for q in range(8))
    report(
        10,
        "window reward",
        worst <= 1e-12 and excess <= 1e-12 and ratio >= 0.99,
        f"{cases} probes, m in {{16, 64}}, q in {{0, 3, 15, m/2-1, m-1}}, N in "
        f"{{q+1, m, 4m}}: the prolate start's average window reward is lambda_max "
        f"within {worst:.1e}; lambda_max - (q+1)/m is at most {excess:.1e} for every q < m; "
        f"lambda_max m/(q+1) >= {ratio:.4f} for q <= 7 at m = 64, "
        f"took {time.perf_counter() - t0:.2f}s",
    )


def test_window_reward_catches_the_uniform_start():
    # planted defect: CEMM's uniform start in place of the prolate vector
    # falls short of lambda_max at every q >= 1
    shortfalls = [
        np.linalg.eigvalsh(window)[-1] - window_mean(q, np.full(q + 1, (q + 1) ** -0.5), m, big_n)
        for m, q, big_n, window in window_cases()
        if q >= 1
    ]
    assert min(shortfalls) > 1e-12
