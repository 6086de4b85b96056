import json
import re

import numpy as np
import pytest

import reference
from phaselab import cli, experiments, simulate
from phaselab.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    VerificationError,
    _guard,
    adversarial_search,
    derive_seed,
    run_experiment,
)
from phaselab.algorithms import (
    _epr_computational,
    build_truncated_optimal,
    cemm_on_continuous_phase,
    phase_distance,
)
from phaselab.linalg import RegisterLayout, StateVector, UnitaryMatrix, haar_random_unitary
from phaselab.oracles import FORWARD, PhaseInstance, default_family
from phaselab.simulate import (
    QueryAlgorithm,
    _label_success,
    leakage_from_weights,
    reachable_counter_values,
    standard_layout,
    success_probability_average,
)


def strip_wall_time(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().split("\n")]


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="nope", n_values=(4,))

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="bound-sweep", n_values=(4,), trials=0)
        # None is not the kind's default
        with pytest.raises(ValueError, match="trials must be an integer, got None"):
            ExperimentConfig(kind="bound-sweep", n_values=(4,), trials=None)

    @pytest.mark.parametrize("jobs", [1.5, True, 0])
    def test_jobs_must_be_a_positive_integer(self, jobs):
        cfg = ExperimentConfig(kind="epr-check", n_values=(2,))
        with pytest.raises(ValueError, match=re.escape(f"got {jobs!r}")):
            run_experiment(cfg, jobs=jobs)
        assert len(run_experiment(cfg, jobs=np.int64(2)).rows) == 1

    def test_bound_sweep_q_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="bound-sweep", n_values=(4,), q_values=(9,))
        # fine when some larger n admits the q
        ExperimentConfig(kind="bound-sweep", n_values=(4, 16), q_values=(9,))

    def test_cemm_needs_theta(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="cemm-curve", n_values=(8,))
        with pytest.raises(ValueError):
            ExperimentConfig(kind="cemm-curve", n_values=(8,), theta_grid=(1.5,))

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 1, -(2**63) - 1, -(2**64)])
    def test_seed_outside_64_bits_rejected(self, seed):
        # derive_seed reads the seed mod 2**64: a wider seed would alias another
        with pytest.raises(ValueError, match=re.escape(f"got {seed!r}")):
            ExperimentConfig(kind="bound-sweep", n_values=(4,), seed=seed)

    @pytest.mark.parametrize("seed", [-(2**63), -3, 0, 2**63, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_seed_range_edges_accepted(self, seed):
        cfg = ExperimentConfig(kind="bound-sweep", n_values=(4,), seed=seed)
        assert cfg.seed == seed and type(cfg.seed) is int

    def test_negative_seed_is_the_seed_plus_2_to_the_64(self):
        def rows(seed):
            cfg = ExperimentConfig(
                kind="bound-sweep", n_values=(4,), q_values=(1,), trials=2, seed=seed
            )
            return [(r.seed, r.observed_probability) for r in run_experiment(cfg).rows]

        assert rows(-3) == rows(2**64 - 3) != rows(3)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"kind": "epr-check", "n_values": [4], "bogus": 1})

    @pytest.mark.parametrize(
        "data,missing",
        [({"kind": "bound-sweep"}, "['n_values']"), ({}, "['kind', 'n_values']")],
        ids=["no-n-values", "empty"],
    )
    def test_from_dict_names_missing_fields(self, data, missing):
        with pytest.raises(ValueError, match=re.escape(f"missing config fields: {missing}")):
            ExperimentConfig.from_dict(data)


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(7, "haar", 8, 3, 0)
        assert a == derive_seed(7, "haar", 8, 3, 0)
        assert a != derive_seed(7, "haar", 8, 3, 1)
        assert a != derive_seed(7, "optimal", 8, 3, 0)
        assert a != derive_seed(8, "haar", 8, 3, 0)


class TestGuards:
    def test_bound_guard_trips(self):
        bad = ResultRow(4, 1, "haar", 0, 1, 0.75, 0.5, -0.25, 0.0, 0.0)
        with pytest.raises(VerificationError, match="seed=1"):
            _guard(bad)

    def test_bound_guard_allows_tolerance(self):
        ok = ResultRow(4, 1, "haar", 0, 1, 0.5 + 5e-10, 0.5, -5e-10, 0.0, 0.0)
        assert _guard(ok) is ok

    @pytest.mark.parametrize(
        "gap, leakage", [(np.nan, np.nan), (0.0, np.nan), (np.nan, 0.0)],
        ids=["both-nan", "leakage-nan", "gap-nan"],
    )
    def test_nan_row_trips(self, gap, leakage):
        bad = ResultRow(4, 1, "optimal", 0, 0, 0.5 - gap, 0.5, gap, leakage, 0.0)
        with pytest.raises(VerificationError):
            _guard(bad)

    def test_leakage_guard_trips(self):
        bad = ResultRow(4, 1, "forward", 0, 1, 0.5, 0.5, 0.0, 1e-6, 0.0)
        with pytest.raises(VerificationError, match="leakage"):
            _guard(bad)

    @pytest.mark.parametrize(
        "kind,row", [("bound-sweep", "optimal"), ("random-stress", "adversarial")]
    )
    def test_off_norm_label_run_fails_its_row(self, kind, row, monkeypatch):
        # the spectrum sum check on an algorithm's own label columns
        run = experiments._run_labels
        monkeypatch.setattr(experiments, "_run_labels", lambda *args: run(*args) * (1 + 1e-6))
        cfg = ExperimentConfig(kind=kind, n_values=(4,), q_values=(1,), trials=1, seed=3)
        with pytest.raises(VerificationError, match=f"weights sum to .* kind={row} trial=0"):
            run_experiment(cfg)

    @pytest.mark.parametrize("kind", ["bound-sweep", "random-stress"])
    def test_every_kind_checks_leakage(self, kind, monkeypatch):
        monkeypatch.setattr(experiments, "leakage_from_weights", lambda weights, allowed: 1e-6)
        cfg = ExperimentConfig(kind=kind, n_values=(2,), q_values=(1,), trials=2, seed=3)
        with pytest.raises(VerificationError, match="counter leakage 1e-06 exceeds budget"):
            run_experiment(cfg)


class TestBoundSweep:
    def test_row_shape_and_values(self):
        cfg = ExperimentConfig(
            kind="bound-sweep", n_values=(8,), q_values=tuple(range(8)), trials=5, seed=7
        )
        result = run_experiment(cfg)
        assert len(result.rows) == 8 + 40
        optimal = [r for r in result.rows if r.kind == "optimal"]
        assert len(optimal) == 8
        for r in optimal:
            assert abs(r.observed_probability - r.bound_value) <= 1e-9
            assert r.max_leakage <= 1e-10
        for r in result.rows:
            assert r.gap >= -1e-9
            assert r.bound_value == pytest.approx((r.q + 1) / r.n)
        keys = [(r.n, r.q) for r in result.rows]
        assert keys == sorted(keys)

    def test_determinism_across_runs_and_jobs(self):
        cfg = ExperimentConfig(
            kind="bound-sweep", n_values=(4, 6), q_values=(0, 1, 2), trials=3, seed=11
        )
        a = strip_wall_time(run_experiment(cfg, jobs=1).rendered("csv"))
        b = strip_wall_time(run_experiment(cfg, jobs=1).rendered("csv"))
        c = strip_wall_time(run_experiment(cfg, jobs=4).rendered("csv"))
        assert a == b == c

    def test_q_values_default_to_full_budget_range(self):
        cfg = ExperimentConfig(kind="bound-sweep", n_values=(4,), trials=1, seed=0)
        result = run_experiment(cfg)
        assert sorted({r.q for r in result.rows}) == [0, 1, 2, 3]

    def test_one_kernel_run_per_row(self, monkeypatch):
        calls = []
        evolve = simulate._evolve

        def counted(*args, **kwargs):
            calls.append(args[0].shape[-1])  # the columns this run evolves
            return evolve(*args, **kwargs)

        monkeypatch.setattr(simulate, "_evolve", counted)
        cfg = ExperimentConfig(
            kind="bound-sweep", n_values=(4,), q_values=(0, 2), trials=2, seed=1
        )
        result = run_experiment(cfg)
        assert len(result.rows) == 6
        # per q: the optimal row's 4 label columns, then one batch of both
        # Haar trials' 4 columns each; every row's columns evolve once
        assert calls == [4, 8, 4, 8]

    @pytest.mark.parametrize("trials", [1, 3, 7])
    def test_haar_rows_match_one_run_per_trial(self, trials):
        cfg = ExperimentConfig(
            kind="bound-sweep", n_values=(8,), q_values=(0, 3), trials=trials, seed=7
        )
        rows = [r for r in run_experiment(cfg).rows if r.kind == "haar"]
        assert [(r.q, r.trial) for r in rows] == [(q, t) for q in (0, 3) for t in range(trials)]
        for r in rows:
            assert r.seed == derive_seed(7, "haar", 8, r.q, r.trial)
            assert (r.observed_probability, r.max_leakage) == haar_row_values(r)
        for q in (0, 3):  # each row's time is its equal share of the batch
            assert len({r.wall_time_ms for r in rows if r.q == q}) == 1


class TestCounterScan:
    def test_forward_and_schedule_rows(self):
        cfg = ExperimentConfig(
            kind="counter-scan", n_values=(8,), q_values=(0, 2), trials=3, seed=5
        )
        result = run_experiment(cfg)
        kinds = [r.kind for r in result.rows]
        assert kinds.count("forward") == 6
        assert kinds.count("schedule") == 3  # no schedules at q = 0
        for r in result.rows:
            assert r.max_leakage <= 1e-10
            assert r.observed_probability == r.max_leakage

    @pytest.mark.parametrize("trials", [1, 3, 7])
    def test_rows_match_one_run_per_trial(self, trials):
        cfg = ExperimentConfig(
            kind="counter-scan", n_values=(12,), q_values=(0, 5), trials=trials, seed=5
        )
        rows = run_experiment(cfg).rows
        want = [(0, t, "forward") for t in range(trials)]
        want += [(5, t, kind) for t in range(trials) for kind in ("forward", "schedule")]
        assert [(r.q, r.trial, r.kind) for r in rows] == want
        for r in rows:
            assert r.seed == derive_seed(5, r.kind, 12, r.q, r.trial)
            leak = scan_row_leakage(r)
            assert r.observed_probability == r.max_leakage == leak

    def test_larger_grid_stays_clean(self):
        cfg = ExperimentConfig(
            kind="counter-scan", n_values=(16,), q_values=(5,), trials=10, seed=3
        )
        result = run_experiment(cfg)
        assert all(r.max_leakage <= 1e-10 for r in result.rows)


def test_chunked_batches_keep_every_row(monkeypatch):
    # chunks of 2 trials: a 7-trial batch crosses three chunk boundaries
    n, q = 8, 3
    monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", 2 * (q + 1) * 4 * n * n)
    for kind, check in (("bound-sweep", haar_row_values), ("counter-scan", scan_row_leakage)):
        cfg = ExperimentConfig(kind=kind, n_values=(n,), q_values=(q,), trials=7, seed=3)
        rows = [r for r in run_experiment(cfg).rows if r.kind != "optimal"]
        assert len(rows) == 7 * (1 if kind == "bound-sweep" else 2)
        for r in rows:
            got = (r.observed_probability, r.max_leakage)
            assert got == (check(r) if kind == "bound-sweep" else (check(r),) * 2)


def haar_row_values(row):
    """(observed, leakage) of a ``haar`` row, its trial run on its own."""
    family = default_family(row.n)
    cols, snaps = reference.haar_trial(family, [1] * row.q, np.random.default_rng(row.seed))
    return _label_success(cols), leakage_from_weights(snaps[-1], range(row.q + 1))


def scan_row_leakage(row):
    """Worst per-step leakage of a ``forward`` or ``schedule`` row, its trial
    run on its own."""
    rng = np.random.default_rng(row.seed)
    exponents = [1] * row.q
    if row.kind == "schedule":
        exponents = [int(m) for m in rng.choice(experiments._SCHEDULE_EXPONENTS, size=row.q)]
    _, snaps = reference.haar_trial(default_family(row.n), exponents, rng)
    reach = reachable_counter_values(exponents, row.n)
    return max(leakage_from_weights(w, allowed) for w, allowed in zip(snaps, reach))


class TestAdversarialSearch:
    def test_perfect_distinguishing_found(self):
        best, alg = adversarial_search(2, 1, iterations=60, seed=19)
        assert best == pytest.approx(1.0, abs=1e-6)
        assert alg.q == 1

    def test_approaches_known_optimum(self):
        best, _ = adversarial_search(4, 1, iterations=60, seed=19)
        assert 0.45 <= best <= 0.5 + 1e-9

    def test_never_improves_past_bound_from_optimal_start(self):
        # the search's sweep, started at the saturating algorithm's dense steps;
        # the sweep starts at all-zeros, so the first step also prepares the start
        alg = build_truncated_optimal(4, 1)
        steps = [s @ np.eye(alg.layout.total_dim, dtype=np.complex128) for s in alg.steps]
        steps[0] = steps[0] @ reference.complete_orthonormal_basis(alg.start).T
        for _ in range(10):
            assert 0.5 - 1e-9 <= experiments._sweep(steps, default_family(4)) <= 0.5 + 1e-9

    @pytest.mark.parametrize("n, q, iterations, seed", [(2, 1, 5, 3), (4, 2, 4, 8), (8, 3, 3, 1)])
    def test_best_is_the_returned_algorithms_success(self, n, q, iterations, seed):
        best, alg = adversarial_search(n, q, iterations, seed)
        assert best == pytest.approx(
            success_probability_average(alg, default_family(n)), abs=1e-12
        )

    @pytest.mark.parametrize("q, iterations", [(-1, 5), (1, 0), (1, -2), (True, 1), (1, 1.5)])
    def test_bad_inputs_rejected(self, q, iterations):
        with pytest.raises(ValueError) as info:
            adversarial_search(4, q, iterations, seed=0)
        assert str(info.value).endswith((f"got {q!r}", f"got {iterations!r}"))

    def test_numpy_counts_accepted(self):
        _, alg = adversarial_search(4, np.int64(1), np.int64(1), seed=0)
        assert alg.q == 1

    def test_runner_rows(self):
        cfg = ExperimentConfig(
            kind="random-stress", n_values=(2,), q_values=(0, 1), trials=25, seed=1
        )
        result = run_experiment(cfg)
        assert [r.kind for r in result.rows] == ["adversarial", "adversarial"]
        for r in result.rows:
            assert r.gap >= -1e-9

    @staticmethod
    def _haar_steps(n, q, seed):
        rng = np.random.default_rng(seed)
        return [haar_random_unitary(4 * n, rng).matrix for _ in range(q + 1)]

    def _worst_slot(self, n, q, seed, monkeypatch, error):
        """Three sweeps from Haar steps, with each slot's ``_thin_polar(g, a)``
        also scored by ``error(slot, g, a, u, want_a, want_g)`` against the
        slot's (a, G) from ``reference.search_environment``; the largest score."""
        family = default_family(n)
        steps = self._haar_steps(n, q, seed)
        thin_polar = experiments._thin_polar
        scores = []

        def checked(g, a):
            # ``steps`` holds the updated slots before this one and the old ones after
            slot = len(scores)
            want_a, want_g = reference.search_environment(steps, family, slot)
            u = thin_polar(g, a)
            scores.append(error(slot, g, a, u, want_a, want_g))
            return u

        monkeypatch.setattr(experiments, "_thin_polar", checked)
        worst = 0.0
        for _ in range(3):
            scores.clear()
            experiments._sweep(steps, family)
            assert len(scores) == q + 1
            worst = max(worst, *scores)
        return worst

    @pytest.mark.parametrize("n, q, seed", [(2, 0, 4), (2, 1, 5), (4, 0, 6), (4, 3, 7), (8, 4, 8)])
    def test_cached_environments_match_the_reference(self, n, q, seed, monkeypatch):
        def gap(slot, g, a, u, want_a, want_g):
            # the reference's factors on the slot's first k counter coefficients:
            # a L†/n and G L†, with L[j, y] = e^(2 pi i yj/n)
            k = min(slot + 1, n)
            want_a = np.fft.fft(want_a, axis=1)[:, :k] / n
            want_g = np.fft.fft(want_g, axis=1)[:, :k]
            return max(np.max(np.abs(a - want_a)), np.max(np.abs(g - want_g)))

        assert self._worst_slot(n, q, seed, monkeypatch, gap) <= 1e-12

    @pytest.mark.parametrize(
        "n, q, seed",
        [(4, 1, 11), (4, 3, 12), (4, 5, 13), (8, 2, 14), (8, 7, 15), (16, 4, 16), (16, 15, 17)],
    )
    def test_reduced_core_reaches_the_full_width_update(self, n, q, seed, monkeypatch):
        # each update on the slot's counter coefficients attains the nuclear
        # norm of the reference E = G a†, as the full-width update does
        thin_polar = experiments._thin_polar

        def shortfall(slot, g, a, u, want_a, want_g):
            e = want_g @ want_a.conj().T
            nuclear = np.linalg.svd(e, compute_uv=False).sum()
            full = np.trace(thin_polar(want_g, want_a).conj().T @ e).real
            reduced = np.trace(u.conj().T @ e).real
            return max(abs(reduced - nuclear), abs(full - nuclear)) / nuclear

        assert self._worst_slot(n, q, seed, monkeypatch, shortfall) <= 1e-10

    @staticmethod
    def _first_forward_query_twice(n):
        """``experiments._query`` with a planted defect: the first call on the
        n label columns, the sweep's query after slot 0, runs twice. The
        columns before slot 1 then carry counter weight at index 2."""
        query = experiments._query
        calls = []

        def doubled(cols, layout, eigenstate, factor):
            cols = query(cols, layout, eigenstate, factor)
            if cols.shape[-1] == n and not calls:
                calls.append(factor)
                cols = query(cols, layout, eigenstate, factor)
            return cols

        return doubled

    def test_leaking_slot_is_refused(self, monkeypatch):
        monkeypatch.setattr(experiments, "_query", self._first_forward_query_twice(8))
        with pytest.raises(ValueError, match=r"beyond index 1 .* \(n=8 q=3 slot=1\)"):
            experiments._sweep(self._haar_steps(8, 3, 9), default_family(8))

    def test_stress_names_the_row_of_a_leaking_slot(self, monkeypatch, capsys):
        # the sweep's ValueError reaches the command line as a VerificationError
        monkeypatch.setattr(experiments, "_query", self._first_forward_query_twice(8))
        assert cli.main(["stress", "--n", "8", "--q", "3", "--trials", "2", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "VERIFICATION FAILURE" in err
        seed = derive_seed(1, "adversarial", 8, 3, 0)
        assert f"(n=8 q=3 slot=1) (n=8 q=3 kind=adversarial trial=0 seed={seed})" in err

    def test_stress_refuses_a_success_its_algorithm_does_not_reach(self, monkeypatch, capsys):
        # planted defect: the search reports 1e-6 more than its algorithm measures
        search = experiments.adversarial_search

        def inflated(*args):
            best, alg = search(*args)
            return best + 1e-6, alg

        monkeypatch.setattr(experiments, "adversarial_search", inflated)
        assert cli.main(["stress", "--n", "4", "--q", "1", "--trials", "3", "--seed", "2"]) == 1
        err = capsys.readouterr().err
        assert "VERIFICATION FAILURE: search reports success" in err
        seed = derive_seed(2, "adversarial", 4, 1, 0)
        assert f"(n=4 q=1 kind=adversarial trial=0 seed={seed})" in err

    @pytest.mark.parametrize("n, q, seed", [(2, 1, 1), (4, 2, 2), (8, 3, 3), (16, 6, 4)])
    def test_sweeps_never_lose_success(self, n, q, seed):
        family = default_family(n)
        steps = self._haar_steps(n, q, seed)
        alg = QueryAlgorithm(standard_layout(n), tuple(map(UnitaryMatrix, steps)), (FORWARD,) * q)
        prev = success_probability_average(alg, family)
        for _ in range(25):
            p = experiments._sweep(steps, family)
            assert p >= prev - 1e-12
            prev = p

    @pytest.mark.parametrize(
        "n, q, anc", [(4, 1, 2), (4, 1, 4), (4, 2, 2), (4, 2, 4), (8, 2, 2), (8, 2, 8)]
    )
    def test_sweeps_run_on_workspace_layouts(self, n, q, anc):
        # Haar steps over (O, B, W, anc): the sweep reads dim off the steps, and
        # each sweep's success is that of its steps run as an algorithm
        family, layout = default_family(n), RegisterLayout((n, 2, 2, anc))
        rng = np.random.default_rng(100 * n + 10 * q + anc)
        steps = [haar_random_unitary(layout.total_dim, rng).matrix for _ in range(q + 1)]

        def success():
            alg = QueryAlgorithm(layout, tuple(map(UnitaryMatrix, steps)), (FORWARD,) * q)
            return success_probability_average(alg, family)

        prev = success()
        for _ in range(3):
            p = experiments._sweep(steps, family)
            assert prev - 1e-12 <= p <= (q + 1) / n + 1e-12
            assert abs(p - success()) <= 1e-12
            prev = p

    def test_restarts_after_a_sweep_that_gains_nothing(self, monkeypatch):
        # at q = 0 every sweep scores 1/n, so each start's second sweep gains
        # nothing and the next sweep restarts: 6 sweeps take 3 Haar draws
        draws = []

        def counted(*args):
            draws.append(args)
            return haar_random_unitary(*args)

        monkeypatch.setattr(experiments, "haar_random_unitary", counted)
        best, _ = adversarial_search(4, 0, 6, seed=5)
        assert len(draws) == 3
        assert abs(best - 1 / 4) <= 1e-15


class TestThinPolar:
    @staticmethod
    def _factors(n, rank, seed):
        """dim x n factors G, A with dim = 4n; G has the given rank."""
        rng = np.random.default_rng(seed)

        def gauss(rows, cols):
            z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            return z / np.sqrt(2 * rows)

        return gauss(4 * n, rank) @ gauss(rank, n) * np.sqrt(rank), gauss(4 * n, n)

    @staticmethod
    def _slot_zero(n, seed):
        """G from a Haar column block, and A with every column e_0 (rank 1)."""
        g = haar_random_unitary(4 * n, seed).matrix[:, :n]
        a = np.zeros((4 * n, n), dtype=np.complex128)
        a[0] = 1.0
        return g, a

    def _cases(self):
        for n, rank, seed in [(2, 1, 0), (4, 1, 1), (4, 3, 2), (8, 5, 3), (16, 1, 4), (16, 15, 5)]:
            yield self._factors(n, rank, seed)
        for n, seed in [(2, 6), (8, 7), (16, 8)]:
            yield self._slot_zero(n, seed)

    def test_unitary_and_attains_the_nuclear_norm(self):
        for g, a in self._cases():
            u = experiments._thin_polar(g, a)
            e = g @ a.conj().T
            assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-12
            nuclear = np.linalg.svd(e, compute_uv=False).sum()
            assert abs(np.trace(u.conj().T @ e).real - nuclear) <= 1e-12

    def test_same_inputs_same_unitary(self):
        for g, a in self._cases():
            first = experiments._thin_polar(g, a)
            assert np.array_equal(first, experiments._thin_polar(g.copy(), a.copy()))


class TestCemmCurve:
    def test_grid_and_worst_rows(self):
        cfg = ExperimentConfig(
            kind="cemm-curve", n_values=(8,), theta_grid=(1 / 8, 0.5 / 8), seed=0
        )
        result = run_experiment(cfg)
        curve = [r for r in result.rows if r.kind == "cemm"]
        worst = [r for r in result.rows if r.kind == "cemm-worst"]
        assert len(curve) == 2 and len(worst) == 1
        assert curve[0].observed_probability == pytest.approx(1.0, abs=1e-9)
        assert worst[0].observed_probability == pytest.approx(
            min(r.observed_probability for r in curve)
        )

    def test_midpoint_includes_both_nearest_bins(self):
        cfg = ExperimentConfig(kind="cemm-curve", n_values=(8,), theta_grid=(0.5 / 8,), seed=0)
        result = run_experiment(cfg)
        # both neighbours sit exactly at distance 1/(2n)
        assert result.rows[0].observed_probability == pytest.approx(
            2 * 0.410533474517003, abs=1e-9
        )


    def test_window_equals_the_per_label_sum(self):
        # the label-by-label read the array expression replaced, bit for bit:
        # at most two labels fall in the window, so the sum order cannot matter
        thetas = (0.0, 0.001, 0.03125, 0.1, 0.3, 0.5, 0.77, 0.999)
        for n in (2, 3, 5, 8, 16, 64, 96):
            grid = thetas + (0.5 / n, 1.5 / n, 1 / n)
            cfg = ExperimentConfig(kind="cemm-curve", n_values=(n,), theta_grid=grid)
            rows = run_experiment(cfg).rows
            for theta, row in zip(grid, rows):
                dist = cemm_on_continuous_phase(PhaseInstance(theta, [1.0, 0.0]), n)
                near = [
                    p for y, p in enumerate(dist)
                    if phase_distance(y / n, theta) <= 1 / (2 * n) + 1e-12
                ]
                assert row.observed_probability == float(sum(near)), (n, theta)


class TestEprAndReduction:
    def test_epr_rows(self):
        cfg = ExperimentConfig(kind="epr-check", n_values=(1, 2, 12), seed=0)
        result = run_experiment(cfg)
        assert len(result.rows) == 3
        for r in result.rows:
            assert r.observed_probability == pytest.approx(1.0, abs=1e-9)
            assert r.max_leakage <= 1e-10

    def test_epr_row_equals_the_purified_readout(self):
        # the row reads P(equal outcomes) off the amplitudes; it must match
        # the purified simulator's readout on the same state bit for bit
        cfg = ExperimentConfig(kind="epr-check", n_values=tuple(range(1, 41)))
        for n, row in zip(cfg.n_values, run_experiment(cfg).rows):
            pair = StateVector(RegisterLayout((n, n)), _epr_computational(n))
            assert row.observed_probability == simulate.success_probability_purified(pair)

    def test_reduction_q0_worst_case_success(self):
        # With q = 0 the estimate is uniform over the n grid points. For an
        # odd divisor d > 1 of n, Theta_n holds the mid-grid phase
        # d/(2n) = 1/(2n/d); the strict premise counts neither neighbour
        # there, so p_n is 0. Otherwise the worst phase has one grid point
        # inside the premise.
        cfg = ExperimentConfig(kind="reduction-check", n_values=tuple(range(2, 17)), q_values=(0,))
        rows = run_experiment(cfg).rows
        assert [r.n for r in rows] == list(range(2, 17))
        for r in rows:
            expected = 1 / r.n if r.n & (r.n - 1) == 0 else 0.0
            assert r.observed_probability == pytest.approx(expected, abs=1e-12)
            assert r.bound_value == pytest.approx(1 / r.n, abs=1e-15)

    def test_reduction_rows_one_per_grid_point(self):
        cfg = ExperimentConfig(kind="reduction-check", n_values=(4, 8), seed=5)
        rows = run_experiment(cfg).rows
        assert [(r.n, r.q) for r in rows] == [(4, q) for q in range(4)] + [(8, q) for q in range(8)]
        assert {(r.kind, r.trial, r.seed, r.max_leakage) for r in rows} == {("reduction", 0, 5, 0.0)}

    def test_nan_weights_break_the_reduction_chain(self, monkeypatch):
        # planted defect: every outcome weight comes out NaN
        weights = experiments._outcome_weights
        monkeypatch.setattr(
            experiments, "_outcome_weights", lambda cols, n: weights(cols, n) * np.nan
        )
        with pytest.raises(VerificationError, match="rounding reduction broken: n=4 q=1 m=1"):
            experiments._reduction_chain(build_truncated_optimal(4, 1))

    def test_half_weights_fail_the_norm_check(self, monkeypatch):
        # planted defect: every outcome weight comes out halved, which halves
        # p_m and r_m alike and so keeps every link of the chain
        weights = experiments._outcome_weights
        monkeypatch.setattr(
            experiments, "_outcome_weights", lambda cols, n: weights(cols, n) / 2
        )
        # the first phase of Theta_8 in lowest terms is 0/1
        with pytest.raises(
            VerificationError,
            match=r"phase 0/1 weights sum to 0\.(5|4999).*\(n=8 q=2 kind=reduction",
        ):
            run_experiment(ExperimentConfig(kind="reduction-check", n_values=(8,), q_values=(2,)))

    def test_floor_rounding_breaks_the_reduction_chain(self, monkeypatch):
        # planted defect: rounding down loses the estimates just below y/m
        monkeypatch.setattr(
            experiments, "round_to_grid", lambda estimate, n: np.floor(estimate % 1.0 * n).astype(int) % n
        )
        with pytest.raises(VerificationError, match="rounding reduction broken: n=8"):
            run_experiment(ExperimentConfig(kind="reduction-check", n_values=(8,)))


class TestSerialization:
    @pytest.fixture()
    def result(self):
        cfg = ExperimentConfig(
            kind="bound-sweep", n_values=(3,), q_values=(0, 1), trials=2, seed=13
        )
        return run_experiment(cfg)

    def test_csv_header_and_termination(self, result):
        text = result.rendered("csv")
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert text.endswith("\n")
        assert len(lines) == 1 + len(result.rows) + 1  # header + rows + trailing ""

    def test_csv_significant_digits(self, result):
        # bound 1/3 must be rendered with 12 significant digits
        row = next(line for line in result.rendered("csv").split("\n") if ",optimal," in line)
        assert "0.333333333333" in row

    def test_json_shape(self, result):
        payload = json.loads(result.rendered("json"))
        assert set(payload) == {"metadata", "rows"}
        assert payload["metadata"]["tool"] == "phaselab"
        assert payload["metadata"]["config"]["kind"] == "bound-sweep"
        first = payload["rows"][0]
        assert list(first) == [
            "n", "q", "kind", "trial", "seed", "observed_probability",
            "bound_value", "gap", "max_leakage", "wall_time_ms",
        ]

    def test_json_metadata_names_the_numeric_environment(self, result, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "changed after the first read")
        env = json.loads(result.rendered("json"))["metadata"]["environment"]
        assert list(env) == [
            "python", "numpy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS", "platform",
        ]
        assert list(env["blas"]) == ["name", "version"]
        assert env["numpy"] == np.__version__
        # read once per process: later calls reuse it, and each result
        # gets its own copy
        result.metadata["environment"]["blas"]["name"] = "edited"
        again = experiments._metadata(ExperimentConfig(kind="epr-check", n_values=(2,)))
        assert again["environment"] == env
        assert experiments._environment.cache_info().misses == 1
        assert result.rendered("csv").split("\n")[0] == CSV_HEADER  # CSV carries no metadata

    def test_unknown_format_rejected(self, result):
        with pytest.raises(ValueError, match="unknown output format 'xml'"):
            result.rendered("xml")

    def test_dispatch(self):
        cfg = ExperimentConfig(kind="epr-check", n_values=(2,), seed=0)
        assert run_experiment(cfg).rows[0].kind == "epr"
