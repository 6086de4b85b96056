import numpy as np
import pytest

from phaselab.fourier import fourier_weights, qft_matrix
from phaselab.linalg import RegisterLayout, StateVector, UnitaryMatrix, haar_random_unitary
from phaselab.oracles import FORWARD, PhaseInstance, default_family
from phaselab.simulate import (
    QueryAlgorithm,
    RunTranscript,
    Step,
    _evolve,
    _checked_isometries,
    _haar_run,
    _IsometryStep,
    _label_success,
    _label_turns,
    _run_labels,
    _start,
    counter_leakage,
    haar_random_algorithm,
    leakage_from_weights,
    reachable_counter_values,
    run_fixed_phase,
    run_purified,
    run_purified_transcript,
    standard_layout,
    success_probability_average,
    success_probability_purified,
)
from reference import apply_to_registers, zero_state


def embed_on_control(n, mat2, work_dim=2):
    """kron(I_O, mat2_B, I_W) as a full-layout step."""
    return UnitaryMatrix(np.kron(np.eye(n), np.kron(mat2, np.eye(work_dim))))


def identity_step(n, work_dim=2):
    return UnitaryMatrix(np.eye(n * 2 * work_dim))


X2 = np.array([[0, 1], [1, 0]], dtype=complex)


def one_query_probe(n, exponents=(FORWARD,)):
    """A_0 raises the control wire, then one query, then nothing."""
    layout = standard_layout(n)
    steps = (embed_on_control(n, X2), identity_step(n))
    return QueryAlgorithm(n=n, layout=layout, steps=steps, exponents=exponents)


def run_fixed_y(alg, family, y):
    """The fixed-label run of member y: the kernel on one label column."""
    return StateVector(alg.layout, _run_labels(alg, family, [y])[:, 0])


class TestAlgorithmValidation:
    def test_step_count_must_match_exponents(self):
        layout = standard_layout(3)
        with pytest.raises(ValueError):
            QueryAlgorithm(3, layout, (identity_step(3),), (FORWARD,))

    def test_output_register_dimension(self):
        layout = RegisterLayout((("O", 5), ("B", 2), ("W", 2)))
        with pytest.raises(ValueError):
            QueryAlgorithm(3, layout, (UnitaryMatrix(np.eye(20)),), ())

    def test_counter_label_reserved(self):
        layout = RegisterLayout((("O", 3), ("B", 2), ("W", 2), ("C", 2)))
        with pytest.raises(ValueError):
            QueryAlgorithm(3, layout, (UnitaryMatrix(np.eye(24)),), ())

    def test_step_dimension_checked(self):
        layout = standard_layout(3)
        with pytest.raises(ValueError):
            QueryAlgorithm(3, layout, (UnitaryMatrix(np.eye(6)),), ())

    @pytest.mark.parametrize("exponent", [1.0, 2.5, True, "1", None])
    def test_exponent_must_be_an_integer(self, exponent):
        steps = (identity_step(3), identity_step(3))
        with pytest.raises(ValueError, match="exponents must be integers"):
            QueryAlgorithm(3, standard_layout(3), steps, (exponent,))

    def test_numpy_exponents_stored_as_int(self):
        steps = (identity_step(3),) * 3
        alg = QueryAlgorithm(3, standard_layout(3), steps, np.array([2, -1]))
        assert alg.exponents == (2, -1)
        assert all(type(m) is int for m in alg.exponents)

    def test_extra_ancilla_register_allowed(self):
        layout = RegisterLayout((("O", 3), ("B", 2), ("W", 2), ("anc", 3)))
        alg = QueryAlgorithm(3, layout, (UnitaryMatrix(np.eye(36)),), ())
        assert alg.q == 0


class TestStep:
    LAYOUT = standard_layout(3)  # (O 3, B 2, W 2)

    def test_dense_matrix_wrapped_without_copy(self):
        u = haar_random_unitary(12, seed=1)
        alg = QueryAlgorithm(3, self.LAYOUT, (u,), ())
        (factor,) = alg.steps[0].factors
        assert factor[0] is u
        assert factor[1] == self.LAYOUT.labels
        cols = np.eye(12, dtype=complex)[:, :5]
        np.testing.assert_array_equal(alg.steps[0] @ cols, u.matrix @ cols)

    def test_local_factor_is_identity_elsewhere(self):
        step = Step(self.LAYOUT, ((UnitaryMatrix(X2), ("B",)),))
        np.testing.assert_array_equal(step @ np.eye(12), embed_on_control(3, X2).matrix)

    def test_factor_order_and_permutation_convention(self):
        rng = np.random.default_rng(2)
        perm = rng.permutation(12)
        u = haar_random_unitary(6, rng)  # on (W, O): W most significant
        cols = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        step = Step(self.LAYOUT, (perm, (u, ("W", "O"))))
        moved = cols[perm].reshape(3, 2, 2, 3).transpose(2, 0, 1, 3).reshape(6, 2 * 3)
        expected = (u.matrix @ moved).reshape(2, 3, 2, 3).transpose(1, 2, 0, 3).reshape(12, 3)
        np.testing.assert_allclose(step @ cols, expected, rtol=0, atol=1e-12)

    def test_non_bijective_permutation_rejected(self):
        perm = np.arange(12)
        perm[3] = 4
        with pytest.raises(ValueError, match="bijection"):
            Step(self.LAYOUT, (perm,))

    def test_permutation_length_checked(self):
        with pytest.raises(ValueError):
            Step(self.LAYOUT, (np.arange(6),))

    def test_permutation_must_be_integer(self):
        with pytest.raises(TypeError):
            Step(self.LAYOUT, (np.arange(12.0),))

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            Step(self.LAYOUT, ((UnitaryMatrix(X2), ("C",)),))

    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Step(self.LAYOUT, ((UnitaryMatrix(np.eye(4)), ("B", "B")),))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="span dimension"):
            Step(self.LAYOUT, ((UnitaryMatrix(np.eye(2)), ("O",)),))

    def test_matrix_factor_must_be_validated(self):
        with pytest.raises(TypeError):
            Step(self.LAYOUT, ((X2, ("B",)),))

    def test_empty_step_rejected(self):
        with pytest.raises(ValueError):
            Step(self.LAYOUT, ())

    def test_step_layout_must_match_algorithm(self):
        step = Step(standard_layout(3, work_dim=3), (np.arange(18),))
        layout = RegisterLayout((("O", 3), ("B", 2), ("W", 3)))
        QueryAlgorithm(3, layout, (step,), ())  # equal layouts are accepted
        with pytest.raises(ValueError):
            QueryAlgorithm(3, RegisterLayout((("O", 3), ("W", 3), ("B", 2))), (step,), ())


class TestRunFixedY:
    def test_zero_query_identity_step(self):
        alg = QueryAlgorithm(4, standard_layout(4), (identity_step(4),), ())
        out = run_fixed_y(alg, default_family(4), 2)
        np.testing.assert_allclose(out.amps, zero_state(alg.layout).amps)

    @pytest.mark.parametrize("y", [0, 1, 2, 3, 4])
    def test_active_branch_picks_up_phase(self, y):
        n = 5
        alg = one_query_probe(n)
        out = run_fixed_y(alg, default_family(n), y)
        # state is |0>_O |1>_B |u>_W up to the eigenphase w^y
        idx = 0 * (2 * 2) + 1 * 2 + 0
        assert out.amps[idx] == pytest.approx(np.exp(2j * np.pi * y / n), abs=1e-12)
        assert abs(out.norm - 1) < 1e-9

    def test_family_size_mismatch(self):
        alg = one_query_probe(4)
        with pytest.raises(ValueError):
            run_fixed_y(alg, default_family(5), 0)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            alg = haar_random_algorithm(6, 3, rng)
            out = run_fixed_y(alg, default_family(6), int(rng.integers(6)))
            assert abs(out.norm - 1.0) < 1e-9


class TestRunFixedPhase:
    def test_inverse_query_undoes_forward(self):
        # raise the control, query V then V^-1: the state returns to |0,1,0>
        n = 4
        steps = (embed_on_control(n, X2), identity_step(n), identity_step(n))
        alg = QueryAlgorithm(n, standard_layout(n), steps, (1, -1))
        out = run_fixed_phase(alg, PhaseInstance(theta=0.3, eigenstate=np.array([1, 0])))
        expected = np.zeros(alg.layout.total_dim)
        expected[2] = 1.0
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_grid_phase_matches_fixed_label(self):
        n = 6
        alg = haar_random_algorithm(n, 3, seed=21, exponents=(1, -1, 8))
        fam = default_family(n)
        inst = PhaseInstance(theta=5 / n, eigenstate=fam.eigenstate)
        np.testing.assert_allclose(
            run_fixed_phase(alg, inst).amps, run_fixed_y(alg, fam, 5).amps, atol=1e-12
        )


class TestRunPurified:
    def test_zero_query_product_state(self):
        n = 6
        alg = QueryAlgorithm(n, standard_layout(n), (identity_step(n),), ())
        out = run_purified(alg, default_family(n))
        expected = np.kron(zero_state(alg.layout).amps, qft_matrix(n).matrix[:, 0])
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_counter_slice_reproduces_fixed_runs(self):
        # the coherent oracle is block diagonal over computational counter
        # values, so slice y of the purified state is the fixed-y run / sqrt(n)
        n = 5
        rng = np.random.default_rng(3)
        alg = haar_random_algorithm(n, 2, rng)
        fam = default_family(n)
        pur = run_purified(alg, fam).amps.reshape(-1, n)
        for y in range(n):
            fixed = run_fixed_y(alg, fam, y).amps
            np.testing.assert_allclose(pur[:, y] * np.sqrt(n), fixed, atol=1e-12)

    def test_single_query_moves_counter_to_one(self):
        n = 7
        alg = one_query_probe(n)
        out = run_purified(alg, default_family(n))
        w = fourier_weights(out, "C")
        assert w[1] == pytest.approx(1.0, abs=1e-10)

    def test_steps_commute_with_counter_weights(self):
        n = 6
        rng = np.random.default_rng(8)
        alg = haar_random_algorithm(n, 2, rng)
        state = run_purified(alg, default_family(n))
        before = fourier_weights(state, "C")
        extra = haar_random_unitary(alg.layout.total_dim, rng)
        after = fourier_weights(
            apply_to_registers(state, extra, list(alg.layout.labels)), "C"
        )
        assert np.max(np.abs(after - before)) < 1e-10


class TestCounterLeakage:
    def test_initial_state_budget_zero(self):
        n = 5
        alg = QueryAlgorithm(n, standard_layout(n), (identity_step(n),), ())
        out = run_purified(alg, default_family(n))
        assert counter_leakage(out, 0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n,q", [(4, 1), (8, 3), (6, 5)])
    def test_forward_runs_respect_budget(self, n, q):
        rng = np.random.default_rng(n * 100 + q)
        for _ in range(5):
            alg = haar_random_algorithm(n, q, rng)
            out = run_purified(alg, default_family(n))
            assert counter_leakage(out, q) <= 1e-10

    def test_power_query_lands_at_exponent(self):
        n = 8
        alg = one_query_probe(n, exponents=(3,))
        out = run_purified(alg, default_family(n))
        assert counter_leakage(out, 1) > 0.5  # all weight sits at index 3
        assert counter_leakage(out, 3) <= 1e-10

    def test_inverse_schedule_reachable_set(self):
        n = 6
        rng = np.random.default_rng(4)
        alg = haar_random_algorithm(n, 1, rng, exponents=(-1,))
        out = run_purified(alg, default_family(n))
        assert leakage_from_weights(fourier_weights(out, "C"), {0, n - 1}) <= 1e-10

    def test_branch_conditional_add_reaches_subset_sums(self):
        # schedule [power(2), forward] with the control raised only for the
        # second query: all weight ends at counter index 1, which only the
        # subset-sum reachable set {0,1,2,3} contains
        n = 8
        layout = standard_layout(n)
        steps = (identity_step(n), embed_on_control(n, X2), identity_step(n))
        alg = QueryAlgorithm(n, layout, steps, (2, 1))
        out = run_purified(alg, default_family(n))
        w = fourier_weights(out, "C")
        assert w[1] == pytest.approx(1.0, abs=1e-10)
        assert leakage_from_weights(w, {0, 1, 2, 3}) <= 1e-10

    def test_random_schedules_stay_in_reachable_sets(self):
        n = 9
        rng = np.random.default_rng(55)
        for _ in range(8):
            q = int(rng.integers(1, 5))
            exps = [int(m) for m in rng.choice([1, -1, 2, 3, 5], size=q)]
            alg = haar_random_algorithm(n, q, rng, exponents=exps)
            tr = run_purified_transcript(alg, default_family(n))
            reach = reachable_counter_values(exps, n)
            for w, allowed in zip(tr.counter_weights, reach):
                outside = sum(v for k, v in enumerate(w) if k not in allowed)
                assert outside <= 1e-10

    def test_reachable_counter_values(self):
        assert reachable_counter_values([2, 1], 16) == [{0}, {0, 2}, {0, 1, 2, 3}]
        assert reachable_counter_values([-1], 6) == [{0}, {0, 5}]
        assert reachable_counter_values([3, 3], 4) == [{0}, {0, 3}, {0, 2, 3}]


class TestTranscript:
    def test_snapshot_count_and_normalization(self):
        n = 5
        alg = haar_random_algorithm(n, 3, seed=1)
        tr = run_purified_transcript(alg, default_family(n))
        assert len(tr.counter_weights) == 4
        for w in tr.counter_weights:
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert tr.q == 3 and tr.n == 5

    def test_nan_snapshot_rejected(self):
        state = run_purified(haar_random_algorithm(2, 0, seed=1), default_family(2))
        with pytest.raises(ValueError, match="snapshot 0 weights sum to nan"):
            RunTranscript(n=2, q=0, counter_weights=(np.array([np.nan, 0.0]),), final_state=state)

    def test_final_state_matches_plain_run(self):
        n = 4
        alg = haar_random_algorithm(n, 2, seed=9)
        fam = default_family(n)
        tr = run_purified_transcript(alg, fam)
        np.testing.assert_allclose(tr.final_state.amps, run_purified(alg, fam).amps)


class TestSuccessProbabilities:
    def test_perfectly_correlated_state(self):
        n = 6
        layout = RegisterLayout((("O", n), ("C", n)))
        amps = np.zeros(n * n, dtype=complex)
        amps[:: n + 1] = 1 / np.sqrt(n)
        assert success_probability_purified(StateVector(layout, amps)) == pytest.approx(1.0)

    def test_product_state_gives_uniform_chance(self):
        # |0>_O x |f0>_C: P(equal) = sum_y |<y,y|psi>|^2 = |1/sqrt(n)|^2 at y=0
        n = 7
        layout = RegisterLayout((("O", n), ("C", n)))
        amps = np.kron(np.eye(1, n, 0).ravel(), qft_matrix(n).matrix[:, 0])
        assert success_probability_purified(StateVector(layout, amps)) == pytest.approx(1 / n)

    def test_register_dimension_mismatch(self):
        layout = RegisterLayout((("O", 3), ("C", 4)))
        amps = np.zeros(12, dtype=complex)
        amps[0] = 1
        with pytest.raises(ValueError):
            success_probability_purified(StateVector(layout, amps))

    def test_blind_guess(self):
        n = 5
        alg = QueryAlgorithm(n, standard_layout(n), (identity_step(n),), ())
        assert success_probability_average(alg, default_family(n)) == pytest.approx(1 / n)

    @pytest.mark.parametrize("n,q", [(4, 0), (4, 2), (6, 1), (8, 3)])
    def test_purification_consistency(self, n, q):
        rng = np.random.default_rng(n * 10 + q)
        fam = default_family(n)
        for _ in range(4):
            alg = haar_random_algorithm(n, q, rng)
            avg = success_probability_average(alg, fam)
            pur = success_probability_purified(run_purified(alg, fam))
            assert avg == pytest.approx(pur, abs=1e-9)

    @pytest.mark.parametrize("n,q", [(4, 0), (4, 1), (4, 3), (8, 2), (5, 4)])
    def test_random_algorithms_respect_bound(self, n, q):
        rng = np.random.default_rng(1000 + 10 * n + q)
        fam = default_family(n)
        for _ in range(8):
            alg = haar_random_algorithm(n, q, rng)
            assert success_probability_average(alg, fam) <= (q + 1) / n + 1e-9


def _no_phase_fix(rng, count, dim, m):
    """The isometry draw with the QR phase fix left out: LAPACK leaves the
    R diagonal real but of either sign, so V's phases are biased."""
    g = rng.standard_normal((count, 2, dim, m))
    return np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))[0]


class _OneDraw:
    """The column sampler step drawn one step at a time: the real, then the
    imaginary part of one dim x m Gaussian per call."""

    def __init__(self, rng):
        self.rng = rng

    def __matmul__(self, cols):
        dim, m = cols.shape
        z = self.rng.standard_normal((dim, m)) + 1j * self.rng.standard_normal((dim, m))
        v, r = np.linalg.qr(z / np.sqrt(2))
        d = np.diagonal(r)
        return (v * (d / np.abs(d))) @ np.linalg.qr(cols, mode="r")


class _NanGenerator:
    def standard_normal(self, shape):
        return np.full(shape, np.nan)


def _within(samples, expected):
    """Whether the sample mean of every entry, real and imaginary part, lies
    within 4 standard errors of ``expected``."""
    err = samples.mean(axis=0) - expected
    root_n = np.sqrt(len(samples))
    return bool(
        np.all(np.abs(err.real) <= 4 * samples.real.std(axis=0) / root_n)
        and np.all(np.abs(err.imag) <= 4 * samples.imag.std(axis=0) / root_n)
    )


class TestHaarColumns:
    """``_IsometryStep(V) @ X`` for a drawn V must have the law of U @ X
    for Haar U."""

    DIM, M, DRAWS = 4, 2, 20_000

    @staticmethod
    def start(dim, m):
        cols = np.zeros((dim, m), dtype=complex)
        cols[0] = 1.0
        return cols

    def columns(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((self.DIM, self.M)) + 1j * rng.standard_normal((self.DIM, self.M))
        return x / np.linalg.norm(x, axis=0)

    def draws(self, draw, x, seed):
        """DRAWS samples of ``_IsometryStep(V) @ x``, the V drawn in one
        ``draw(rng, count, dim, m)`` call."""
        v = draw(np.random.default_rng(seed), self.DRAWS, *x.shape)
        return v @ np.linalg.qr(x, mode="r")

    @pytest.mark.parametrize("dim,m", [(8, 3), (16, 4), (32, 8)])
    def test_each_draw_preserves_the_gram_matrix(self, dim, m):
        rng = np.random.default_rng(dim + m)
        x = rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m))
        x /= np.linalg.norm(x, axis=0)
        for cols in (x, self.start(dim, m)):  # full rank, then rank 1
            for v in _checked_isometries(rng, 10, dim, m):
                y = _IsometryStep(v) @ cols
                assert y.shape == cols.shape
                np.testing.assert_allclose(
                    y.conj().T @ y, cols.conj().T @ cols, rtol=0, atol=1e-12
                )

    def test_first_and_second_moments_are_haar(self):
        # E[U X] = 0 and E[U X X† U†] = tr(X†X)/dim I
        x = self.columns(0)
        ys = self.draws(_checked_isometries, x, 1)
        assert _within(ys, 0.0)
        outer = np.einsum("kim,kjm->kij", ys, ys.conj())
        assert _within(outer, np.trace(x.conj().T @ x).real / self.DIM * np.eye(self.DIM))

    def test_mean_test_catches_a_missing_phase_fix(self):
        assert not _within(self.draws(_no_phase_fix, self.columns(0), 1), 0.0)

    @pytest.mark.parametrize("n,q", [(2, 1), (4, 1)])
    def test_haar_row_success_averages_to_chance(self, n, q):
        # a bound-sweep haar row's success over 20,000 seeds; the last step
        # is Haar, so on average every label's outcome is uniform
        family, layout = default_family(n), standard_layout(n)
        p = np.array([
            _label_success(_haar_run(family, [1] * q, np.random.default_rng(seed)), layout)
            for seed in range(self.DRAWS)
        ])
        assert abs(p.mean() - 1 / n) <= 4 * p.std() / np.sqrt(len(p))

    def test_failed_isometry_check_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="isometry fails"):
            _checked_isometries(_NanGenerator(), 1, 8, 2)

    @pytest.mark.parametrize(
        "n,exponents",
        [(2, ()), (4, (1,)), (8, (1, 1, 1)), (12, (1, -1, 2, 3, 5)), (16, (1,) * 9)],
    )
    def test_batched_run_keeps_the_seed_to_row_map(self, n, exponents):
        # haar, forward and schedule rows: one batched draw per run gives the
        # columns of q+1 successive single draws on the same generator
        family, layout = default_family(n), standard_layout(n)
        turns = _label_turns(range(n), n)
        for seed in range(3):
            steps = [_OneDraw(np.random.default_rng(seed))] * (len(exponents) + 1)
            want = _evolve(_start(layout, n), steps, exponents, layout, family.eigenstate, turns)
            got = _haar_run(family, exponents, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    def test_failed_isometry_check_raises_on_a_batched_run(self):
        # only the last step's draw is NaN: every V of the batch is checked
        class LastNan:
            def standard_normal(self, shape):
                g = np.random.default_rng(0).standard_normal(shape)
                g.flat[-1] = np.nan
                return g

        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="isometry fails"):
            _haar_run(default_family(4), [1, 1], LastNan())

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValueError, match="more columns than rows"):
            _checked_isometries(np.random.default_rng(0), 1, 3, 4)
