import math
import re

import numpy as np
import pytest

import reference
from phaselab import algorithms
from phaselab.algorithms import (
    _epr_computational,
    build_cemm,
    build_truncated_optimal,
    cemm_on_continuous_phase,
    epr_fourier_deviation,
    phase_distance,
    round_to_grid,
)
from phaselab.fourier import qft_matrix
from phaselab.linalg import UnitaryMatrix
from phaselab.oracles import PhaseInstance, default_family
from phaselab.simulate import (
    QueryAlgorithm,
    _run_labels,
    _Step,
    run_purified,
    standard_layout,
    success_probability_average,
)


def flip_perm(mask, work_dim=2):
    """Basis permutation of the (O, B, W) layout that flips B where mask[O]."""
    o, b, w = np.indices((len(mask), 2, work_dim))
    return ((o * 2 + (b ^ np.asarray(mask)[o])) * work_dim + w).reshape(-1)


def threshold_toggle(n, threshold, work_dim=2):
    """The step that flips B on every output branch with O >= threshold."""
    return _Step(standard_layout(n, work_dim), (flip_perm(np.arange(n) >= threshold, work_dim),))


def closed_form_outcome(n, theta, y):
    """Independent oracle: |(1/n) sum_k e^(2 pi i k (theta - y/n))|^2."""
    k = np.arange(n)
    return abs(np.exp(2j * np.pi * k * (theta - y / n)).sum() / n) ** 2


class TestTruncatedOptimal:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_full_budget_succeeds_always(self, n):
        alg = build_truncated_optimal(n, n - 1)
        assert success_probability_average(alg, default_family(n)) == pytest.approx(
            1.0, abs=1e-9
        )

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_zero_budget_is_uniform_guess(self, n):
        alg = build_truncated_optimal(n, 0)
        assert success_probability_average(alg, default_family(n)) == pytest.approx(
            1 / n, abs=1e-9
        )

    def test_n4_q1_is_half(self):
        alg = build_truncated_optimal(4, 1)
        assert success_probability_average(alg, default_family(4)) == pytest.approx(
            0.5, abs=1e-9
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 9])
    def test_saturates_bound_for_all_budgets(self, n):
        fam = default_family(n)
        for q in range(n):
            alg = build_truncated_optimal(n, q)
            got = success_probability_average(alg, fam)
            assert got == pytest.approx((q + 1) / n, abs=1e-9), (n, q)

    def test_budget_out_of_range(self):
        with pytest.raises(ValueError):
            build_truncated_optimal(4, 4)
        with pytest.raises(ValueError):
            build_truncated_optimal(4, -1)
        for n, q, bad in [(4, True, True), (4, 1.0, 1.0), (4, "1", "1"), (4.0, 1, 4.0)]:
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                build_truncated_optimal(n, q)

    def test_numpy_sizes_accepted(self):
        assert build_truncated_optimal(np.int64(4), np.int64(2)).q == 2

    def test_arbitrary_eigenstate(self):
        eig = np.array([0.6, 0.8j])
        fam_eig = eig / np.linalg.norm(eig)
        from phaselab.oracles import PhaseOracleFamily

        fam = PhaseOracleFamily(5, fam_eig)
        alg = build_truncated_optimal(5, 2, eigenstate=fam_eig)
        assert success_probability_average(alg, fam) == pytest.approx(3 / 5, abs=1e-9)


class TestCemm:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_recovers_every_label(self, n):
        alg = build_cemm(n)
        fam = default_family(n)
        for y in range(n):
            final = reference.run_fixed_y(alg, fam, y)
            assert reference.projection_norm_sq(final, "O", y) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_truncated_construction(self, n):
        fam = default_family(n)
        a, b = build_cemm(n), build_truncated_optimal(n, n - 1)
        diff = _run_labels(a, fam, range(n)) - _run_labels(b, fam, range(n))
        assert np.max(np.abs(diff)) < 1e-10
        pur = run_purified(a, fam).amps - run_purified(b, fam).amps
        assert np.max(np.abs(pur)) < 1e-10

    def test_intermediate_state_before_final_transform(self):
        # replace the closing step with the bare predicate clear: at fixed y
        # the output register should hold sum_k w^(yk) |k> / sqrt(n)
        n = 6
        alg = build_cemm(n)
        clear = threshold_toggle(n, n - 1)
        partial = QueryAlgorithm(alg.layout, alg.steps[:-1] + (clear,), alg.exponents, alg.start)
        fam = default_family(n)
        for y in range(n):
            got = _run_labels(partial, fam, [y])[:, 0].reshape(n, 2, 2)
            expected = np.exp(2j * np.pi * y * np.arange(n) / n) / np.sqrt(n)
            np.testing.assert_allclose(got[:, 0, 0], expected, atol=1e-10)
            assert np.max(np.abs(got[:, 1, :])) < 1e-12
            assert np.max(np.abs(got[:, 0, 1])) < 1e-12

    def test_query_count(self):
        assert build_cemm(7).q == 6
        assert build_cemm(1).q == 0
        assert build_cemm(np.int64(3)).q == 2

    @pytest.mark.parametrize("n", [True, 0, 2.0])
    def test_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
            build_cemm(n)


E0 = np.array([1.0, 0.0], dtype=np.complex128)


class TestDenseReference:
    """The start and the local-factor steps against the dense ``kron``
    construction, the start first, then step by step."""

    @staticmethod
    def assert_steps_match(steps, expected):
        assert len(steps) == len(expected)
        for step, dense in zip(steps, expected):
            np.testing.assert_allclose(reference.dense_step(step), dense, rtol=0, atol=1e-12)

    @classmethod
    def assert_circuit_matches(cls, alg, expected):
        start, steps = expected
        np.testing.assert_allclose(alg.start, start, rtol=0, atol=1e-12)
        cls.assert_steps_match(alg.steps, steps)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_truncated_optimal_steps(self, n):
        for q in range(n):
            alg = build_truncated_optimal(n, q)
            assert len(alg.steps) == q + 1
            self.assert_circuit_matches(alg, reference.truncated_optimal(n, q, E0))

    @pytest.mark.parametrize("n, q", [(3, 1), (5, 2), (6, 5)])
    def test_off_by_one_walk_is_caught(self, n, q):
        # planted defect: a walk table whose step j flips B at O = j+1
        j, o = np.arange(q + 2)[:, None], np.arange(n)
        shifted = (j >= 1) & (j <= q) & (o >= j + 1)
        steps = [
            _Step(step.layout, [flip_perm(a ^ b) if isinstance(f, np.ndarray) else f
                               for f in step.factors])
            for step, a, b in zip(build_truncated_optimal(n, q).steps, shifted[:-1], shifted[1:])
        ]
        with pytest.raises(AssertionError):
            self.assert_steps_match(steps, reference.truncated_optimal(n, q, E0)[1])

    @pytest.mark.parametrize("n", [2, 9, 24])
    def test_walk_permutations_match_the_predicate(self, n):
        # [O >= 1] switched on, moved on at O = j, [O >= q] switched off
        def perms(step):
            return [f for f in step.factors if isinstance(f, np.ndarray)]

        assert perms(build_truncated_optimal(n, 0).steps[0]) == []
        o = np.arange(n)
        for q in range(1, n):
            masks = [o >= 1] + [o == j for j in range(1, q)] + [o >= q]
            for step, mask in zip(build_truncated_optimal(n, q).steps, masks, strict=True):
                (perm,) = perms(step)
                np.testing.assert_array_equal(perm, flip_perm(mask))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cemm_steps(self, n):
        self.assert_circuit_matches(build_cemm(n), reference.cemm(n, E0))

    def test_three_dimensional_work_register(self):
        eig = np.array([0.6, 0.0, 0.8j])
        alg = build_truncated_optimal(5, 3, eigenstate=eig)
        self.assert_circuit_matches(alg, reference.truncated_optimal(5, 3, eig))

    @pytest.mark.parametrize("threshold", [0, 2, 5])
    def test_threshold_toggle(self, threshold):
        np.testing.assert_array_equal(
            reference.dense_step(threshold_toggle(5, threshold, 3)),
            reference.dense_threshold_toggle(5, threshold, 3),
        )


class TestStart:
    """The start is ``a ⊗ |0>_B ⊗ u`` entry for entry, with the Kronecker
    product, which the builders no longer call, as the reference."""

    EIGENSTATES = [E0, np.array([0.6, -0.8]), np.array([0.6, 0.0, 0.8j])]

    @staticmethod
    def uniform(n, q):
        # the O amplitudes of build_truncated_optimal, computed as it does
        target = np.zeros(n, dtype=np.complex128)
        target[: q + 1] = 1.0 / np.sqrt(q + 1)
        return target / np.linalg.norm(target)

    @pytest.mark.parametrize("u", EIGENSTATES, ids=["e0", "real-negative", "complex"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_start_is_the_product(self, n, u):
        pairs = [(build_truncated_optimal(n, q, u), self.uniform(n, q)) for q in range(n)]
        pairs.append((build_cemm(n, u), qft_matrix(n).matrix[:, 0]))
        for alg, a in pairs:
            np.testing.assert_array_equal(alg.start, np.kron(a, np.kron([1, 0], u)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_default_eigenstate_is_e0(self, n):
        assert not algorithms._E0.flags.writeable
        for q in range(n):
            default, given = build_truncated_optimal(n, q), build_truncated_optimal(n, q, [1.0, 0.0])
            np.testing.assert_array_equal(default.start, given.start)
            for a, b in zip(default.steps, given.steps, strict=True):
                assert len(a.factors) == len(b.factors)
                for f, g in zip(a.factors, b.factors):
                    if isinstance(f, np.ndarray):
                        np.testing.assert_array_equal(f, g)
                    else:
                        assert f is g  # the one cached F†


def assert_valid_step(step):
    """Fail unless ``step`` is what ``_Step`` takes on trust: at least one
    factor; each permutation a read-only integer array of shape (dim,),
    owned by a read-only array, that is a bijection of the basis states;
    each matrix a ``UnitaryMatrix`` on the leading registers its dimension
    spans, unitary to 1e-9."""
    dims, dim = step.layout.dims, step.layout.total_dim
    leading = [math.prod(dims[:k]) for k in range(1, len(dims) + 1)]
    assert step.factors, "a step needs at least one factor"
    for factor in step.factors:
        if isinstance(factor, np.ndarray):
            assert factor.dtype.kind in "iu" and factor.shape == (dim,)
            owner = factor if factor.base is None else factor.base
            assert not factor.flags.writeable and not owner.flags.writeable
            np.testing.assert_array_equal(np.sort(factor), np.arange(dim))
        else:
            assert isinstance(factor, UnitaryMatrix) and factor.dim in leading
            gram = factor.matrix.conj().T @ factor.matrix
            assert np.max(np.abs(gram - np.eye(factor.dim))) <= 1e-9


def read_only(perm):
    perm = np.array(perm)
    perm.setflags(write=False)
    return perm


class TestTrustedSteps:
    """The builders' steps are built by ``_Step``, which checks nothing;
    each must pass the checks a step from outside the package would have
    to, made here by ``assert_valid_step``."""

    @pytest.mark.parametrize("eigenstate", [None, [0.6, 0, 0.8j]])
    @pytest.mark.parametrize("n", [1, 2, 9, 24])
    def test_truncated_optimal_steps_pass_the_public_checks(self, n, eigenstate):
        for q in range(n):
            for step in build_truncated_optimal(n, q, eigenstate).steps:
                assert_valid_step(step)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cemm_steps_pass_the_public_checks(self, n):
        for step in build_cemm(n).steps:
            assert_valid_step(step)

    @pytest.mark.parametrize(
        "factors",
        [
            (read_only([0, 1, 2, 4, 4, 5, 6, 7, 8, 9, 10, 11]),),
            (UnitaryMatrix(np.eye(2)),),  # fits B, which does not lead
            (),
        ],
        ids=["repeated-entry", "2x2-factor", "empty"],
    )
    def test_validator_rejects_planted_defects(self, factors):
        step = _Step(standard_layout(3), factors)  # (O 3, B 2, W 2)
        with pytest.raises(AssertionError):
            assert_valid_step(step)

    @pytest.mark.parametrize("alg", [build_truncated_optimal(5, 3), build_cemm(4)], ids=["opt", "cemm"])
    def test_array_owners_are_read_only(self, alg):
        # a permutation is a row of one array; writing through that array
        # would change a step without any check
        perms = [f for step in alg.steps for f in step.factors if isinstance(f, np.ndarray)]
        assert len(perms) == alg.q + 1
        for factor in perms:
            assert factor.base is not None and not factor.base.flags.writeable
        for step in alg.steps:
            for factor in step.factors:
                if not isinstance(factor, np.ndarray):
                    mat = factor.matrix
                    assert not (mat if mat.base is None else mat.base).flags.writeable


class TestWorkPreparation:
    """W's state lives in the start vector: no step acts on W, and W starts
    off |0> exactly when the eigenstate is not e_0."""

    @pytest.mark.parametrize(
        "eigenstate, prepared",
        [(None, False), ([1, 0], False), ([1, 0, 0], False), ([0, 1], True), ([0.6, 0, 0.8j], True)],
    )
    def test_only_a_non_identity_preparation_is_kept(self, eigenstate, prepared):
        eig = E0 if eigenstate is None else np.asarray(eigenstate, dtype=np.complex128)
        for n in (1, 3, 5):
            algs = [build_truncated_optimal(n, q, eigenstate) for q in range(n)]
            expected = [reference.truncated_optimal(n, q, eig) for q in range(n)]
            algs.append(build_cemm(n, eigenstate))
            expected.append(reference.cemm(n, eig))
            for alg, dense in zip(algs, expected):
                # every matrix factor is F† on O alone
                dims = [f.dim for s in alg.steps for f in s.factors if not isinstance(f, np.ndarray)]
                assert dims == [n]
                w = alg.start.reshape(n, 2, len(eig))
                assert (np.abs(w[:, :, 1:]).max(initial=0) > 0) == prepared
                TestDenseReference.assert_circuit_matches(alg, dense)

    @pytest.mark.parametrize("eigenstate", [[1, 1], [np.nan, 0], [1 + 1e-6, 0]])
    def test_non_unit_eigenstate_rejected(self, eigenstate):
        with pytest.raises(ValueError, match="eigenstate must be a finite unit vector"):
            build_cemm(4, eigenstate)


def fejer(theta, n):
    """Closed-form outcome distribution of grid-n phase estimation at theta."""
    delta = theta - np.arange(n) / n
    return np.sin(np.pi * n * delta) ** 2 / (n * n * np.sin(np.pi * delta) ** 2)


class TestLargeN:
    """Checks that need the steps stored at the size they act on."""

    @pytest.mark.parametrize("n", [256, 1024])
    def test_distribution_matches_fejer_form(self, n):
        for theta in (0.5 / n, 0.3 + 0.37 / n):
            dist = cemm_on_continuous_phase(PhaseInstance(theta=theta, eigenstate=[1, 0]), n)
            np.testing.assert_allclose(dist, fejer(theta, n), rtol=0, atol=1e-9)

    def test_midgrid_limit_at_1024(self):
        # 1/(n^2 sin^2(pi/2n)) = 4/pi^2 + 1/(3 n^2) + O(n^-4), about 3e-7 above
        n = 1024
        dist = cemm_on_continuous_phase(PhaseInstance(theta=0.5 / n, eigenstate=[1, 0]), n)
        assert abs(dist[0] - 4 / np.pi**2) <= 1e-6

    @pytest.mark.parametrize("n", [48, 64, 128])
    def test_tightness(self, n):
        fam = default_family(n)
        for q in (0, 1, n // 2, n - 1):
            got = success_probability_average(build_truncated_optimal(n, q), fam)
            assert got == pytest.approx((q + 1) / n, abs=1e-9), (n, q)

    def test_cemm_factors_hold_order_n_squared_elements(self):
        # dense steps would hold n (4n)^2 = 16 n^3 elements
        n = 1024
        alg = build_cemm(n)
        elems = alg.start.size
        for step in alg.steps:
            for factor in step.factors:
                elems += factor.size if isinstance(factor, np.ndarray) else factor.matrix.size
        # F† on O (n^2), one length-4n permutation per step and the length-4n
        # start: no step prepares O or W
        assert elems == n * n + n * 4 * n + 4 * n


class TestContinuousPhase:
    def test_on_grid_theta_is_exact(self):
        n = 8
        dist = cemm_on_continuous_phase(PhaseInstance(theta=3 / n, eigenstate=[1, 0]), n)
        assert dist[3] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scale", [1 + 1e-6, np.nan])
    def test_off_norm_run_rejected(self, scale, monkeypatch):
        run = algorithms._run
        monkeypatch.setattr(algorithms, "_run", lambda *args: run(*args) * scale)
        with pytest.raises(ValueError, match="phase theta=0.3 weights sum to"):
            cemm_on_continuous_phase(PhaseInstance(theta=0.3, eigenstate=[1, 0]), 8)

    def test_distribution_matches_closed_form(self):
        n, theta = 8, 0.3
        dist = cemm_on_continuous_phase(PhaseInstance(theta=theta, eigenstate=[1, 0]), n)
        expected = [closed_form_outcome(n, theta, y) for y in range(n)]
        np.testing.assert_allclose(dist, expected, atol=1e-9)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_midgrid_nearest_outcome_value(self):
        # frozen from the closed-form amplitude sum: 1/(n^2 sin^2(pi/2n))
        n = 8
        dist = cemm_on_continuous_phase(PhaseInstance(theta=0.5 / n, eigenstate=[1, 0]), n)
        assert dist[0] == pytest.approx(0.410533474517003, abs=1e-9)
        assert dist[1] == pytest.approx(0.410533474517003, abs=1e-9)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_two_bin_mass_exceeds_classical_floor(self, n):
        theta = 0.5 / n
        dist = cemm_on_continuous_phase(PhaseInstance(theta=theta, eigenstate=[1, 0]), n)
        near = sum(p for y, p in enumerate(dist) if phase_distance(y / n, theta) <= 1 / n)
        assert near >= 8 / np.pi**2 - 0.01

    @pytest.mark.parametrize("n", [8, 16])
    def test_midgrid_approaches_asymptotic_value(self, n):
        dist = cemm_on_continuous_phase(PhaseInstance(theta=0.5 / n, eigenstate=[1, 0]), n)
        assert abs(dist[0] - 4 / np.pi**2) <= 0.02

    def test_small_grid_rejected(self):
        for n in [1, True, 4.0, "4"]:
            with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
                cemm_on_continuous_phase(PhaseInstance(theta=0.1, eigenstate=[1, 0]), n)


class TestRounding:
    def test_examples(self):
        assert round_to_grid(0.26, 4) == 1
        assert round_to_grid(0.99, 4) == 0  # circular wraparound
        assert round_to_grid(0.125, 4) == 0  # tie toward the smaller label

    def test_grid_points_are_fixed(self):
        for n in (3, 5, 8):
            for y in range(n):
                assert round_to_grid(y / n, n) == y

    def test_phase_distance_metrics(self):
        assert phase_distance(0.99, 0.01) == pytest.approx(0.02)

    def test_noise_inside_premise_is_recovered(self):
        # an estimate strictly within 1/(2n) of y/n always rounds back to y
        n = 8
        rng = np.random.default_rng(6)
        labels = rng.integers(n, size=500)
        radius = 0.99 / (2 * n)
        estimates = (labels / n + rng.uniform(-radius, radius, size=500)) % 1.0
        np.testing.assert_array_equal(round_to_grid(estimates, n), labels)

    @pytest.mark.parametrize("n", [2.5, True, 4.0, "4", 0])
    def test_grid_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
            round_to_grid(0.9, n)

    def test_numpy_grid_size_accepted(self):
        assert round_to_grid(0.9, np.int64(4)) == 0

    @pytest.mark.parametrize("estimate", [np.nan, np.inf, -np.inf, [0.1, np.nan]])
    def test_non_finite_estimate_rejected(self, estimate):
        with pytest.raises(ValueError, match="estimates must be finite"):
            round_to_grid(estimate, 4)


class TestEpr:
    def test_n1_trivial(self):
        np.testing.assert_allclose(_epr_computational(1), [1.0])
        assert epr_fourier_deviation(1) < 1e-12

    def test_n2_bell_state_by_direct_expansion(self):
        np.testing.assert_allclose(
            _epr_computational(2), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12
        )
        assert epr_fourier_deviation(2) < 1e-12

    @pytest.mark.parametrize("n", [3, 7, 12, 20])
    def test_constructions_agree(self, n):
        assert epr_fourier_deviation(n) <= 1e-10

    @pytest.mark.parametrize("n", [2.5, True, "4", 0])
    def test_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
            epr_fourier_deviation(n)
