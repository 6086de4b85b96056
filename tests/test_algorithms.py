import math
import re

import numpy as np
import pytest

import reference
from phaselab import algorithms
from phaselab.algorithms import (
    _epr_computational,
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
    standard_layout,
    success_probability_average,
)


def threshold_toggle(n, threshold, work_dim=2):
    """The step that flips B on every output branch with O >= threshold."""
    return _Step(standard_layout(n, work_dim), (slice(threshold, n),))


def walk(n, q):
    """The flips of the estimator's q+1 steps, written from the predicate
    [O >= j] between queries j and j+1: [O >= 1] switched on, moved on at
    O = j, [O >= q] switched off."""
    o = np.arange(n)
    flips = []
    for mask in [o >= 1] + [o == j for j in range(1, q)] + [o >= q]:
        (on,) = np.nonzero(mask)
        flips.append(slice(int(on[0]), int(on[-1]) + 1))
        assert list(range(n)[flips[-1]]) == on.tolist()  # one contiguous range
    return flips


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
    """The estimator is the q = n-1 optimal algorithm."""

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_recovers_every_label(self, n):
        alg = build_truncated_optimal(n, n - 1)
        fam = default_family(n)
        for y in range(n):
            final = reference.run_fixed_y(alg, fam, y)
            assert reference.projection_norm_sq(final, 0, y) == pytest.approx(1.0, abs=1e-9)

    def test_intermediate_state_before_final_transform(self):
        # replace the closing step with the bare predicate clear: at fixed y
        # the output register should hold sum_k w^(yk) |k> / sqrt(n)
        n = 6
        alg = build_truncated_optimal(n, n - 1)
        clear = threshold_toggle(n, n - 1)
        partial = QueryAlgorithm(alg.layout, alg.steps[:-1] + (clear,), alg.exponents, alg.start)
        fam = default_family(n)
        for y, col in enumerate(_run_labels(partial, fam).T):
            got = col.reshape(n, 2, 2)
            expected = np.exp(2j * np.pi * y * np.arange(n) / n) / np.sqrt(n)
            np.testing.assert_allclose(got[:, 0, 0], expected, atol=1e-10)
            assert np.max(np.abs(got[:, 1, :])) < 1e-12
            assert np.max(np.abs(got[:, 0, 1])) < 1e-12

    def test_query_count(self):
        assert build_truncated_optimal(7, 6).q == 6
        assert build_truncated_optimal(1, 0).q == 0
        assert build_truncated_optimal(np.int64(3), np.int64(2)).q == 2

    @pytest.mark.parametrize("n", [True, 0, 2.0])
    def test_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
            build_truncated_optimal(n, n - 1)


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
        # planted defect: every flip shifted up by one, so step j flips B
        # where the predicate is [O >= j+1]
        def shifted(f):
            return slice(f.start + 1, min(f.stop + 1, n)) if isinstance(f, slice) else f

        steps = [
            _Step(step.layout, [shifted(f) for f in step.factors])
            for step in build_truncated_optimal(n, q).steps
        ]
        with pytest.raises(AssertionError):
            self.assert_steps_match(steps, reference.truncated_optimal(n, q, E0)[1])

    @pytest.mark.parametrize("n", [2, 9, 24])
    def test_walk_permutations_match_the_predicate(self, n):
        # one flip per step, the q+1 slices of the predicate walk in order
        def flips(step):
            return [f for f in step.factors if isinstance(f, slice)]

        assert flips(build_truncated_optimal(n, 0).steps[0]) == []
        for q in range(1, n):
            got = [flips(step) for step in build_truncated_optimal(n, q).steps]
            assert got == [[flip] for flip in walk(n, q)], q

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cemm_steps(self, n):
        self.assert_circuit_matches(build_truncated_optimal(n, n - 1), reference.cemm(n, E0))

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
        uniform = np.zeros(n, dtype=np.complex128)
        uniform[: q + 1] = 1.0 / np.sqrt(q + 1)
        return uniform

    @pytest.mark.parametrize("u", EIGENSTATES, ids=["e0", "real-negative", "complex"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_start_is_the_product(self, n, u):
        pairs = [(build_truncated_optimal(n, q, u), self.uniform(n, q)) for q in range(n)]
        # at q = n-1 the start is F|0>, column 0 of the Fourier transform, bit for bit
        pairs.append((build_truncated_optimal(n, n - 1, u), qft_matrix(n).matrix[:, 0]))
        for alg, a in pairs:
            np.testing.assert_array_equal(alg.start, np.kron(a, np.kron([1, 0], u)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_default_eigenstate_is_e0(self, n):
        assert not default_family(n).eigenstate.flags.writeable
        for q in range(n):
            default, given = build_truncated_optimal(n, q), build_truncated_optimal(n, q, [1.0, 0.0])
            np.testing.assert_array_equal(default.start, given.start)
            for a, b in zip(default.steps, given.steps, strict=True):
                assert len(a.factors) == len(b.factors)
                for f, g in zip(a.factors, b.factors):
                    if isinstance(f, slice):
                        assert f == g
                    else:
                        assert f is g  # the one cached F†


def assert_valid_step(step):
    """Fail unless ``step`` is what ``_Step`` takes on trust: at least one
    factor; each flip a ``slice`` of O with int ends 0 <= start < stop <= n
    and no step, so a nonempty range; each matrix a ``UnitaryMatrix`` on the
    leading registers its dimension spans, unitary to 1e-9. Anything else,
    an integer array included, fails."""
    dims = step.layout.dims
    leading = [math.prod(dims[:k]) for k in range(1, len(dims) + 1)]
    assert step.factors, "a step needs at least one factor"
    for factor in step.factors:
        if isinstance(factor, slice):
            assert type(factor.start) is int and type(factor.stop) is int
            assert factor.step is None and 0 <= factor.start < factor.stop <= dims[0]
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
        for step in build_truncated_optimal(n, n - 1).steps:
            assert_valid_step(step)

    @pytest.mark.parametrize(
        "factors",
        [
            # an integer array is not a factor, even a bijection of the basis
            (read_only([0, 1, 2, 4, 4, 5, 6, 7, 8, 9, 10, 11]),),
            (read_only(np.arange(12)),),
            (UnitaryMatrix(np.eye(2)),),  # fits B, which does not lead
            (),
            (slice(0, 4),),  # past the end of O
            (slice(2, 2),),  # flips nothing
            (slice(-1, 3),),
            (slice(0, 3, 2),),
            (slice(None, 2),),
            (slice(np.int64(0), 2),),
        ],
        ids=["repeated-entry", "permutation", "2x2-factor", "empty", "past-the-end",
             "empty-slice", "negative-start", "stepped-slice", "open-start", "numpy-end"],
    )
    def test_validator_rejects_planted_defects(self, factors):
        step = _Step(standard_layout(3), factors)  # (O 3, B 2, W 2)
        with pytest.raises(AssertionError):
            assert_valid_step(step)

    @pytest.mark.parametrize(
        "alg", [build_truncated_optimal(5, 3), build_truncated_optimal(4, 3)], ids=["opt", "cemm"]
    )
    def test_array_owners_are_read_only(self, alg):
        # the one array a step holds is F†'s; writing through its owner would
        # change a step without any check. A flip is an immutable slice.
        flips = [f for step in alg.steps for f in step.factors if isinstance(f, slice)]
        assert len(flips) == alg.q + 1
        for step in alg.steps:
            for factor in step.factors:
                if not isinstance(factor, slice):
                    mat = factor.matrix
                    assert not (mat if mat.base is None else mat.base).flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 9, 24])
    def test_every_factor_is_the_cached_adjoint_or_a_slice(self, n):
        # no step stores an integer array: the walk is slices of O
        for q in range(n):
            for step in build_truncated_optimal(n, q).steps:
                for factor in step.factors:
                    assert isinstance(factor, slice) or factor is qft_matrix(n).adjoint


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
            algs.append(build_truncated_optimal(n, n - 1, eigenstate))
            expected.append(reference.cemm(n, eig))
            for alg, dense in zip(algs, expected):
                # every matrix factor is F† on O alone
                dims = [f.dim for s in alg.steps for f in s.factors if not isinstance(f, slice)]
                assert dims == [n]
                w = alg.start.reshape(n, 2, len(eig))
                assert (np.abs(w[:, :, 1:]).max(initial=0) > 0) == prepared
                TestDenseReference.assert_circuit_matches(alg, dense)

    @pytest.mark.parametrize("eigenstate", [[1, 1], [np.nan, 0], [1 + 1e-6, 0]])
    def test_non_unit_eigenstate_rejected(self, eigenstate):
        with pytest.raises(ValueError, match="eigenstate must be a finite unit vector"):
            build_truncated_optimal(4, 3, eigenstate)


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
        alg = build_truncated_optimal(n, n - 1)
        elems = alg.start.size
        for step in alg.steps:
            for factor in step.factors:
                elems += 0 if isinstance(factor, slice) else factor.matrix.size
        # F† on O (n^2) and the length-4n start; a flip is a slice of O and
        # holds no array, and no step prepares O or W
        assert elems == n * n + 4 * n


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

    @pytest.mark.parametrize("eigenstate", [[0, 1], [0.6, 0, 0.8j]], ids=["e1", "complex"])
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_curve_does_not_depend_on_the_eigenstate(self, n, eigenstate):
        # the oracle's eigenstate must reach the estimator's start: with e0
        # there instead, the work register never picks up the phase
        for theta in (0.001, 0.3, 0.5 + 0.37 / n, 0.97):
            e0 = cemm_on_continuous_phase(PhaseInstance(theta, [1, 0]), n)
            dist = cemm_on_continuous_phase(PhaseInstance(theta, eigenstate), n)
            np.testing.assert_allclose(dist, e0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dist, fejer(theta, n), rtol=0, atol=1e-12)

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
        # phases outside [0, 1) are taken mod 1 first
        assert phase_distance(1.5, 0.0) == 0.5
        assert phase_distance(0.25, -0.9) == pytest.approx(0.15)
        np.testing.assert_allclose(phase_distance([2.1, -0.1, 3.75], 0.0), [0.1, 0.1, 0.25])

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

    @pytest.mark.parametrize("n", [96, 1024])
    def test_constructions_agree_to_roundoff_at_large_n(self, n):
        # F's entries are reduced roots of unity, so the identity holds to
        # a few ulps; the unreduced angle gave 1.0e-15 and 2.4e-15 here
        assert epr_fourier_deviation(n) <= 5e-16

    @pytest.mark.parametrize("n", [2.5, True, "4", 0])
    def test_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
            epr_fourier_deviation(n)
