import re
from dataclasses import replace

import numpy as np
import pytest

from phaselab.fourier import _spectrum, fourier_weights, qft_matrix
from phaselab.linalg import (
    RegisterLayout,
    StateVector,
    UnitaryMatrix,
    _check_isometry,
    _haar_isometries,
    haar_random_unitary,
)
from phaselab import simulate
from phaselab.oracles import FORWARD, PhaseInstance, _label_roots, default_family
from phaselab.simulate import (
    COUNTER,
    QueryAlgorithm,
    RunTranscript,
    _check_spectra,
    _counter_spectra,
    _evolve,
    _haar_runs,
    _IsometryStep,
    _label_success,
    _run,
    _run_labels,
    _start,
    _Step,
    counter_leakage,
    haar_random_algorithm,
    leakage_from_weights,
    reachable_counter_values,
    run_purified,
    run_purified_transcript,
    standard_layout,
    success_probability_average,
    success_probability_purified,
)
import reference
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
    return QueryAlgorithm(layout, steps, exponents)


def run_fixed_y(alg, family, y):
    """The fixed-label run of member y: column y of the kernel's label run."""
    return StateVector(alg.layout, _run_labels(alg, family)[:, y])


class TestAlgorithmValidation:
    def test_step_count_must_match_exponents(self):
        layout = standard_layout(3)
        with pytest.raises(ValueError):
            QueryAlgorithm(layout, (identity_step(3),), (FORWARD,))

    def test_problem_size_read_from_output_register(self):
        layout = RegisterLayout((5, 2, 3, 2))
        alg = QueryAlgorithm(layout, (UnitaryMatrix(np.eye(60)),), ())
        assert (alg.n, alg.work_dim) == (5, 3)
        with pytest.raises(ValueError, match="must start O, B"):
            QueryAlgorithm(RegisterLayout((2, 2)), (UnitaryMatrix(np.eye(4)),), ())

    @pytest.mark.parametrize(
        "dims", [(3, 3, 2), (), (4,), (4, 2)], ids=["B-dim-3", "none", "O-only", "O-B"]
    )
    def test_registers_must_start_o_b_w(self, dims):
        # registers are positions: O, B (dimension 2) and W must all be there
        layout = RegisterLayout(dims)
        with pytest.raises(ValueError, match=re.escape(f"W, got dims {dims}")):
            QueryAlgorithm(layout, (UnitaryMatrix(np.eye(layout.total_dim)),), ())

    def test_step_dimension_checked(self):
        layout = standard_layout(3)
        with pytest.raises(ValueError):
            QueryAlgorithm(layout, (UnitaryMatrix(np.eye(6)),), ())

    @pytest.mark.parametrize(
        "step", [np.eye(12, dtype=complex), np.arange(12), (UnitaryMatrix(np.eye(12)),)],
        ids=["raw-matrix", "permutation", "factor-tuple"],
    )
    def test_step_from_outside_must_be_a_unitary_matrix(self, step):
        # only a dense UnitaryMatrix, checked unitary when built, enters
        name = type(step).__name__
        with pytest.raises(TypeError, match=f"step 0 must be a UnitaryMatrix, got {name}"):
            QueryAlgorithm(standard_layout(3), (step,), ())

    @pytest.mark.parametrize("exponent", [1.0, 2.5, True, "1", None])
    def test_exponent_must_be_an_integer(self, exponent):
        steps = (identity_step(3), identity_step(3))
        with pytest.raises(ValueError, match="query exponent must be an integer"):
            QueryAlgorithm(standard_layout(3), steps, (exponent,))

    def test_numpy_exponents_stored_as_int(self):
        steps = (identity_step(3),) * 3
        alg = QueryAlgorithm(standard_layout(3), steps, np.array([2, -1]))
        assert alg.exponents == (2, -1)
        assert all(type(m) is int for m in alg.exponents)

    @pytest.mark.parametrize("q", [1.5, True, "1", -1])
    def test_haar_query_count_must_be_a_count(self, q):
        with pytest.raises(ValueError, match=re.escape(f"got {q!r}")):
            haar_random_algorithm(4, q, 0)

    def test_haar_numpy_query_count_accepted(self):
        assert haar_random_algorithm(4, np.int64(2), 0).q == 2

    def test_default_start_is_all_zeros(self):
        alg = QueryAlgorithm(standard_layout(3), (identity_step(3),), ())
        np.testing.assert_array_equal(alg.start, zero_state(alg.layout).amps)

    @pytest.mark.parametrize(
        "start, message",
        [
            (np.ones(11) / np.sqrt(11), "start has length 11, layout expects 12"),
            (np.ones(13) / np.sqrt(13), "start has length 13, layout expects 12"),
            (np.eye(1, 12)[0] * (1 + 1e-6), "start must be a finite unit vector"),
            (np.zeros(12), "start must be a finite unit vector"),
            (np.r_[np.nan, np.zeros(11)], "start must be a finite unit vector"),
            (np.r_[np.inf, np.zeros(11)], "start must be a finite unit vector"),
        ],
        ids=["short", "long", "off-norm", "zero", "nan", "inf"],
    )
    def test_bad_start_rejected(self, start, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            QueryAlgorithm(standard_layout(3), (identity_step(3),), (), start)

    def test_start_is_a_frozen_copy_kept_by_replace(self):
        rng = np.random.default_rng(4)
        given = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        given /= np.linalg.norm(given)
        alg = QueryAlgorithm(standard_layout(3), (identity_step(3),) * 2, (1,), given)
        given[0] = 0.0
        assert alg.start[0] != 0.0
        with pytest.raises(ValueError, match="read-only"):
            alg.start[0] = 0.0
        other = replace(alg, exponents=(-1,))
        np.testing.assert_array_equal(other.start, alg.start)
        assert other.exponents == (-1,) and not other.start.flags.writeable

    def test_extra_ancilla_register_allowed(self):
        layout = RegisterLayout((3, 2, 2, 3))
        alg = QueryAlgorithm(layout, (UnitaryMatrix(np.eye(36)),), ())
        assert alg.q == 0

    def test_trailing_ancilla_of_counter_size_matches_reference(self):
        # nothing is reserved: an ancilla of dimension n after W is one more
        # register, and the purified counter is appended after it
        n = 3
        rng = np.random.default_rng(12)
        layout = RegisterLayout((n, 2, 2, n))
        steps = tuple(haar_random_unitary(layout.total_dim, rng) for _ in range(3))
        alg = QueryAlgorithm(layout, steps, (1, -1))
        fam = default_family(n)
        got, want = run_purified(alg, fam), reference.run_purified(alg, fam)
        assert got.layout == want.layout == RegisterLayout((n, 2, 2, n, n))
        np.testing.assert_allclose(got.amps, want.amps, rtol=0, atol=1e-12)


class TestStep:
    LAYOUT = standard_layout(3)  # (O 3, B 2, W 2)

    def test_dense_matrix_wrapped_without_copy(self):
        u = haar_random_unitary(12, seed=1)
        alg = QueryAlgorithm(self.LAYOUT, (u,), ())
        (factor,) = alg.steps[0].factors
        assert factor is u
        cols = np.eye(12, dtype=complex)[:, :5]
        np.testing.assert_array_equal(alg.steps[0] @ cols, u.matrix @ cols)

    def test_local_factor_is_identity_elsewhere(self):
        u = qft_matrix(3)  # on O, the leading register
        step = _Step(self.LAYOUT, (u,))
        np.testing.assert_array_equal(step @ np.eye(12), np.kron(u.matrix, np.eye(4)))

    def test_factor_order_and_permutation_convention(self):
        # a flip on O in [1, 3) swaps B's rows there; the matrix applies after it
        rng = np.random.default_rng(2)
        u = haar_random_unitary(6, rng)  # on (O, B): O most significant
        cols = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        given = cols.copy()
        step = _Step(self.LAYOUT, (slice(1, 3), u))
        perm = np.array([0, 1, 2, 3, 6, 7, 4, 5, 10, 11, 8, 9])  # row i takes row perm[i]
        expected = np.kron(u.matrix, np.eye(2)) @ cols[perm]
        np.testing.assert_allclose(step @ cols, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(_Step(self.LAYOUT, (slice(1, 3),)) @ cols, cols[perm])
        np.testing.assert_array_equal(cols, given)  # the input is never written

    def test_step_layout_must_match_algorithm(self):
        step = _Step(standard_layout(3, work_dim=3), (slice(0, 3),))
        QueryAlgorithm(standard_layout(3, work_dim=3), (step,), ())  # the same layout
        layout = RegisterLayout((3, 2, 3))
        assert layout is not step.layout
        QueryAlgorithm(layout, (step,), ())  # an equal, distinct layout is accepted
        other = RegisterLayout((3, 2, 3, 1))
        with pytest.raises(ValueError, match="not the layout"):
            QueryAlgorithm(other, (step,), ())


class TestStandardLayout:
    def test_one_cached_layout_per_size(self):
        assert standard_layout(5) is standard_layout(5)
        assert standard_layout(5, 3) is standard_layout(5, 3)
        assert standard_layout(5, 3).dims == (5, 2, 3)

    @pytest.mark.parametrize(
        "call, cached, other",
        [
            (standard_layout, (4,), (4.0,)),
            (standard_layout, (1,), (True,)),
            (haar_random_algorithm, (4, 1, 0), (4.0, 1, 0)),
            (standard_layout, (4, 2), (4.0, 2)),
            (standard_layout, (1, 2), (True, 2)),
            (standard_layout, (4, 3), (4, 3.0)),
            (standard_layout, (4,), ([4],)),
            (standard_layout, (4, 2), (4, [2])),
            (standard_layout, (4,), (np.array(4),)),
            (qft_matrix, (4,), (4.0,)),
            (qft_matrix, (1,), (True,)),
            (qft_matrix, (4,), ([4],)),
            (qft_matrix, (4,), (np.array(4),)),
            (default_family, (4,), (4.0,)),
            (default_family, (1,), (True,)),
            (default_family, (4, 3), (4, [3])),
            (default_family, (4,), (np.array(4),)),
        ],
        ids=[
            "float", "bool", "haar", "float-pair", "bool-pair", "float-work", "list",
            "list-work", "0d-array", "qft-float", "qft-bool", "qft-list", "qft-0d-array",
            "family-float", "family-bool", "family-list-work", "family-0d-array",
        ],
    )
    def test_cache_keeps_the_integer_rule(self, call, cached, other):
        # the integer rule runs before every cache lookup: 4.0 == 4 and
        # True == 1 must not find the entries of 4 and 1, an unhashable list
        # must meet the rule, not the cache, and a 0-d integer array, which
        # the rule accepts, must find the entry of its int
        value = call(*cached)
        (got,) = [o for o, c in zip(other, cached) if type(o) is not type(c)]
        if isinstance(got, np.ndarray):
            assert call(*other) is value
        else:
            with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {got!r}")):
                call(*other)


class TestLeadingRegisterView:
    """A matrix factor acts on the leading registers its dimension spans; to
    act on others, order the layout to lead with them. The reshape view on
    that layout must match the reference's moved-axes product on the
    original one."""

    @pytest.mark.parametrize(
        "layout, targets",
        [
            (standard_layout(3), (0,)),
            (standard_layout(3), (0, 1)),
            (standard_layout(3), (0, 1, 2)),
            (standard_layout(3), (2,)),
            (standard_layout(3), (1, 0)),
            (standard_layout(3), (0, 2)),
            (RegisterLayout((2, 3, 2)), (1,)),
        ],
        ids=["O", "OB", "OBW", "W", "BO", "OW", "W-first-O"],
    )
    def test_matches_moveaxis_reference(self, layout, targets):
        rng = np.random.default_rng(7)
        rest = tuple(axis for axis in range(len(layout.dims)) if axis not in targets)
        order = list(targets + rest)
        ordered = RegisterLayout(tuple(layout.dims[i] for i in order))
        u = haar_random_unitary(int(np.prod(ordered.dims[: len(targets)])), rng)
        cols = rng.standard_normal((layout.total_dim, 5)) + 1j * rng.standard_normal(
            (layout.total_dim, 5)
        )
        cols /= np.linalg.norm(cols, axis=0)
        moved = cols.reshape(layout.dims + (5,)).transpose(order + [len(order)])
        got = _Step(ordered, (u,)) @ moved.reshape(-1, 5)
        back = got.reshape(ordered.dims + (5,)).transpose(list(np.argsort(order)) + [len(order)])
        for j in range(5):
            want = apply_to_registers(StateVector(layout, cols[:, j]), u, targets)
            np.testing.assert_allclose(back[..., j].reshape(-1), want.amps, rtol=0, atol=1e-12)


class TestRunFixedY:
    def test_zero_query_identity_step(self):
        alg = QueryAlgorithm(standard_layout(4), (identity_step(4),), ())
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
        assert abs(np.linalg.norm(out.amps) - 1) < 1e-9

    def test_family_size_mismatch(self):
        alg = one_query_probe(4)
        with pytest.raises(ValueError):
            run_fixed_y(alg, default_family(5), 0)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            alg = haar_random_algorithm(6, 3, rng)
            out = run_fixed_y(alg, default_family(6), int(rng.integers(6)))
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-9


def run_phase(alg, inst):
    """The kernel's final state for the continuous-phase oracle of ``inst``."""
    return _run(alg, inst.eigenstate, lambda m: np.exp(2j * np.pi * (inst.theta * m)), 1)[:, 0]


class TestRunFixedPhase:
    def test_inverse_query_undoes_forward(self):
        # raise the control, query V then V^-1: the state returns to |0,1,0>
        n = 4
        steps = (embed_on_control(n, X2), identity_step(n), identity_step(n))
        alg = QueryAlgorithm(standard_layout(n), steps, (1, -1))
        inst = PhaseInstance(theta=0.3, eigenstate=np.array([1, 0]))
        expected = np.zeros(alg.layout.total_dim)
        expected[2] = 1.0
        np.testing.assert_allclose(run_phase(alg, inst), expected, atol=1e-12)
        np.testing.assert_allclose(reference.run_fixed_phase(alg, inst).amps, expected, atol=1e-12)

    def test_grid_phase_matches_fixed_label(self):
        n = 6
        alg = replace(haar_random_algorithm(n, 3, seed=21), exponents=(1, -1, 8))
        fam = default_family(n)
        inst = PhaseInstance(theta=5 / n, eigenstate=fam.eigenstate)
        np.testing.assert_allclose(run_phase(alg, inst), run_fixed_y(alg, fam, 5).amps, atol=1e-12)


class TestRunPurified:
    def test_zero_query_product_state(self):
        n = 6
        alg = QueryAlgorithm(standard_layout(n), (identity_step(n),), ())
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
        w = fourier_weights(out, COUNTER)
        assert w[1] == pytest.approx(1.0, abs=1e-10)

    def test_steps_commute_with_counter_weights(self):
        n = 6
        rng = np.random.default_rng(8)
        alg = haar_random_algorithm(n, 2, rng)
        state = run_purified(alg, default_family(n))
        before = fourier_weights(state, COUNTER)
        extra = haar_random_unitary(alg.layout.total_dim, rng)
        after = fourier_weights(
            apply_to_registers(state, extra, list(range(len(alg.layout.dims)))), COUNTER
        )
        assert np.max(np.abs(after - before)) < 1e-10


# exponents congruent to 1 mod 12: U^m depends on m mod n only
CONGRUENT_TO_ONE = [1 + 12 * 2**58, 1 + 12 * 2**70, -11, 13]


class TestExponentReduction:
    """A query of power m must act as one of power m mod n, however large m
    is: the label phases reduce m before they multiply it by the label, so
    y * m cannot overflow int64."""

    @pytest.mark.parametrize("exponent", CONGRUENT_TO_ONE)
    def test_label_columns_depend_on_exponent_mod_n(self, exponent):
        n = 12
        h = haar_random_unitary(4 * n, seed=1)
        fam = default_family(n)
        one = QueryAlgorithm(standard_layout(n), (h, h.adjoint), (1,))
        alg = replace(one, exponents=(exponent,))
        assert np.array_equal(_run_labels(alg, fam), _run_labels(one, fam))

    @pytest.mark.parametrize("exponent", CONGRUENT_TO_ONE[::2])
    def test_haar_trial_depends_on_exponent_mod_n(self, exponent):
        fam = default_family(12)
        (got, got_spectra), = _haar_runs(fam, [[exponent]], [np.random.default_rng(3)])
        (want, want_spectra), = _haar_runs(fam, [[1]], [np.random.default_rng(3)])
        assert np.array_equal(got, want) and np.array_equal(got_spectra, want_spectra)

    def test_per_column_denominators(self):
        # the reduction chain's phases num/den: den divides 12, so any
        # exponent congruent to 1 mod 12 gives the phases of exponent 1
        num, den = np.array([0, 1, 1, 3, 5, 7]), np.array([1, 2, 3, 4, 6, 12])
        roots = _label_roots(num, den)
        for exponent in CONGRUENT_TO_ONE[::2]:
            assert np.array_equal(roots(exponent), roots(1))
        with pytest.raises(OverflowError):
            roots(2**63)


class TestCounterLeakage:
    def test_initial_state_budget_zero(self):
        n = 5
        alg = QueryAlgorithm(standard_layout(n), (identity_step(n),), ())
        out = run_purified(alg, default_family(n))
        assert counter_leakage(out, 0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n,q", [(4, 1), (8, 3), (6, 5)])
    def test_forward_runs_respect_budget(self, n, q):
        rng = np.random.default_rng(n * 100 + q)
        for _ in range(5):
            alg = haar_random_algorithm(n, q, rng)
            out = run_purified(alg, default_family(n))
            assert counter_leakage(out, q) <= 1e-10

    @pytest.mark.parametrize("budget", [True, 1.5, 1.0, "1", -1])
    def test_budget_must_be_a_count(self, budget):
        out = run_purified(one_query_probe(4), default_family(4))
        message = f"leakage budget must be .*, got {re.escape(repr(budget))}"
        with pytest.raises(ValueError, match=message):
            counter_leakage(out, budget)

    def test_numpy_budget_accepted(self):
        out = run_purified(one_query_probe(4), default_family(4))
        assert counter_leakage(out, np.int64(0)) == counter_leakage(out, 0)

    def test_power_query_lands_at_exponent(self):
        n = 8
        alg = one_query_probe(n, exponents=(3,))
        out = run_purified(alg, default_family(n))
        assert counter_leakage(out, 1) > 0.5  # all weight sits at index 3
        assert counter_leakage(out, 3) <= 1e-10

    def test_inverse_schedule_reachable_set(self):
        n = 6
        rng = np.random.default_rng(4)
        alg = replace(haar_random_algorithm(n, 1, rng), exponents=(-1,))
        out = run_purified(alg, default_family(n))
        assert leakage_from_weights(fourier_weights(out, COUNTER), {0, n - 1}) <= 1e-10

    def test_branch_conditional_add_reaches_subset_sums(self):
        # schedule [power(2), forward] with the control raised only for the
        # second query: all weight ends at counter index 1, which only the
        # subset-sum reachable set {0,1,2,3} contains
        n = 8
        layout = standard_layout(n)
        steps = (identity_step(n), embed_on_control(n, X2), identity_step(n))
        alg = QueryAlgorithm(layout, steps, (2, 1))
        out = run_purified(alg, default_family(n))
        w = fourier_weights(out, COUNTER)
        assert w[1] == pytest.approx(1.0, abs=1e-10)
        assert leakage_from_weights(w, {0, 1, 2, 3}) <= 1e-10

    def test_random_schedules_stay_in_reachable_sets(self):
        n = 9
        rng = np.random.default_rng(55)
        for _ in range(8):
            q = int(rng.integers(1, 5))
            exps = [int(m) for m in rng.choice([1, -1, 2, 3, 5], size=q)]
            alg = replace(haar_random_algorithm(n, q, rng), exponents=exps)
            tr = run_purified_transcript(alg, default_family(n))
            reach = reachable_counter_values(exps, n)
            for w, allowed in zip(tr.counter_weights, reach):
                outside = sum(v for k, v in enumerate(w) if k not in allowed)
                assert outside <= 1e-10

    def test_reachable_counter_values(self):
        assert reachable_counter_values([2, 1], 16) == [{0}, {0, 2}, {0, 1, 2, 3}]
        assert reachable_counter_values([-1], 6) == [{0}, {0, 5}]
        assert reachable_counter_values([3, 3], 4) == [{0}, {0, 3}, {0, 2, 3}]

    @pytest.mark.parametrize(
        "exponents, n, bad",
        [([1, 2], 2.5, 2.5), ([1], True, True), ([1.5], 4, 1.5), ([1, True], 4, True), ([1], 0, 0)],
    )
    def test_reachable_values_take_integers(self, exponents, n, bad):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            reachable_counter_values(exponents, n)

    def test_reachable_values_accept_numpy_integers(self):
        sets = reachable_counter_values(np.array([1, 2]), np.int64(4))
        assert sets == [{0}, {0, 1}, {0, 1, 2, 3}]
        assert all(type(v) is int for v in sets[-1])


class TestTranscript:
    def test_snapshot_count_and_normalization(self):
        n = 5
        alg = haar_random_algorithm(n, 3, seed=1)
        tr = run_purified_transcript(alg, default_family(n))
        assert len(tr.counter_weights) == 4
        for w in tr.counter_weights:
            assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_nan_snapshot_rejected(self):
        state = run_purified(haar_random_algorithm(2, 0, seed=1), default_family(2))
        with pytest.raises(ValueError, match="snapshot 0 weights sum to nan"):
            RunTranscript((np.array([np.nan, 0.0]),), state)

    def test_final_state_matches_plain_run(self):
        n = 4
        alg = haar_random_algorithm(n, 2, seed=9)
        fam = default_family(n)
        tr = run_purified_transcript(alg, fam)
        np.testing.assert_allclose(tr.final_state.amps, run_purified(alg, fam).amps)


class TestSpectra:
    @pytest.mark.parametrize("n", [2, 3, 8, 12, 16, 64])
    def test_runs_side_by_side_are_each_their_own(self, n):
        # run t's weights are _spectrum(cols_t) / n bit for bit, also at T = 1
        rng = np.random.default_rng(n)
        runs = rng.standard_normal((3, 4 * n, n)) + 1j * rng.standard_normal((3, 4 * n, n))
        cols = np.concatenate(list(runs), axis=1)
        assert np.array_equal(_counter_spectra(runs[0], n), [_spectrum(runs[0]) / n])
        got = _counter_spectra(cols, n)
        assert got.shape == (3, n)
        for w, run in zip(got, runs):
            assert np.array_equal(w, _spectrum(run) / n)

    def test_one_run_is_the_purified_spectrum(self):
        n, q = 8, 3
        alg = haar_random_algorithm(n, q, seed=4)
        fam = default_family(n)
        (w,) = _counter_spectra(_run_labels(alg, fam), n)
        np.testing.assert_allclose(w, fourier_weights(run_purified(alg, fam), COUNTER), atol=1e-15)

    @pytest.mark.parametrize("total", [np.nan, np.inf, -np.inf, 1 + 2e-9, 1 - 2e-9])
    def test_check_names_the_first_spectrum_off_one(self, total):
        spectra = np.array([[0.25, 0.75], [total, 0.0], [np.nan, 0.0]])
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=f"snapshot 1 weights sum to {total}, expected 1"
        ):
            _check_spectra(spectra)

    def test_check_passes_within_tolerance(self):
        _check_spectra(np.array([[0.5, 0.5 + 9e-10], [1 - 9e-10, 0.0]]))
        _check_spectra((np.array([1.0]),))


class TestSuccessProbabilities:
    def test_perfectly_correlated_state(self):
        n = 6
        layout = RegisterLayout((n, n))
        amps = np.zeros(n * n, dtype=complex)
        amps[:: n + 1] = 1 / np.sqrt(n)
        assert success_probability_purified(StateVector(layout, amps)) == pytest.approx(1.0)

    def test_product_state_gives_uniform_chance(self):
        # |0>_O x |f0>_C: P(equal) = sum_y |<y,y|psi>|^2 = |1/sqrt(n)|^2 at y=0
        n = 7
        layout = RegisterLayout((n, n))
        amps = np.kron(np.eye(1, n, 0).ravel(), qft_matrix(n).matrix[:, 0])
        assert success_probability_purified(StateVector(layout, amps)) == pytest.approx(1 / n)

    def test_register_dimension_mismatch(self):
        layout = RegisterLayout((3, 4))
        amps = np.zeros(12, dtype=complex)
        amps[0] = 1
        with pytest.raises(ValueError):
            success_probability_purified(StateVector(layout, amps))

    def test_blind_guess(self):
        n = 5
        alg = QueryAlgorithm(standard_layout(n), (identity_step(n),), ())
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


def _isometries(rng, count, dim, m):
    """``count`` checked isometries from one generator, (count, dim, m)."""
    v, dev = _haar_isometries([rng], count, dim, m)
    _check_isometry(dev[0])
    return v[0]


def _no_phase_fix(rng, count, dim, m):
    """The isometry draw with the QR phase fix left out: LAPACK leaves the
    R diagonal real but of either sign, so V's phases are biased."""
    g = rng.standard_normal((count, 2, dim, m))
    return np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))[0]


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
            for v in _isometries(rng, 10, dim, m):
                y = _IsometryStep(v) @ cols
                assert y.shape == cols.shape
                np.testing.assert_allclose(
                    y.conj().T @ y, cols.conj().T @ cols, rtol=0, atol=1e-12
                )

    def test_first_and_second_moments_are_haar(self):
        # E[U X] = 0 and E[U X X† U†] = tr(X†X)/dim I
        x = self.columns(0)
        ys = self.draws(_isometries, x, 1)
        assert _within(ys, 0.0)
        outer = np.einsum("kim,kjm->kij", ys, ys.conj())
        assert _within(outer, np.trace(x.conj().T @ x).real / self.DIM * np.eye(self.DIM))

    def test_mean_test_catches_a_missing_phase_fix(self):
        assert not _within(self.draws(_no_phase_fix, self.columns(0), 1), 0.0)

    @pytest.mark.parametrize("n,q", [(2, 1), (4, 1)])
    def test_haar_row_success_averages_to_chance(self, n, q):
        # a bound-sweep haar row's success over 20,000 seeds; the last step
        # is Haar, so on average every label's outcome is uniform
        family = default_family(n)
        rngs = [np.random.default_rng(seed) for seed in range(self.DRAWS)]
        runs = _haar_runs(family, [[1] * q] * len(rngs), rngs)
        p = np.array([_label_success(cols) for cols, _ in runs])
        assert abs(p.mean() - 1 / n) <= 4 * p.std() / np.sqrt(len(p))

    def test_failed_isometry_check_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="isometry fails"):
            _isometries(_NanGenerator(), 1, 8, 2)

    @pytest.mark.parametrize(
        "n,exponents",
        [(2, ()), (4, (1,)), (8, (1, 1, 1)), (12, (1, -1, 2, 3, 5)), (16, (1,) * 9)],
    )
    def test_batched_run_keeps_the_seed_to_row_map(self, n, exponents):
        # haar, forward and schedule rows: one batched draw per run gives the
        # columns of q+1 successive single draws on the same generator
        family, layout = default_family(n), standard_layout(n)
        roots = _label_roots(range(n), n)
        for seed in range(3):
            steps = [reference.OneDraw(np.random.default_rng(seed))] * (len(exponents) + 1)
            start = _start(layout.total_dim, n)
            want = _evolve(start, steps, exponents, n, family.eigenstate, roots)
            got, _ = next(_haar_runs(family, [exponents], [np.random.default_rng(seed)]))
            assert np.array_equal(got, want)

    @staticmethod
    def schedules(trials, q):
        return [
            [int(m) for m in np.random.default_rng(t).choice([1, -1, 2, 3, 5], size=q)]
            for t in range(trials)
        ]

    @staticmethod
    def assert_trials_match(family, exponents, seeds):
        """Each trial of a batch, columns and spectra, equals its run on its
        own generator, bit for bit."""
        got = list(_haar_runs(family, exponents, [np.random.default_rng(s) for s in seeds]))
        assert len(got) == len(seeds)
        for (cols, spectra), e, s in zip(got, exponents, seeds):
            want, snaps = reference.haar_trial(family, e, np.random.default_rng(s))
            assert np.array_equal(cols, want)
            assert np.array_equal(spectra, np.array(snaps))

    @pytest.mark.parametrize("trials", [1, 3, 7])
    def test_each_trial_of_a_batch_is_its_own_run(self, trials):
        # forward and per-trial mixed schedules side by side
        family = default_family(12)
        self.assert_trials_match(family, [[1] * 4] * trials, range(trials))
        self.assert_trials_match(family, self.schedules(trials, 5), range(20, 20 + trials))

    def test_chunks_do_not_change_a_trial(self, monkeypatch):
        n, q, trials = 8, 3, 7
        sizes = []
        draw = simulate._haar_isometries

        def counted(rngs, count, dim, m):
            sizes.append(len(rngs))
            return draw(rngs, count, dim, m)

        monkeypatch.setattr(simulate, "_haar_isometries", counted)
        monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", 2 * (q + 1) * 4 * n * n)
        self.assert_trials_match(default_family(n), self.schedules(trials, q), range(trials))
        assert sizes == [2] * 3 + [1]

    def test_off_norm_trial_of_a_batch_raises_in_its_turn(self, monkeypatch):
        # trial 2's columns scaled by 1 + 1e-6 in the first step: its spectra
        # sum to ~1 + 2e-6, and the trials before it are read first
        apply = _IsometryStep.__matmul__
        planted = []

        def scaled(step, cols):
            out = apply(step, cols)
            if not planted:
                planted.append(True)
                out.reshape(out.shape[0], -1, 4)[:, 2] *= 1 + 1e-6
            return out

        monkeypatch.setattr(_IsometryStep, "__matmul__", scaled)
        rngs = [np.random.default_rng(s) for s in range(4)]
        runs = _haar_runs(default_family(4), [[1]] * 4, rngs)
        next(runs), next(runs)
        with pytest.raises(ValueError, match="snapshot 0 weights sum to 1.000002"):
            next(runs)

    def test_failed_isometry_check_raises_on_a_batched_run(self):
        # only the last step's draw is NaN: every V of the batch is checked
        class LastNan:
            def standard_normal(self, shape):
                g = np.random.default_rng(0).standard_normal(shape)
                g.flat[-1] = np.nan
                return g

        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="isometry fails"):
            list(_haar_runs(default_family(4), [[1, 1]], [LastNan()]))

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValueError, match="more columns than rows"):
            _haar_isometries([np.random.default_rng(0)], 1, 3, 4)
