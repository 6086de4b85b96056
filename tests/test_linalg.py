import re

import numpy as np
import pytest

import phaselab
import reference
from phaselab.experiments import adversarial_search
from phaselab.linalg import (
    RegisterLayout,
    StateVector,
    UnitaryMatrix,
    haar_random_unitary,
)
from phaselab.simulate import haar_random_algorithm
from reference import apply_to_registers, complete_orthonormal_basis, projection_norm_sq, zero_state

QUBIT = RegisterLayout((2,))
TWO_QUBITS = RegisterLayout((2, 2))


def ket(layout, amps):
    return StateVector(layout, np.asarray(amps, dtype=complex))


def basis_state(layout, values):
    """Computational basis state with one index per register."""
    amps = np.zeros(layout.dims, dtype=complex)
    amps[tuple(values)] = 1.0
    return ket(layout, amps.reshape(-1))


class TestLayout:
    def test_total_dim_is_product(self):
        layout = RegisterLayout((4, 2, 3))
        assert layout.total_dim == 24
        assert layout.dims == (4, 2, 3)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout((0,))

    def test_labelled_form_rejected(self):
        # a register is its position: a (label, dimension) pair is not a dimension
        with pytest.raises(ValueError, match=re.escape("must be an integer, got ('O', 4)")):
            RegisterLayout((("O", 4), ("B", 2), ("W", 3)))

    @pytest.mark.parametrize("dim", [2.5, True, "3"])
    def test_non_integer_dimension_rejected(self, dim):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {dim!r}")):
            RegisterLayout((dim,))

    def test_numpy_integer_dimension_accepted(self):
        layout = RegisterLayout((np.int64(3),))
        assert layout.dims == (3,) and type(layout.dims[0]) is int

    def test_haar_algorithm_size_must_be_an_integer(self):
        with pytest.raises(ValueError, match="must be an integer, got 4.5"):
            haar_random_algorithm(4.5, 1, 0)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            ket(QUBIT, [1.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ket(QUBIT, [np.nan, 0.0])

    def test_amps_are_read_only(self):
        s = zero_state(QUBIT)
        with pytest.raises(ValueError):
            s.amps[0] = 0.5
        # a 2-d input is flattened into a vector that owns its memory, so no
        # writeable array is left behind it
        assert ket(QUBIT, [[1.0], [0.0]]).amps.base is None


X = UnitaryMatrix(np.array([[0, 1], [1, 0]], dtype=complex))


class TestApply:
    def test_swap_on_first_register(self):
        out = apply_to_registers(zero_state(TWO_QUBITS), X, [0])
        np.testing.assert_allclose(out.amps, basis_state(TWO_QUBITS, [1, 0]).amps)

    def test_identity_unchanged(self):
        eye = UnitaryMatrix(np.eye(2))
        s = ket(TWO_QUBITS, np.array([0.5, 0.5, 0.5, 0.5]))
        out = apply_to_registers(s, eye, [1])
        np.testing.assert_allclose(out.amps, s.amps)

    def test_unitary_then_adjoint_roundtrip(self):
        u = haar_random_unitary(4, seed=3)
        s = ket(TWO_QUBITS, np.array([0.5, 0.5j, -0.5, 0.5j]))
        back = apply_to_registers(apply_to_registers(s, u, [0, 1]), u.adjoint, [0, 1])
        assert np.max(np.abs(back.amps - s.amps)) < 1e-12

    def test_target_order_matters(self):
        # CX with control listed first vs swapped target order
        cx = UnitaryMatrix(
            np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        )
        s = basis_state(TWO_QUBITS, [1, 0])
        flipped = apply_to_registers(s, cx, [0, 1])
        np.testing.assert_allclose(flipped.amps, basis_state(TWO_QUBITS, [1, 1]).amps)
        untouched = apply_to_registers(basis_state(TWO_QUBITS, [0, 1]), cx, [1, 0])
        np.testing.assert_allclose(untouched.amps, basis_state(TWO_QUBITS, [1, 1]).amps)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_to_registers(zero_state(TWO_QUBITS), X, [0, 1])

    def test_norm_preserved_for_random_unitaries(self):
        layout = RegisterLayout((3, 4))
        rng = np.random.default_rng(17)
        for trial in range(25):
            amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            s = ket(layout, amps / np.linalg.norm(amps))
            u = haar_random_unitary(4, rng)
            out = apply_to_registers(s, u, [1])
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-9


class TestProjection:
    def test_basis_state_weight(self):
        assert projection_norm_sq(zero_state(QUBIT), 0, 0) == pytest.approx(1.0)

    def test_uniform_case(self):
        plus = ket(QUBIT, np.array([1, 1]) / np.sqrt(2))
        assert projection_norm_sq(plus, 0, 1) == pytest.approx(0.5)

    def test_completeness_sums_to_one(self):
        layout = RegisterLayout((3, 5))
        rng = np.random.default_rng(23)
        amps = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        s = ket(layout, amps / np.linalg.norm(amps))
        for axis, dim in enumerate(layout.dims):
            total = sum(projection_norm_sq(s, axis, v) for v in range(dim))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range_value(self):
        with pytest.raises(IndexError):
            projection_norm_sq(zero_state(QUBIT), 0, 2)


def qr_completion(u):
    """The Gram-Schmidt completion of a unit seed as one QR: the seed, then
    every basis vector but the one at the seed's last nonzero index, each
    column of Q turned by the phase of its R diagonal entry so that every
    residual norm is positive. For seeds with no residual in (0, 1e-8)."""
    u = np.asarray(u, dtype=np.complex128)
    candidates = np.delete(np.eye(len(u)), np.flatnonzero(u)[-1], axis=1)
    q, r = np.linalg.qr(np.column_stack([u, candidates]))
    d = np.diagonal(r)
    return (q * (d / np.abs(d))).T


class TestBasisCompletion:
    """The reference's Gram-Schmidt completion, which the dense reference
    circuits start from and the oracle tests read an eigenstate's complement
    off."""

    def test_e0_completes_to_identity(self):
        basis = complete_orthonormal_basis([1, 0])
        np.testing.assert_allclose(basis, np.eye(2), atol=1e-12)

    def test_hadamard_direction_gram_matrix(self):
        u = np.array([1, 1]) / np.sqrt(2)
        basis = complete_orthonormal_basis(u)
        gram = basis @ basis.conj().T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(basis[0], u)

    def test_first_vector_preserved_and_orthonormal(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 7, 16):
            u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            u /= np.linalg.norm(u)
            basis = complete_orthonormal_basis(u)
            assert basis.shape == (dim, dim)
            np.testing.assert_allclose(basis[0], u, atol=1e-12)
            gram = basis @ basis.conj().T
            assert np.max(np.abs(gram - np.eye(dim))) < 1e-10

    def test_deterministic(self):
        u = np.array([1, 1j, 1]) / np.sqrt(3)
        b1 = complete_orthonormal_basis(u)
        b2 = complete_orthonormal_basis(u)
        np.testing.assert_array_equal(b1, b2)

    @pytest.mark.parametrize("dim", [1, 2, 5, 24, 96])
    def test_matches_one_row_at_a_time_reference(self, dim):
        # seeds that skip a candidate (e_k, a truncated uniform vector) and a
        # generic one; the loop and the QR differ only in rounding
        rng = np.random.default_rng(dim)
        generic = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        truncated = np.zeros(dim)
        truncated[: (dim + 1) // 2] = 1.0
        for u in (np.eye(dim)[dim // 2], truncated, generic):
            u = u / np.linalg.norm(u)
            np.testing.assert_allclose(
                complete_orthonormal_basis(u), qr_completion(u), rtol=0, atol=1e-12
            )

    @staticmethod
    def assert_orthonormal_completion(u):
        basis = complete_orthonormal_basis(u)
        gram = basis @ basis.conj().T
        np.testing.assert_allclose(gram, np.eye(len(basis)), rtol=0, atol=1e-12)
        # row 0 is the seed bit for bit: it is the start the dense circuits take
        np.testing.assert_array_equal(basis[0], np.asarray(u, dtype=np.complex128))
        return basis

    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_last_basis_vector(self, dim):
        # the one skipped candidate is e_{dim-1} itself
        basis = self.assert_orthonormal_completion(np.eye(dim)[dim - 1])
        np.testing.assert_array_equal(np.abs(basis[1:, :-1]), np.eye(dim - 1))

    def test_support_in_the_middle(self):
        u = np.zeros(9, dtype=np.complex128)
        u[3:6] = [0.6, 0.0, 0.8j]
        self.assert_orthonormal_completion(u)

    @pytest.mark.parametrize("eps, skipped", [(1e-9, True), (1e-7, False)])
    def test_tail_below_the_residual_tolerance_is_skipped(self, eps, skipped):
        # e_2's residual against span(u, e_0, e_1) is about eps: below 1e-8
        # e_2 is skipped and row 3 lies along e_3, above it row 3 is e_2's
        # residual, which lies along the tail
        u = np.zeros(6, dtype=np.complex128)
        u[2] = 1.0
        u[3:] = eps / np.sqrt(3)
        basis = self.assert_orthonormal_completion(u / np.linalg.norm(u))
        expected = 1.0 if skipped else 1 / np.sqrt(3)
        assert abs(basis[3, 3]) == pytest.approx(expected, abs=1e-6)

    def test_dim_one(self):
        basis = self.assert_orthonormal_completion([1j])
        assert basis.shape == (1, 1)

    def test_wide_register_truncated_target(self):
        u = np.zeros(256)
        u[:64] = 1 / 8
        basis = self.assert_orthonormal_completion(u)
        assert np.max(np.abs(basis @ basis.conj().T - np.eye(256))) < 1e-12

    def test_non_unit_input_rejected(self):
        with pytest.raises(ValueError):
            complete_orthonormal_basis([1, 1])
        with pytest.raises(ValueError):
            complete_orthonormal_basis([0, 0])

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError, match="seed vector norm"):
            complete_orthonormal_basis([np.nan, 0])


class TestHaar:
    def test_dim1_is_unit_modulus(self):
        u = haar_random_unitary(1, seed=0)
        assert abs(abs(u.matrix[0, 0]) - 1.0) < 1e-12

    def test_same_seed_same_matrix(self):
        a = haar_random_unitary(6, seed=42)
        b = haar_random_unitary(6, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self):
        a = haar_random_unitary(6, seed=42)
        b = haar_random_unitary(6, seed=43)
        assert np.max(np.abs(a.matrix - b.matrix)) > 1e-3

    def test_unitarity_dim8(self):
        u = haar_random_unitary(8, seed=7).matrix
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-9)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            haar_random_unitary(0, seed=1)

    @pytest.mark.parametrize("dim", [1, 2, 7, 64, 256])
    @pytest.mark.parametrize("seed", range(3))
    def test_seed_to_matrix_map_is_the_reference_formula(self, dim, seed):
        # three successive draws on one generator, bit for bit, and the
        # generator left where the formula leaves it
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = haar_random_unitary(dim, rng).matrix
            want = reference.haar_unitary(dim, ref_rng)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class _NanGaussians(np.random.Generator):
    def standard_normal(self, *args, **kwargs):
        return np.full_like(super().standard_normal(*args, **kwargs), np.nan)


_DENSE_ROUTES = {
    "haar_random_unitary": lambda rng: haar_random_unitary(8, rng),
    "haar_random_algorithm": lambda rng: haar_random_algorithm(2, 1, rng),
    "adversarial_search": lambda rng: adversarial_search(2, 1, iterations=1, seed=rng),
}


class TestDenseDrawCheck:
    """A failing dense draw raises on every route that draws one."""

    @pytest.mark.parametrize("route", sorted(_DENSE_ROUTES))
    def test_non_unitary_draw_raises(self, route, monkeypatch):
        qr = np.linalg.qr

        def scaled_qr(a, *args, **kwargs):
            v, r = qr(a, *args, **kwargs)
            return v * (1 + 1e-6), r

        monkeypatch.setattr(np.linalg, "qr", scaled_qr)
        with pytest.raises(ValueError, match=r"max \|V†V - I\| = 2\.0+e-06"):
            _DENSE_ROUTES[route](np.random.default_rng(0))

    @pytest.mark.parametrize("route", sorted(_DENSE_ROUTES))
    def test_nan_draw_raises(self, route):
        rng = _NanGaussians(np.random.PCG64(0))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"max \|V†V - I\| = nan"):
            _DENSE_ROUTES[route](rng)


class TestUnitaryMatrix:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(np.ones((2, 3)))

    def test_empty_matrix_rejected_by_the_shape_check(self):
        # square, but with no entries to check: rejected before the
        # unitarity check, naming the shape
        with pytest.raises(ValueError, match=re.escape("square matrix, got shape (0, 0)")):
            UnitaryMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1j * np.inf, 1e200],
                             ids=["nan", "inf", "imaginary-inf", "overflow"])
    def test_non_finite_fails_the_unitarity_check(self, entry):
        # one deviation rule: NaN and Inf fail it as any other deviation does,
        # without a warning on the way
        mat = np.eye(3, dtype=complex)
        mat[1, 2] = entry
        with pytest.raises(ValueError, match=r"max \|U†U - I\| = (nan|inf)$"):
            UnitaryMatrix(mat)

    def test_matrix_is_read_only(self):
        assert not UnitaryMatrix(np.eye(3)).matrix.flags.writeable
        assert not haar_random_unitary(4, seed=0).matrix.flags.writeable
        for step in haar_random_algorithm(2, 2, seed=0).steps:
            (u,) = step.factors
            assert not u.matrix.flags.writeable

    def test_haar_matrix_owner_is_read_only(self):
        # the trusted wrapper views the drawn array; writing through its
        # owner would change a checked unitary
        assert not haar_random_unitary(4, seed=0).matrix.base.flags.writeable
        for step in haar_random_algorithm(3, 2, seed=0).steps:
            (u,) = step.factors
            assert not u.matrix.base.flags.writeable

    def test_public_constructor_copies(self):
        src = np.eye(2, dtype=np.complex128)
        u = UnitaryMatrix(src)
        src[0, 0] = -1.0
        assert src.flags.writeable
        np.testing.assert_array_equal(u.matrix, np.eye(2))

    def test_trusted_constructor_is_not_public(self):
        assert not [name for name in phaselab.__all__ if name.startswith("_")]


def test_cauchy_schwarz_vector_bound():
    # ||sum a_i psi_i||^2 <= sum |a_i|^2 * sum ||psi_i||^2, random instances
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 8))
        alphas = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        vecs = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        lhs = np.linalg.norm(alphas @ vecs) ** 2
        rhs = np.sum(np.abs(alphas) ** 2) * np.sum(np.linalg.norm(vecs, axis=1) ** 2)
        assert lhs <= rhs + 1e-9
