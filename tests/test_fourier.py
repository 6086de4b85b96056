import re

import numpy as np
import pytest

from phaselab import fourier
from phaselab.fourier import fourier_weights, qft_matrix
from phaselab.linalg import RegisterLayout, StateVector, haar_random_unitary
from reference import apply_to_registers


def fourier_state(n, y):
    """Fourier basis state of index y on one register: column y of F."""
    return StateVector(RegisterLayout((n,)), qft_matrix(n).matrix[:, y])


class TestQftMatrix:
    def test_n1_identity(self):
        np.testing.assert_allclose(qft_matrix(1).matrix, [[1.0]])

    def test_n2_is_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(qft_matrix(2).matrix, h, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_round_trip(self, n):
        f = qft_matrix(n).matrix
        np.testing.assert_allclose(f.conj().T @ f, np.eye(n), atol=1e-10)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_unitary_to_roundoff_at_large_n(self, n):
        # entries w^(y*k) with y*k reduced mod n, as every query's root: the
        # unreduced angle 2 pi y k / n loses ~1e-14 at n = 1024
        f = qft_matrix(n).matrix
        assert np.max(np.abs(f.conj().T @ f - np.eye(n))) <= 2e-15

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_columns_are_fourier_states(self, n):
        # column y evaluated directly: w^(y*k)/sqrt(n) at k
        f = qft_matrix(n).matrix
        for y in range(n):
            direct = np.exp(2j * np.pi * y * np.arange(n) / n) / np.sqrt(n)
            np.testing.assert_allclose(f[:, y], direct, atol=1e-12)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            qft_matrix(0)

    @pytest.mark.parametrize("n", [2.5, True, "3", 2.0])
    def test_non_integer_dimension_rejected(self, n):
        qft_matrix(1), qft_matrix(2)  # cached sizes that True and 2.0 compare equal to
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {n!r}")):
            qft_matrix(n)

    def test_numpy_integer_dimension_accepted(self):
        np.testing.assert_array_equal(qft_matrix(np.int64(4)).matrix, qft_matrix(4).matrix)

    def test_adjoint_is_built_and_checked_once_per_n(self):
        assert qft_matrix(8).adjoint is qft_matrix(8).adjoint
        np.testing.assert_allclose(qft_matrix(8).adjoint.matrix, qft_matrix(8).matrix.conj().T)

    def test_cache_is_bounded_and_evicts(self):
        cache = fourier._qft_matrix  # the lru_cache behind the integer rule
        size = cache.cache_info().maxsize
        assert size is not None and size >= 25  # the 2..24 scan and two curve sizes
        cache.cache_clear()
        first = qft_matrix(1)
        for n in range(2, size + 2):
            qft_matrix(n)
        assert cache.cache_info().currsize == size
        misses = cache.cache_info().misses
        assert qft_matrix(size + 1) is qft_matrix(size + 1)  # still cached
        assert qft_matrix(1) is not first  # the oldest size was evicted and is rebuilt
        assert cache.cache_info().misses == misses + 1


class TestFourierState:
    """The Fourier basis states are the columns F[:, y] of ``qft_matrix``."""

    def test_zero_frequency_is_uniform(self):
        np.testing.assert_allclose(
            qft_matrix(5).matrix[:, 0], np.full(5, 1 / np.sqrt(5)), atol=1e-12
        )

    def test_n4_y2_alternating_signs(self):
        # direct evaluation: w_4^(2k) = (-1)^k
        np.testing.assert_allclose(
            qft_matrix(4).matrix[:, 2], np.array([1, -1, 1, -1]) / 2, atol=1e-12
        )

    def test_orthonormal_family(self):
        n = 6
        f = qft_matrix(n).matrix
        for a in range(n):
            for b in range(n):
                ip = np.vdot(f[:, a], f[:, b])
                assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


class TestConjugateState:
    """conj(F[:, y]) is the Fourier state of index (n - y) mod n."""

    def test_zero_index_is_real(self):
        f = qft_matrix(7).matrix
        np.testing.assert_allclose(f[:, 0].conj(), f[:, 0], atol=1e-12)

    def test_conjugation_negates_index(self):
        f = qft_matrix(4).matrix
        np.testing.assert_allclose(f[:, 1].conj(), f[:, 3], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_equals_negated_index_everywhere(self, n):
        f = qft_matrix(n).matrix
        for y in range(n):
            np.testing.assert_allclose(f[:, y].conj(), f[:, (n - y) % n], atol=1e-12)

    @pytest.mark.parametrize("n,y", [(3, 1), (5, 2), (8, 5)])
    def test_qft_maps_conjugate_to_computational(self, n, y):
        f = qft_matrix(n).matrix
        np.testing.assert_allclose(f @ f[:, y].conj(), np.eye(n)[y], atol=1e-10)


def two_register_state(n, pairs):
    """Unnormalized sum of |a> x |fourier k> terms, then normalized."""
    layout = RegisterLayout((2, n))
    amps = np.zeros(2 * n, dtype=complex)
    for a, k, coeff in pairs:
        amps[a * n : (a + 1) * n] += coeff * fourier_state(n, k).amps
    amps /= np.linalg.norm(amps)
    return StateVector(layout, amps)


class TestFourierWeights:
    def test_pure_fourier_index(self):
        s = fourier_state(8, 3)
        w = fourier_weights(s, 0)
        expected = np.zeros(8)
        expected[3] = 1.0
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_uniform_superposition_is_zero_index(self):
        layout = RegisterLayout((6,))
        s = StateVector(layout, np.full(6, 1 / np.sqrt(6)))
        w = fourier_weights(s, 0)
        assert w[0] == pytest.approx(1.0, abs=1e-12)

    def test_entangled_half_half(self):
        # (|0>|f1> + |1>|f2>)/sqrt(2): marginal puts 0.5 on each index
        s = two_register_state(5, [(0, 1, 1.0), (1, 2, 1.0)])
        w = fourier_weights(s, 1)
        np.testing.assert_allclose(w[[1, 2]], [0.5, 0.5], atol=1e-10)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_weights_sum_to_one_random(self):
        rng = np.random.default_rng(9)
        layout = RegisterLayout((3, 4))
        amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        s = StateVector(layout, amps / np.linalg.norm(amps))
        assert fourier_weights(s, 1).sum() == pytest.approx(1.0, abs=1e-9)

    def test_negative_position_counts_from_the_end(self):
        s = two_register_state(5, [(0, 1, 1.0), (1, 2, 0.5j)])
        assert np.array_equal(fourier_weights(s, -1), fourier_weights(s, 1))
        assert np.array_equal(fourier_weights(s, -2), fourier_weights(s, 0))
        assert not np.allclose(fourier_weights(s, 0)[:2], fourier_weights(s, 1)[:2])

    @pytest.mark.parametrize("register", ["C", 1.5, True, None])
    def test_register_must_be_a_position(self, register):
        # a register is its position; a label or a non-integer names no register
        s = two_register_state(4, [(0, 1, 1.0)])
        message = f"register position must be an integer, got {register!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fourier_weights(s, register)

    @pytest.mark.parametrize("register", [2, 7, -3])
    def test_out_of_range_position_rejected(self, register):
        # numpy's AxisError is a ValueError
        with pytest.raises(ValueError, match=f"axis {register} is out of bounds"):
            fourier_weights(two_register_state(4, [(0, 1, 1.0)]), register)

    def test_invariant_under_unitaries_elsewhere(self):
        rng = np.random.default_rng(31)
        layout = RegisterLayout((4, 5))
        amps = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        s = StateVector(layout, amps / np.linalg.norm(amps))
        before = fourier_weights(s, 1)
        for _ in range(10):
            u = haar_random_unitary(4, rng)
            after = fourier_weights(apply_to_registers(s, u, [0]), 1)
            assert np.max(np.abs(after - before)) < 1e-10

    def test_does_not_mutate_input(self):
        s = fourier_state(4, 1)
        snapshot = s.amps.copy()
        fourier_weights(s, 0)
        np.testing.assert_array_equal(s.amps, snapshot)
