import dataclasses
import re

import numpy as np
import pytest

from phaselab.fourier import qft_matrix
from phaselab.linalg import (
    RegisterLayout,
    StateVector,
    haar_random_unitary,
)
from phaselab.oracles import (
    FORWARD,
    PhaseInstance,
    PhaseOracleFamily,
    coherent_controlled_u,
    default_family,
)
import reference
from reference import apply_to_registers, complete_orthonormal_basis, controlled_phase


def controlled(family, y, exponent=FORWARD):
    """Controlled member y on (B, W): the C = y block of
    ``coherent_controlled_u(family, exponent)``."""
    n = family.n
    return coherent_controlled_u(family, exponent).matrix[y::n, y::n]


def member(family, y):
    """Family member y: the B = 1 block of ``controlled(family, y)``."""
    d = family.work_dim
    return controlled(family, y)[d:, d:]


def phase_block(inst):
    """The continuous-phase unitary: the B = 1 block of the reference's
    controlled phase."""
    d = inst.work_dim
    return controlled_phase(inst, FORWARD).matrix[d:, d:]


class TestFamilyConstruction:
    def test_default_family_shape(self):
        fam = default_family(4)
        assert fam.n == 4 and fam.work_dim == 2
        np.testing.assert_allclose(fam.eigenstate, [1, 0])

    def test_from_arbitrary_eigenstate(self):
        u = np.array([1, 1j, 0, 1]) / np.sqrt(3)
        fam = PhaseOracleFamily(6, u)
        np.testing.assert_allclose(fam.eigenstate, u, atol=1e-12)
        assert fam.work_dim == 4

    def test_non_unit_eigenstate_rejected(self):
        with pytest.raises(ValueError):
            PhaseOracleFamily(4, [1, 1])

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {n!r}")):
            PhaseOracleFamily(n, [1, 0])

    def test_numpy_integer_size_accepted(self):
        fam = PhaseOracleFamily(np.int64(4), [1, 0])
        assert fam.n == 4 and type(fam.n) is int

    @pytest.mark.parametrize("work_dim", [0, -1, True, 2.5, "2"])
    def test_default_family_work_dim_must_be_a_positive_integer(self, work_dim):
        got = re.escape(repr(work_dim))
        with pytest.raises(ValueError, match=f"work dimension must be .*, got {got}"):
            default_family(4, work_dim)

    def test_default_family_is_cached(self):
        fam = default_family(4)
        assert default_family(4) is fam
        assert default_family(np.int64(4), 2) is fam
        assert default_family(4, 3) is not fam
        assert default_family(4, 3) is default_family(4, 3)
        # shared, so it must be immutable: frozen fields, read-only eigenstate
        assert not fam.eigenstate.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fam.eigenstate[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.n = 5

    def test_default_family_numpy_work_dim_accepted(self):
        fam = default_family(4, np.int64(3))
        assert fam.work_dim == 3
        np.testing.assert_array_equal(fam.eigenstate, [1, 0, 0])


class TestMemberMatrix:
    def test_label_zero_is_identity(self):
        fam = default_family(5, work_dim=3)
        np.testing.assert_allclose(member(fam, 0), np.eye(3), atol=1e-12)

    def test_n4_y1_diagonal(self):
        # w_4 = i on the eigenstate e_0, identity on e_1
        fam = default_family(4)
        np.testing.assert_allclose(member(fam, 1), np.diag([1j, 1]), atol=1e-12)

    @pytest.mark.parametrize("n,y", [(3, 1), (5, 2), (8, 7)])
    def test_nth_power_is_identity(self, n, y):
        mat = member(default_family(n), y)
        np.testing.assert_allclose(np.linalg.matrix_power(mat, n), np.eye(2), atol=1e-9)

    def test_eigenstructure(self):
        # one eigenvalue w^y, the rest exactly 1
        rng = np.random.default_rng(2)
        eig = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        eig /= np.linalg.norm(eig)
        fam = PhaseOracleFamily(6, eig)
        mat = member(fam, 2)
        np.testing.assert_allclose(mat @ eig, np.exp(2j * np.pi * 2 / 6) * eig, atol=1e-10)
        vals = np.sort_complex(np.linalg.eigvals(mat))
        expected = np.sort_complex(np.array([np.exp(2j * np.pi * 2 / 6), 1, 1, 1]))
        np.testing.assert_allclose(vals, expected, atol=1e-9)
        complement = complete_orthonormal_basis(eig)[1:].T
        np.testing.assert_allclose(mat @ complement, complement, atol=1e-10)

    def test_family_members_commute(self):
        fam = PhaseOracleFamily(5, np.array([1, 1, 1]) / np.sqrt(3))
        mats = [member(fam, y) for y in range(5)]
        for a in mats:
            for b in mats:
                assert np.max(np.abs(a @ b - b @ a)) < 1e-10


class TestControlled:
    def test_control_zero_acts_as_identity(self):
        fam = default_family(4)
        cu = controlled(fam, 3)
        np.testing.assert_allclose(cu[:2, :2], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(cu[:2, 2:], 0, atol=1e-12)

    def test_inverse_composes_to_identity(self):
        fam = default_family(8)
        fwd = controlled(fam, 5, FORWARD)
        inv = controlled(fam, 5, -1)
        np.testing.assert_allclose(inv @ fwd, np.eye(4), atol=1e-10)

    def test_power3_matches_matrix_power(self):
        fam = default_family(8)
        cu = controlled(fam, 3, 3)
        expected = np.linalg.matrix_power(member(fam, 3), 3)
        np.testing.assert_allclose(cu[2:, 2:], expected, atol=1e-10)

    def test_exponent_reduced_mod_n(self):
        fam = default_family(6)
        a = controlled(fam, 2, 7)
        b = controlled(fam, 2, 1)
        np.testing.assert_allclose(a, b, atol=1e-12)


def coherent_input(n, control, work, k, work_dim=2):
    """|control>|work>|fourier k> on the (B, W, C) layout of the coherent oracle."""
    layout = RegisterLayout((2, work_dim, n))
    b = np.zeros(2, dtype=complex)
    b[control] = 1.0
    amps = np.kron(np.kron(b, work), qft_matrix(n).matrix[:, k])
    return StateVector(layout, amps)


class TestCoherent:
    def test_increments_fourier_counter(self):
        n = 6
        fam = default_family(n)
        um = coherent_controlled_u(fam)
        for k in range(n):
            state = coherent_input(n, 1, fam.eigenstate, k)
            out = apply_to_registers(state, um, [0, 1, 2])
            expected = coherent_input(n, 1, fam.eigenstate, (k + 1) % n)
            np.testing.assert_allclose(out.amps, expected.amps, atol=1e-10)

    def test_control_zero_unchanged(self):
        n = 5
        fam = default_family(n)
        um = coherent_controlled_u(fam)
        state = coherent_input(n, 0, np.array([0.6, 0.8]), 2)
        out = apply_to_registers(state, um, [0, 1, 2])
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_orthogonal_work_unchanged(self):
        n = 5
        fam = default_family(n)
        um = coherent_controlled_u(fam)
        state = coherent_input(n, 1, np.array([0.0, 1.0]), 3)  # e_1 is orthogonal to u
        out = apply_to_registers(state, um, [0, 1, 2])
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5, -1])
    def test_counter_arithmetic_for_powers(self, m):
        n = 8
        fam = default_family(n)
        um = coherent_controlled_u(fam, m)
        for k in range(n):
            state = coherent_input(n, 1, fam.eigenstate, k)
            out = apply_to_registers(state, um, [0, 1, 2])
            expected = coherent_input(n, 1, fam.eigenstate, (k + m) % n)
            np.testing.assert_allclose(out.amps, expected.amps, atol=1e-10)

    @pytest.mark.parametrize("exponent", [0.5, 1.5, True, "1"])
    def test_exponent_must_be_an_integer(self, exponent):
        with pytest.raises(
            ValueError, match=re.escape(f"query exponent must be an integer, got {exponent!r}")
        ):
            coherent_controlled_u(default_family(4), exponent)

    def test_numpy_exponent_accepted(self):
        fam = default_family(4)
        np.testing.assert_array_equal(
            coherent_controlled_u(fam, np.int64(-1)).matrix, coherent_controlled_u(fam, -1).matrix
        )

    def test_block_structure_matches_controlled(self):
        # the reference builds the same matrix label by label, C block y being
        # label y's controlled member; 2**70 + 1 overflows int64 unless the
        # exponent is reduced mod n first
        rng = np.random.default_rng(29)
        for n in (1, 2, 3, 7, 16, 64):
            for work_dim in (1, 2, 3):
                v = rng.standard_normal(work_dim) + 1j * rng.standard_normal(work_dim)
                random = PhaseOracleFamily(n, v / np.linalg.norm(v))
                for fam in (default_family(n, work_dim), random):
                    for exponent in (-1, 0, 1, 2, 3, 17, 2**70 + 1):
                        got = coherent_controlled_u(fam, exponent).matrix
                        want = reference.coherent_controlled_u(fam, exponent).matrix
                        gap = np.max(np.abs(got - want))
                        assert gap <= 1e-15, (n, work_dim, fam.eigenstate, exponent, gap)


class TestPhaseUnitary:
    """The continuous-phase unitary that the reference's fixed-phase run applies."""

    def test_theta_zero_identity(self):
        inst = PhaseInstance(theta=0.0, eigenstate=np.array([1, 0]))
        np.testing.assert_allclose(phase_block(inst), np.eye(2), atol=1e-12)

    def test_half_turn(self):
        inst = PhaseInstance(theta=0.5, eigenstate=np.array([1, 0]))
        np.testing.assert_allclose(phase_block(inst), np.diag([-1, 1]), atol=1e-12)

    @pytest.mark.parametrize("n,y", [(4, 1), (8, 3), (5, 4)])
    def test_grid_phase_matches_family_member(self, n, y):
        fam = default_family(n)
        inst = PhaseInstance(theta=y / n, eigenstate=fam.eigenstate)
        np.testing.assert_allclose(phase_block(inst), member(fam, y), atol=1e-12)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            PhaseInstance(theta=1.0, eigenstate=np.array([1, 0]))

    @pytest.mark.parametrize("theta", ["0.5", None, False, 0.5j])
    def test_theta_must_be_real(self, theta):
        with pytest.raises(ValueError, match=re.escape(f"theta must be a real number, got {theta!r}")):
            PhaseInstance(theta, [1, 0])

    @pytest.mark.parametrize("theta", [np.float32(0.25), np.int64(0), 0])
    def test_theta_stored_as_float(self, theta):
        inst = PhaseInstance(theta, [1, 0])
        assert type(inst.theta) is float and inst.theta == float(theta)

    def test_random_eigenstate_eigenrelation(self):
        rng = np.random.default_rng(12)
        v = haar_random_unitary(3, rng).matrix[:, 0]
        inst = PhaseInstance(theta=0.77, eigenstate=v)
        out = phase_block(inst) @ v
        np.testing.assert_allclose(out, np.exp(2j * np.pi * 0.77) * v, atol=1e-10)
