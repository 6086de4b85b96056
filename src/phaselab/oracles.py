"""Phase oracle families: grid phases, controlled/coherent/power variants.

A family over modulus n is a set of n commuting unitaries sharing one
eigenstate u: member y multiplies u by w^y (w the n-th root of unity) and
fixes the orthogonal complement pointwise. The coherent version drives the
member choice from a counter register held in superposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import UnitaryMatrix, _integer, _unit_vector


# The power of the oracle a plain forward query applies.
FORWARD = 1


@dataclass(frozen=True, eq=False)
class PhaseOracleFamily:
    """The n oracles over a work space of dimension D with shared eigenstate:
    member y multiplies the eigenstate by w^y and fixes its complement."""

    n: int
    eigenstate: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "number of phases", 1))
        object.__setattr__(self, "eigenstate", _unit_vector(self.eigenstate, "eigenstate"))

    @property
    def work_dim(self) -> int:
        return self.eigenstate.shape[0]


def default_family(n: int, work_dim: int = 2) -> PhaseOracleFamily:
    """Smallest faithful family: eigenstate e_0 on a dim-``work_dim`` space."""
    eig = np.zeros(work_dim, dtype=np.complex128)
    eig[0] = 1.0
    return PhaseOracleFamily(n, eig)


@dataclass(frozen=True, eq=False)
class PhaseInstance:
    """A single unitary with eigenphase theta in [0, 1) on its eigenstate."""

    theta: float
    eigenstate: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"theta must lie in [0, 1), got {self.theta}")
        object.__setattr__(self, "eigenstate", _unit_vector(self.eigenstate, "eigenstate"))

    @property
    def work_dim(self) -> int:
        return self.eigenstate.shape[0]


def _member_matrix(family: PhaseOracleFamily, phase_power: int) -> np.ndarray:
    """I + (w^phase_power - 1)|u><u|: w^phase_power on the eigenstate u,
    identity on its complement."""
    u = family.eigenstate
    phase = np.exp(2j * np.pi * (phase_power / family.n))
    return np.eye(len(u), dtype=np.complex128) + (phase - 1) * np.outer(u, u.conj())


def controlled_u(family: PhaseOracleFamily, y: int, exponent: int = FORWARD) -> UnitaryMatrix:
    """Controlled member y on (control qubit, work): |0><0| I + |1><1| U_y^m
    for m = ``exponent``.

    The exponent is reduced modulo n first, since U_y^n is the identity.
    """
    y, exponent = _integer(y, "label"), _integer(exponent, "query exponent")
    if not 0 <= y < family.n:
        raise IndexError(f"label {y} out of range for {family.n} phases")
    d = family.work_dim
    block = np.eye(2 * d, dtype=np.complex128)
    block[d:, d:] = _member_matrix(family, (y * exponent) % family.n)
    return UnitaryMatrix(block)


def coherent_controlled_u(family: PhaseOracleFamily, exponent: int = FORWARD) -> UnitaryMatrix:
    """Coherent oracle on (control, work, counter): applies member y when the
    counter register holds computational value y, raised to ``exponent``.

    Register order is (control qubit, work dim D, counter dim n), control
    most significant, matching the simulator convention.
    """
    exponent = _integer(exponent, "query exponent")
    n, d = family.n, family.work_dim
    dim = 2 * d * n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for y in range(n):
        mat[y::n, y::n] = controlled_u(family, y, exponent).matrix
    return UnitaryMatrix(mat)
