"""Phase oracle families over a grid of n phases, and their one dense oracle.

A family over modulus n is a set of n commuting unitaries sharing one
eigenstate u: member y multiplies u by w^y (w the n-th root of unity) and
fixes the orthogonal complement pointwise. ``_label_roots`` is the one
root-of-unity rule w^(y*m): the simulator applies members by it without
building them, every Fourier matrix takes its entries from it, and so does
``coherent_controlled_u``, the dense oracle driven by a counter register.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import UnitaryMatrix, _integer, _real, _unit_vector


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
    """Smallest faithful family: eigenstate e_0 on a dim-``work_dim`` space,
    one cached value per (n, work_dim); the family is frozen and its
    eigenstate read-only, so callers share it."""
    n, work_dim = _integer(n, "number of phases", 1), _integer(work_dim, "work dimension", 1)
    return _default_family(n, work_dim)


@lru_cache(maxsize=64)
def _default_family(n: int, work_dim: int) -> PhaseOracleFamily:
    return PhaseOracleFamily(n, np.eye(1, work_dim))


@dataclass(frozen=True, eq=False)
class PhaseInstance:
    """A single unitary with eigenphase theta in [0, 1) on its eigenstate."""

    theta: float
    eigenstate: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _real(self.theta, "theta"))
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"theta must lie in [0, 1), got {self.theta}")
        object.__setattr__(self, "eigenstate", _unit_vector(self.eigenstate, "eigenstate"))

    @property
    def work_dim(self) -> int:
        return self.eigenstate.shape[0]


def _label_roots(labels, n):
    """The roots of unity w^(labels*m), w = e^(2 pi i/n), for m an int or one
    int per column, m and y * m reduced mod n so the product cannot overflow
    and the angle stays below 2 pi; ``n`` is the family size or an array of
    per-column denominators, against which |m| >= 2**63 raises ``OverflowError``."""
    labels = np.asarray(labels)
    return lambda m: np.exp(2j * np.pi * (labels * (m % n) % n / n))


def coherent_controlled_u(family: PhaseOracleFamily, exponent: int = FORWARD) -> UnitaryMatrix:
    """Coherent oracle on (control, work, counter): applies member y when the
    counter register holds computational value y, raised to ``exponent``.

    Register order is (control qubit, work dim D, counter dim n), control
    most significant, matching the simulator convention. The B = 1 block is
    I + |u><u| ⊗ diag(w^(y*exponent) - 1), roots from ``_label_roots`` as
    in the simulator; the B = 0 block is the identity.
    """
    exponent = _integer(exponent, "query exponent")
    n, u = family.n, family.eigenstate
    roots = _label_roots(range(n), n)(exponent)
    dim = len(u) * n
    mat = np.eye(2 * dim, dtype=np.complex128)
    mat[dim:, dim:] += np.kron(np.outer(u, u.conj()), np.diag(roots - 1))
    return UnitaryMatrix(mat)
