"""Dense complex values: labeled registers, state vectors, unitary matrices,
plus orthonormal basis completion and Haar-random unitaries.

These are the values the simulator, the builders and the sweeps pass around.
Their invariants (unit norm, unitarity, orthonormality) are validated once,
at construction, and the tolerances every module compares against live
here. The kernel that applies steps and queries is ``simulate._evolve``.

Amplitude ordering is row-major over the register order of the layout: the
first listed register is the most significant index block. All values are
immutable after construction; operations return new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Centralized tolerances: unitarity/normalization 1e-9, amplitude equality
# 1e-10, probability comparisons 1e-9.
UNITARITY_TOL = 1e-9
NORM_TOL = 1e-9
AMP_TOL = 1e-10
PROB_TOL = 1e-9

# Gram-Schmidt candidates whose residual norm falls below this are skipped.
_RESIDUAL_TOL = 1e-8


def _frozen_complex_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, order="C")
    if shape is not None:
        arr = arr.reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered list of (label, dimension) registers defining a tensor space."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        regs = tuple((str(label), int(dim)) for label, dim in self.registers)
        object.__setattr__(self, "registers", regs)
        labels = [label for label, _ in regs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"register labels must be unique, got {labels}")
        if any(dim < 1 for _, dim in regs):
            raise ValueError("every register dimension must be >= 1")

    # cached: the simulator reads these on every step and query
    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.registers)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.registers)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        """Tensor axis of a register; raises KeyError for unknown labels."""
        for i, (name, _) in enumerate(self.registers):
            if name == label:
                return i
        raise KeyError(f"no register labeled {label!r} in {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.registers[self.axis(label)][1]

    def extended(self, label: str, dim: int) -> "RegisterLayout":
        """New layout with one register appended (least significant block)."""
        return RegisterLayout(self.registers + ((label, dim),))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over the registers of a layout, of unit
    Euclidean norm within 1e-9."""

    layout: RegisterLayout
    amps: np.ndarray

    def __post_init__(self):
        amps = _frozen_complex_array(self.amps).reshape(-1)
        if amps.shape != (self.layout.total_dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, "
                f"layout expects {self.layout.total_dim}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        if abs(self.norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {self.norm} deviates from 1 beyond {NORM_TOL}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tensor_view(self) -> np.ndarray:
        """Read-only view shaped by the register dimensions."""
        return self.amps.reshape(self.layout.dims)


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Dense square complex matrix verified unitary at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen_complex_array(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if dev > UNITARITY_TOL:
            raise ValueError(f"matrix fails unitarity check: max |U†U - I| = {dev:.3e}")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    # cached: checked once per matrix, so once per n for the cached qft_matrix(n)
    @cached_property
    def adjoint(self) -> "UnitaryMatrix":
        return UnitaryMatrix(self.matrix.conj().T)


def complete_orthonormal_basis(u, dim: int) -> np.ndarray:
    """Orthonormal basis of C^dim whose first vector is ``u``.

    Gram-Schmidt completion over the computational basis vectors in index
    order; a candidate is skipped when its residual norm drops below 1e-8.
    Deterministic: no randomness enters the construction.

    Returns an array of shape (dim, dim) whose rows are the basis vectors.
    """
    first = np.array(u, dtype=np.complex128).reshape(-1)
    if first.shape != (dim,):
        raise ValueError(f"seed vector has length {first.shape[0]}, expected {dim}")
    nrm = np.linalg.norm(first)
    if not abs(nrm - 1.0) <= NORM_TOL:  # NaN fails too
        raise ValueError(f"seed vector norm {nrm} deviates from 1 beyond {NORM_TOL}")
    rows = np.zeros((dim, dim), dtype=np.complex128)
    rows[0] = first / nrm
    done = 1
    for k in range(dim):
        if done == dim:
            break
        accepted = rows[:done]
        cand = np.zeros(dim, dtype=np.complex128)
        cand[k] = 1.0
        cand -= accepted.T @ (accepted.conj() @ cand)
        res = np.linalg.norm(cand)
        if res < _RESIDUAL_TOL:
            continue
        cand /= res
        # second orthogonalization pass keeps the Gram matrix at ~1e-16
        cand -= accepted.T @ (accepted.conj() @ cand)
        rows[done] = cand / np.linalg.norm(cand)
        done += 1
    if done != dim:
        raise ValueError("could not complete an orthonormal basis")
    rows.setflags(write=False)
    return rows


def _haar_isometries(rng: np.random.Generator, count: int, dim: int, m: int) -> np.ndarray:
    """``count`` independent Haar-random dim x m isometries (unitaries at
    m = dim), stacked on axis 0 and not checked: QR of a complex Gaussian
    with the R diagonal rotated positive, which makes the law exactly Haar
    (Mezzadri 2007, arXiv:math-ph/0609050). The one ``(count, 2, dim, m)``
    draw is the stream of ``count`` successive real, then imaginary, draws.
    """
    g = rng.standard_normal((count, 2, dim, m))
    v, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
    d = np.diagonal(r, axis1=1, axis2=2)[:, None, :]
    return v * (d / np.abs(d))


def haar_random_unitary(dim: int, seed) -> UnitaryMatrix:
    """Haar-distributed random unitary, deterministic for a fixed seed.

    One ``_haar_isometries`` draw, checked unitary by ``UnitaryMatrix``.
    ``seed`` may be an int or a Generator.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return UnitaryMatrix(_haar_isometries(np.random.default_rng(seed), 1, dim, dim)[0])
