"""Dense complex values: labeled registers, state vectors, unitary matrices,
plus Haar-random isometries and unitaries.

These are the values the simulator, the builders and the sweeps pass around.
Their invariants (unit norm, unitarity, orthonormality) are validated once,
at construction, and the tolerances every module compares against live
here. The kernel that applies steps and queries is ``simulate._evolve``.

The one Haar draw, ``_haar_isometries``, measures how far each draw is
from an isometry and ``_check_isometry`` fails it, so ``haar_random_unitary``
freezes the drawn array in place and wraps its result with
``UnitaryMatrix._trusted`` instead of copying and checking it again.

Amplitude ordering is row-major over the register order of the layout: the
first listed register is the most significant index block. All values are
immutable after construction: the public constructors copy their input and
freeze the copy; operations return new values.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Centralized tolerances: unitarity/normalization 1e-9, amplitude equality
# 1e-10, probability comparisons 1e-9.
UNITARITY_TOL = 1e-9
NORM_TOL = 1e-9
AMP_TOL = 1e-10
PROB_TOL = 1e-9


def _integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int, the package's one integer check: a bool, float,
    str or other non-integer, or an int below ``minimum``, raises
    ``ValueError`` naming it. numpy integers are accepted. The cached
    constructors (``qft_matrix``, ``standard_layout``, ``default_family``)
    apply it before their cache lookup, so their keys are plain ints."""
    # operator.index takes exactly the integer types, bool among them; a
    # plain int skips it, which keeps the common case as cheap as int(value)
    if type(value) is not int:
        try:
            if isinstance(value, bool):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value!r}")
    return value


def _real(value, what: str) -> float:
    """``value`` as a float, the package's one real-number check: a bool,
    str, complex, None or other non-real raises ``ValueError`` naming it.
    numpy reals are accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _frozen_complex_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, order="C")
    if not np.all(np.isfinite(arr)):
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


def _unit_vector(values, what: str) -> np.ndarray:
    """``values`` flattened to a frozen complex vector that owns its memory;
    raises ``ValueError`` naming ``what`` unless it is finite and of unit
    norm within ``NORM_TOL``."""
    vec = np.array(np.ravel(values), dtype=np.complex128)
    if not abs(np.linalg.norm(vec) - 1.0) <= NORM_TOL:  # NaN and Inf fail too
        raise ValueError(f"{what} must be a finite unit vector")
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered list of (label, dimension) registers defining a tensor space."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        regs = tuple(
            (str(label), _integer(dim, "register dimension", 1))
            for label, dim in self.registers
        )
        object.__setattr__(self, "registers", regs)
        labels = [label for label, _ in regs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"register labels must be unique, got {labels}")

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
        amps = _unit_vector(self.amps, "state")
        if amps.shape != (self.layout.total_dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, "
                f"layout expects {self.layout.total_dim}"
            )
        object.__setattr__(self, "amps", amps)

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

    @classmethod
    def _trusted(cls, mat: np.ndarray) -> "UnitaryMatrix":
        """Wrap a C-ordered square complex128 array that has already passed
        the unitarity check and is read-only, as is the array that owns its
        memory: neither copied, checked nor frozen here."""
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", mat)
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    # cached: checked once per matrix, so once per n for the cached qft_matrix(n)
    @cached_property
    def adjoint(self) -> "UnitaryMatrix":
        return UnitaryMatrix(self.matrix.conj().T)


def _haar_isometries(rngs, count: int, dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent Haar-random dim x m isometries (unitaries at
    m = dim) from each generator, stacked as ``(len(rngs), count, dim, m)``:
    QR of a complex Gaussian with the R diagonal rotated positive, which
    makes the law exactly Haar (Mezzadri 2007, arXiv:math-ph/0609050). Each
    generator's ``(count, 2, dim, m)`` draw is the stream of ``count``
    successive real, then imaginary, draws, so a generator's isometries do
    not depend on what is stacked beside them. One stacked QR, phase fix and
    check ``max |V†V - I|`` cover every V; the second value holds each
    generator's deviation, and ``_check_isometry`` fails it.

    The work is done in place, one complex array and the QR's own outputs:
    at dim 256 each extra temporary is a megabyte that the allocator hands
    back to the OS and the next call faults in again.
    """
    if m > dim:
        raise ValueError(f"cannot draw a {dim} x {m} isometry: more columns than rows")
    z = np.empty((len(rngs), count, dim, m), dtype=np.complex128)
    # z = (g_re + i g_im) / sqrt(2), bit for bit: numpy divides by the real
    # sqrt(2) as a multiplication by its reciprocal
    scale = 1.0 / np.sqrt(2)
    for t, rng in enumerate(rngs):  # no view of z outlives the loop: z is freed below
        g = rng.standard_normal((count, 2, dim, m))
        np.multiply(g[:, 0], scale, out=z[t].real)
        np.multiply(g[:, 1], scale, out=z[t].imag)
        del g
    v, r = np.linalg.qr(z)
    del z
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    del r
    d /= np.abs(d)
    v *= d[..., None, :]
    gram = v.conj().swapaxes(-2, -1) @ v
    gram.reshape(-1, m * m)[:, :: m + 1] -= 1.0
    dev = np.abs(gram).reshape(len(rngs), -1).max(axis=1)  # NaN propagates
    return v, dev


def _check_isometry(dev) -> None:
    """Fail a drawn isometry whose ``max |V†V - I|`` exceeds 1e-9, or is NaN."""
    if not dev <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(f"sampled isometry fails its check: max |V†V - I| = {dev:.3e}")


def haar_random_unitary(dim: int, seed) -> UnitaryMatrix:
    """Haar-distributed random unitary, deterministic for a fixed seed.

    One ``_haar_isometries`` draw, checked unitary by ``_check_isometry``;
    the drawn array is frozen in place, not copied or checked again.
    ``seed`` may be an int or a Generator.
    """
    dim = _integer(dim, "dimension", 1)
    v, dev = _haar_isometries([np.random.default_rng(seed)], 1, dim, dim)
    _check_isometry(dev[0])
    v.setflags(write=False)
    return UnitaryMatrix._trusted(v[0, 0])
