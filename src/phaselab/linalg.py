"""Dense complex values: register layouts, state vectors, unitary matrices,
plus Haar-random isometries and unitaries.

These are the values the simulator, the builders and the sweeps pass around.
Their invariants (unit norm, unitarity, orthonormality) are validated once,
at construction, and the tolerances every module compares against live
here. The kernel that applies steps and queries is ``simulate._evolve``.

``_deviation`` is the one unitarity measure, of ``UnitaryMatrix`` and of
the one Haar draw, ``_haar_isometries``, whose draws ``_check_isometry``
fails, so ``haar_random_unitary`` freezes the drawn array in place and
wraps it with ``UnitaryMatrix._trusted`` instead of copying and checking it.

Amplitude ordering is row-major over the registers of the layout, addressed
by position: register 0 is the most significant index block. All values are
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
    """The dimensions of a tensor space's registers, most significant first;
    a register is its position. Each is an int >= 1 by the integer rule."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_integer(dim, "register dimension", 1) for dim in self.dims)
        object.__setattr__(self, "dims", dims)

    # cached: the simulator reads it on every run
    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over the registers of a layout, of unit
    Euclidean norm within 1e-9; ``tensor_view`` has one axis per register."""

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
        mat = np.array(self.matrix, dtype=np.complex128, order="C")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValueError(f"expected a non-empty square matrix, got shape {mat.shape}")
        dev = _deviation(mat)
        if not dev <= UNITARITY_TOL:  # NaN fails too
            raise ValueError(f"matrix fails unitarity check: max |U†U - I| = {dev:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, mat: np.ndarray) -> "UnitaryMatrix":
        """Wrap a C-ordered square complex128 array that has already passed
        the unitarity check and is read-only, as is the array that owns its
        memory: neither copied, checked nor frozen here. It spares each
        Haar draw the copy the public constructor makes."""
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


def _deviation(v: np.ndarray) -> np.ndarray:
    """max |V†V - I| of each trailing matrix of ``v``, shape ``v.shape[:-2]``,
    the identity subtracted in place; a NaN or Inf entry makes it NaN or Inf,
    which fails the callers' ``not dev <= UNITARITY_TOL``."""
    m = v.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):  # the NaN or Inf is the report
        gram = v.conj().swapaxes(-2, -1) @ v
    gram.reshape(-1, m * m)[:, :: m + 1] -= 1.0
    return np.abs(gram).max(axis=(-2, -1))


def _haar_isometries(rngs, count: int, dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent Haar-random dim x m isometries (unitaries at
    m = dim) from each generator, stacked as ``(len(rngs), count, dim, m)``:
    QR of a complex Gaussian with the R diagonal rotated positive, which
    makes the law exactly Haar (Mezzadri 2007, arXiv:math-ph/0609050). Each
    generator's ``(count, 2, dim, m)`` draw is the stream of ``count``
    successive real, then imaginary, draws, so a generator's isometries do
    not depend on what is stacked beside them. One stacked QR, phase fix and
    ``_deviation`` cover every V; the second value holds each generator's
    worst deviation, NaN if any is, and ``_check_isometry`` fails it.

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
    return v, _deviation(v).max(axis=1)


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
