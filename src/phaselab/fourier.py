"""Fourier transform over arbitrary dimension and Fourier-basis diagnostics.

The transform maps the computational basis state ``|y>`` to
``(1/sqrt(n)) * sum_k w^(y*k) |k>``, each w^(y*k) from ``oracles._label_roots``. The
Fourier weights analyzer reads the spectrum of the register at a position
without mutating the input, so it can be inserted between simulation steps.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import StateVector, UnitaryMatrix, _integer
from .oracles import _label_roots


def qft_matrix(n: int) -> UnitaryMatrix:
    """The n x n Fourier transform matrix, entries w^(y*k)/sqrt(n) with y*k
    reduced mod n, one cached value per n."""
    return _qft_matrix(_integer(n, "dimension", 1))


# bounded: a sweep over n = 2..1024 would otherwise keep ~5.7 GB of matrices
# (twice that with their cached adjoints); 32 sizes hold a 2..24 scan and more
@lru_cache(maxsize=32)
def _qft_matrix(n: int) -> UnitaryMatrix:
    return UnitaryMatrix(_label_roots(np.arange(n)[:, None], n)(np.arange(n)) / np.sqrt(n))


def fourier_weights(state: StateVector, register: int) -> np.ndarray:
    """Fourier-basis outcome probabilities of the register at position
    ``register``, counted from the end when negative (``simulate.COUNTER``).

    Entry k is the probability of outcome k when the register is rotated by
    the inverse transform and measured. Works on a copy; the input state is
    never mutated. A non-integer position raises ``ValueError`` naming it,
    one out of range numpy's ``AxisError``, also a ``ValueError``.
    """
    t = np.moveaxis(state.tensor_view(), _integer(register, "register position"), -1)
    return _spectrum(t.reshape(-1, t.shape[-1]))


def _spectrum(amps: np.ndarray) -> np.ndarray:
    """Fourier weights of the last axis, summed over axis 0.

    The inverse transform of a length-d vector is its FFT over sqrt(d), so
    the weights are |fft|^2 / d; for a 2-d ``amps`` they sum to its squared
    norm.
    """
    return (np.abs(np.fft.fft(amps, axis=-1)) ** 2).sum(axis=0) / amps.shape[-1]
