"""Fourier transform over arbitrary dimension and Fourier-basis diagnostics.

The transform maps the computational basis state ``|y>`` to
``(1/sqrt(n)) * sum_k w^(y*k) |k>`` with ``w = exp(2*pi*i/n)``. The Fourier
weights analyzer reads the spectrum of one register without mutating the
input, so it can be inserted between steps of a simulation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import StateVector, UnitaryMatrix


# bounded: a sweep over n = 2..1024 would otherwise keep ~5.7 GB of matrices
# (twice that with their cached adjoints); 32 sizes hold a 2..24 scan and more
@lru_cache(maxsize=32)
def qft_matrix(n: int) -> UnitaryMatrix:
    """The n x n Fourier transform matrix, entries w^(y*k)/sqrt(n)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    grid = np.outer(np.arange(n), np.arange(n))
    return UnitaryMatrix(np.exp(2j * np.pi * grid / n) / np.sqrt(n))


def fourier_weights(state: StateVector, register: str) -> np.ndarray:
    """Fourier-basis outcome probabilities of one register.

    Entry k is the probability of outcome k when the register is rotated by
    the inverse transform and measured. Works on a copy; the input state is
    never mutated.
    """
    return _spectrum(np.moveaxis(state.tensor_view(), state.layout.axis(register), -1))


def _spectrum(amps: np.ndarray) -> np.ndarray:
    """Fourier weights of the last axis, summed over all other axes.

    The inverse transform of a length-d vector is its FFT over sqrt(d), so
    the weights are |fft|^2 / d; they sum to the squared norm of ``amps``.
    """
    d = amps.shape[-1]
    return (np.abs(np.fft.fft(amps, axis=-1)) ** 2).reshape(-1, d).sum(axis=0) / d
