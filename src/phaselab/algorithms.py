"""Optimal distinguishing algorithms, the standard estimator, and reductions.

``build_truncated_optimal(n, q)`` constructs the q-query algorithm whose
average success probability on the n-phase distinguishing task is exactly
(q+1)/n: it spreads the output register over {0..q}, walks a control-wire
predicate [O >= j] across the q queries so that branch k of the output
picks up phase w^(y*k), and finishes with the inverse Fourier transform.
At q = n-1 this is the standard phase estimation circuit.
"""

from __future__ import annotations

import numpy as np

from .fourier import qft_matrix
from .linalg import _integer, _unit_vector
from .oracles import FORWARD, PhaseInstance
from .simulate import (
    QueryAlgorithm,
    _check_spectra,
    _outcome_weights,
    _run,
    _Step,
    standard_layout,
)


# the default eigenstate |0> of a qubit, checked once
_E0 = _unit_vector([1.0, 0.0], "eigenstate")


def _assemble(q: int, amps_o, eigenstate) -> QueryAlgorithm:
    """Start in ``amps_o`` on O (dimension n), |0> on B and ``eigenstate``
    on W (the constant ``_E0``, |0> of a qubit, if None), walk a control
    predicate across the queries, then apply F† on O. The start
    ``amps_o ⊗ |0> ⊗ eigenstate`` is written as one outer product
    ``amps_o ⊗ eigenstate`` into the B = 0 slice of a zero (n, 2, w) array,
    not through ``np.kron``. The walk is one table: active[j, o] =
    [1 <= j <= q and o >= j] for j = 0..q+1 is the predicate before step j,
    so [O >= j] between queries j and j+1. Step j flips B where active[j]
    XOR active[j+1] (O = j for a middle step), reading the B-reversed basis
    index there; all q+1 permutations are the rows of one array, frozen
    once. Only a step that flips nothing (q = 0) has no permutation, and
    it is F† alone.

    Every factor is valid by construction: F† is the checked adjoint of the
    cached ``qft_matrix(n)``, and each permutation is a read-only row of a
    fresh, frozen array of bijections.
    """
    eigenstate = _E0 if eigenstate is None else _unit_vector(eigenstate, "eigenstate")
    n, work_dim = len(amps_o), len(eigenstate)
    layout = standard_layout(n, work_dim)
    start = np.zeros((n, 2, work_dim), dtype=np.complex128)
    np.multiply.outer(amps_o, eigenstate, out=start[:, 0])
    j, o = np.arange(q + 2)[:, None], np.arange(n)
    active = (j >= 1) & (j <= q) & (o >= j)
    flips = active[:-1] ^ active[1:]
    idx = np.arange(layout.total_dim).reshape(n, 2, work_dim)
    # frozen before the reshape, so the array that owns the rows is read-only
    perms = np.where(flips[:, :, None, None], idx[:, ::-1], idx)
    perms.setflags(write=False)
    perms = perms.reshape(q + 1, -1)
    iqft = (qft_matrix(n).adjoint,)  # on O, the leading register
    steps = []
    for k, flipped in enumerate(flips.any(axis=1)):
        factors = ((perms[k],) if flipped else ()) + (iqft if k == q else ())
        steps.append(_Step(layout, factors))
    return QueryAlgorithm(layout, steps, (FORWARD,) * q, start)


def build_truncated_optimal(n: int, q: int, eigenstate=None) -> QueryAlgorithm:
    """The q-query algorithm saturating the (q+1)/n success bound.

    The output register starts in a uniform superposition over {0..q};
    branch k then gathers phase w^(y*k) from min(k, q) = k active queries,
    leaving the Fourier state of index y truncated to q+1 terms, which the
    final inverse transform concentrates on outcome y with weight (q+1)/n.
    """
    n, q = _integer(n, "problem size", 1), _integer(q, "query count", 0)
    if q > n - 1:
        raise ValueError(f"query count must satisfy 0 <= q <= n-1, got q={q}, n={n}")
    target = np.zeros(n, dtype=np.complex128)
    target[: q + 1] = 1.0 / np.sqrt(q + 1)
    return _assemble(q, target / np.linalg.norm(target), eigenstate)


def build_cemm(n: int, eigenstate=None) -> QueryAlgorithm:
    """The full phase estimation circuit: q = n-1, uniform superposition over
    all of [n], controlled phase accumulation, inverse Fourier transform.

    Semantically the q = n-1 case of ``build_truncated_optimal``, but
    started in column 0 of the Fourier transform, F|0>.
    """
    return _assemble(n - 1, qft_matrix(n).matrix[:, 0], eigenstate)


def cemm_on_continuous_phase(inst: PhaseInstance, n: int) -> np.ndarray:
    """Exact outcome distribution of the grid-n estimator on a continuous phase.

    Entry y is the probability of measuring outcome y on the output register
    when the oracle has eigenphase ``inst.theta`` instead of a grid value.
    """
    n = _integer(n, "grid size", 2)
    alg = build_cemm(n, eigenstate=inst.eigenstate)
    cols = _run(alg, inst.eigenstate, lambda m: np.array([inst.theta * m]), 1)
    weights = _outcome_weights(cols, n)[:, 0]
    # they sum to the squared norm of the final state
    _check_spectra([weights], lambda _: f"phase theta={inst.theta!r}")
    return weights


def phase_distance(a, b):
    """Circular distance between phases in [0, 1); elementwise on arrays."""
    d = np.abs(np.asarray(a, dtype=float) - b)
    return np.minimum(d, 1.0 - d)


def round_to_grid(estimate, n: int):
    """Nearest grid label y minimizing the circular distance |theta - y/n|;
    an int for one estimate, an int array of labels for an array of them.

    Ties break toward the smaller label; a NaN or infinite estimate raises
    ``ValueError``.
    """
    n = _integer(n, "grid size", 1)
    e = np.asarray(estimate, dtype=float)
    if not np.isfinite(e).all():
        raise ValueError(f"estimates must be finite, got {estimate!r}")
    e = e % 1.0
    labels = np.argmin(phase_distance(e[..., None], np.arange(n) / n), axis=-1)
    return int(labels) if labels.ndim == 0 else labels


def _epr_computational(n: int) -> np.ndarray:
    """Amplitudes of the maximally correlated state (1/sqrt(n)) sum_y |y>|y>
    on (O, C), O most significant."""
    amps = np.zeros(n * n, dtype=np.complex128)
    amps[:: n + 1] = 1.0 / np.sqrt(n)
    return amps


def _epr_fourier(n: int) -> np.ndarray:
    f = qft_matrix(n).matrix
    return (f.conj() @ f.T).reshape(-1) / np.sqrt(n)


def epr_fourier_deviation(n: int) -> float:
    """Max entrywise gap between the computational and Fourier constructions
    (conjugate Fourier state on O paired with Fourier state on C)."""
    n = _integer(n, "problem size", 1)
    return float(np.max(np.abs(_epr_computational(n) - _epr_fourier(n))))

