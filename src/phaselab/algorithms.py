"""Optimal distinguishing algorithms, the standard estimator, and reductions.

``build_truncated_optimal(n, q)`` constructs the q-query algorithm whose
average success probability on the n-phase distinguishing task is exactly
(q+1)/n: it spreads the output register over {0..q}, walks a control-wire
predicate [O >= j] across the q queries so that branch k of the output
picks up phase w^(y*k), and finishes with the inverse Fourier transform.
At q = n-1 this is the standard phase estimation circuit of Cleve, Ekert,
Macchiavello and Mosca, started in F|0> bit for bit, and
``cemm_on_continuous_phase`` runs it.
"""

from __future__ import annotations

import numpy as np

from .fourier import qft_matrix
from .linalg import _integer, _unit_vector
from .oracles import FORWARD, PhaseInstance, default_family
from .simulate import (
    QueryAlgorithm,
    _check_spectra,
    _outcome_weights,
    _run,
    _Step,
    standard_layout,
)


def _assemble(q: int, amps_o, eigenstate) -> QueryAlgorithm:
    """Start in ``amps_o`` on O (dimension n), |0> on B and ``eigenstate``
    on W (if None, the cached, read-only ``default_family(n).eigenstate``,
    |0> of a qubit), walk a control predicate across the queries, then
    apply F† on O. The start ``amps_o ⊗ |0> ⊗ eigenstate`` is written as
    one outer product ``amps_o ⊗ eigenstate`` into the B = 0 slice of a
    zero (n, 2, w) array, not through ``np.kron``. The predicate between
    queries j and j+1 is [O >= j], so each step flips B on one range of O:
    step 0 on [1, n), the middle step j on [j, j+1) and step q on [q, n),
    one ``slice`` each. At q = 0 the walk is empty and the one step is F†
    alone.

    Every factor is valid by construction: F† is the checked adjoint of the
    cached ``qft_matrix(n)``, and each slice is a nonempty range of O.
    """
    n = len(amps_o)
    eigenstate = (
        default_family(n).eigenstate if eigenstate is None else _unit_vector(eigenstate, "eigenstate")
    )
    work_dim = len(eigenstate)
    layout = standard_layout(n, work_dim)
    start = np.zeros((n, 2, work_dim), dtype=np.complex128)
    np.multiply.outer(amps_o, eigenstate, out=start[:, 0])
    walk = [slice(1, n), *(slice(j, j + 1) for j in range(1, q)), slice(q, n)] if q else []
    steps = [_Step(layout, (flip,)) for flip in walk[:-1]]
    # the last step clears the walk, then applies F† on O, the leading register
    steps.append(_Step(layout, (*walk[-1:], qft_matrix(n).adjoint)))
    return QueryAlgorithm(layout, steps, (FORWARD,) * q, start)


def build_truncated_optimal(n: int, q: int, eigenstate=None) -> QueryAlgorithm:
    """The q-query algorithm saturating the (q+1)/n success bound.

    The output register starts in a uniform superposition over {0..q};
    branch k then gathers phase w^(y*k) from min(k, q) = k active queries,
    leaving the Fourier state of index y truncated to q+1 terms, which the
    final inverse transform concentrates on outcome y with weight (q+1)/n.
    At q = n-1 the start is F|0>, column 0 of ``qft_matrix(n)``, bit for bit.
    """
    n, q = _integer(n, "problem size", 1), _integer(q, "query count", 0)
    if q > n - 1:
        raise ValueError(f"query count must satisfy 0 <= q <= n-1, got q={q}, n={n}")
    uniform = np.zeros(n, dtype=np.complex128)
    uniform[: q + 1] = 1.0 / np.sqrt(q + 1)
    return _assemble(q, uniform, eigenstate)


def cemm_on_continuous_phase(inst: PhaseInstance, n: int) -> np.ndarray:
    """Exact outcome distribution of the grid-n estimator on a continuous phase.

    Entry y is the probability of measuring outcome y on the output register
    when the oracle has eigenphase ``inst.theta`` instead of a grid value.
    """
    n = _integer(n, "grid size", 2)
    alg = build_truncated_optimal(n, n - 1, inst.eigenstate)
    # a real theta has no period to reduce by, unlike ``oracles._label_roots``
    cols = _run(alg, inst.eigenstate, lambda m: np.exp(2j * np.pi * np.array([inst.theta * m])), 1)
    weights = _outcome_weights(cols, n)[:, 0]
    # they sum to the squared norm of the final state
    _check_spectra([weights], lambda _: f"phase theta={inst.theta!r}")
    return weights


def phase_distance(a, b):
    """Circular distance between phases, taken mod 1, so in [0, 1/2];
    elementwise on arrays."""
    d = np.abs(np.asarray(a, dtype=float) - b) % 1.0
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

