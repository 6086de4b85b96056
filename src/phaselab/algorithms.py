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
from .linalg import RegisterLayout, UnitaryMatrix, complete_orthonormal_basis
from .oracles import FORWARD, PhaseInstance
from .simulate import (
    OUTPUT,
    WORK,
    QueryAlgorithm,
    Step,
    _check_spectra,
    _run,
    standard_layout,
)


def _default_eigenstate() -> np.ndarray:
    eig = np.zeros(2, dtype=np.complex128)
    eig[0] = 1.0
    return eig


def _assemble(n: int, q: int, prep_o: UnitaryMatrix, eigenstate: np.ndarray) -> QueryAlgorithm:
    """Prepare O and W, walk a control predicate across the queries, then
    apply F† on O. The walk is one table: active[j, o] = [1 <= j <= q and
    o >= j] for j = 0..q+1 is the predicate before step j, so [O >= j]
    between queries j and j+1. Step j flips B where active[j] XOR
    active[j+1] (O = j for a middle step), reading the B-reversed basis
    index there; a step that flips nothing (q = 0) has no permutation.
    """
    work_dim = eigenstate.shape[0]
    layout = standard_layout(n, work_dim)
    prep_w = UnitaryMatrix(complete_orthonormal_basis(eigenstate, work_dim).T)
    j, o = np.arange(q + 2)[:, None], np.arange(n)
    active = (j >= 1) & (j <= q) & (o >= j)
    idx = np.arange(layout.total_dim).reshape(n, 2, work_dim)
    prep = [(prep_o, (OUTPUT,)), (prep_w, (WORK,))]
    iqft = [(qft_matrix(n).adjoint, (OUTPUT,))]
    steps = []
    for k, row in enumerate(active[:-1] ^ active[1:]):
        # one permutation at a time: each Step keeps its own copy, so holding
        # them all until the steps are built would double their memory
        perm = [np.where(row[:, None, None], idx[:, ::-1], idx).reshape(-1)] if row.any() else []
        steps.append(Step(layout, (prep if k == 0 else []) + perm + (iqft if k == q else [])))
    return QueryAlgorithm(n=n, layout=layout, steps=steps, exponents=(FORWARD,) * q)


def build_truncated_optimal(n: int, q: int, eigenstate=None) -> QueryAlgorithm:
    """The q-query algorithm saturating the (q+1)/n success bound.

    The output register is prepared in a uniform superposition over {0..q};
    branch k then gathers phase w^(y*k) from min(k, q) = k active queries,
    leaving the Fourier state of index y truncated to q+1 terms, which the
    final inverse transform concentrates on outcome y with weight (q+1)/n.
    """
    if not 0 <= q <= n - 1:
        raise ValueError(f"query count must satisfy 0 <= q <= n-1, got q={q}, n={n}")
    eig = _default_eigenstate() if eigenstate is None else np.asarray(eigenstate, np.complex128)
    target = np.zeros(n, dtype=np.complex128)
    target[: q + 1] = 1.0 / np.sqrt(q + 1)
    prep_o = UnitaryMatrix(complete_orthonormal_basis(target, n).T)
    return _assemble(n, q, prep_o, eig)


def build_cemm(n: int, eigenstate=None) -> QueryAlgorithm:
    """The full phase estimation circuit: q = n-1, uniform superposition over
    all of [n], controlled phase accumulation, inverse Fourier transform.

    Semantically the q = n-1 case of ``build_truncated_optimal``, but
    assembled with the Fourier transform as the superposition preparation.
    """
    if n < 1:
        raise ValueError(f"problem size must be >= 1, got {n}")
    eig = _default_eigenstate() if eigenstate is None else np.asarray(eigenstate, np.complex128)
    return _assemble(n, n - 1, qft_matrix(n), eig)


def cemm_on_continuous_phase(inst: PhaseInstance, n: int) -> np.ndarray:
    """Exact outcome distribution of the grid-n estimator on a continuous phase.

    Entry y is the probability of measuring outcome y on the output register
    when the oracle has eigenphase ``inst.theta`` instead of a grid value.
    """
    if n < 2:
        raise ValueError(f"grid size must be >= 2, got {n}")
    alg = build_cemm(n, eigenstate=inst.eigenstate)
    cols = _run(alg, inst.eigenstate, lambda m: np.array([inst.theta * m]), 1)
    weights = _outcome_weights(cols, alg.layout)[:, 0]
    _check_spectra([weights])  # they sum to the squared norm of the final state
    return weights


def _outcome_weights(cols: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """Entry [y, j] is the probability of outcome y on O in column j: the
    squared amplitudes summed over every other register."""
    t = np.abs(cols.reshape(layout.dims + (cols.shape[-1],))) ** 2
    t = np.moveaxis(t, layout.axis(OUTPUT), 0)
    return t.reshape(t.shape[0], -1, t.shape[-1]).sum(axis=1)


def phase_distance(a, b):
    """Circular distance between phases in [0, 1); elementwise on arrays."""
    d = np.abs(np.asarray(a, dtype=float) - b)
    return np.minimum(d, 1.0 - d)


def round_to_grid(estimate, n: int):
    """Nearest grid label y minimizing the circular distance |theta - y/n|;
    an int for one estimate, an int array of labels for an array of them.

    Ties break toward the smaller label.
    """
    e = np.asarray(estimate, dtype=float) % 1.0
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
    return float(np.max(np.abs(_epr_computational(n) - _epr_fourier(n))))

