"""Slow, obviously correct reference simulators for cross-checking phaselab.

Every query goes through a dense oracle matrix applied with
``apply_to_registers``: the coherent oracle ``coherent_controlled_u`` on
(B, W, C) for the purified view, ``controlled_u`` on (B, W) for one label,
and an explicit controlled phase block on (B, W) for continuous phases.
Counter spectra are read by rotating C with the inverse of ``qft_matrix``.
None of this shares code with the simulation kernel in
``phaselab.simulate``, so agreement between the two is evidence.
"""

import numpy as np

from phaselab.fourier import qft_matrix
from phaselab.linalg import (
    StateVector,
    UnitaryMatrix,
    apply_to_registers,
    projection_norm_sq,
    zero_state,
)
from phaselab.oracles import coherent_controlled_u, controlled_u
from phaselab.simulate import COUNTER, OUTPUT


def purified_initial(alg):
    layout = alg.layout.extended(COUNTER, alg.n)
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[: alg.n] = 1.0 / np.sqrt(alg.n)  # A at |0..0>, C at the zero Fourier state
    return StateVector(layout, amps)


def fourier_weights(state, register):
    """Outcome probabilities after the inverse transform on one register."""
    dim = state.layout.dim_of(register)
    rotated = apply_to_registers(state, qft_matrix(dim).adjoint, [register])
    probs = np.abs(rotated.tensor_view()) ** 2
    axis = state.layout.axis(register)
    return probs.sum(axis=tuple(i for i in range(probs.ndim) if i != axis))


def purified_run(alg, family):
    """Final purified state and the counter spectrum after every step."""
    labels = list(alg.layout.labels)
    oracles = {k: coherent_controlled_u(family, k) for k in set(alg.kinds)}
    state = apply_to_registers(purified_initial(alg), alg.steps[0], labels)
    snapshots = [fourier_weights(state, COUNTER)]
    for kind, step in zip(alg.kinds, alg.steps[1:]):
        state = apply_to_registers(state, oracles[kind], ["B", "W", COUNTER])
        state = apply_to_registers(state, step, labels)
        snapshots.append(fourier_weights(state, COUNTER))
    return state, snapshots


def run_purified(alg, family):
    return purified_run(alg, family)[0]


def _fixed_run(alg, oracle):
    """Run with ``oracle(kind)`` on (B, W) between consecutive steps."""
    labels = list(alg.layout.labels)
    state = apply_to_registers(zero_state(alg.layout), alg.steps[0], labels)
    for kind, step in zip(alg.kinds, alg.steps[1:]):
        state = apply_to_registers(state, oracle(kind), ["B", "W"])
        state = apply_to_registers(state, step, labels)
    return state


def run_fixed_y(alg, family, y):
    return _fixed_run(alg, lambda kind: controlled_u(family, y, kind))


def success_probability_average(alg, family):
    return sum(
        projection_norm_sq(run_fixed_y(alg, family, y), OUTPUT, y) for y in range(family.n)
    ) / family.n


def controlled_phase(inst, kind):
    """|0><0| I + |1><1| V^m on (B, W) for the continuous-phase unitary V."""
    proj = np.outer(inst.eigenstate, inst.eigenstate.conj())
    d = inst.work_dim
    core = np.eye(d) + (np.exp(2j * np.pi * inst.theta * kind.exponent) - 1) * proj
    block = np.eye(2 * d, dtype=np.complex128)
    block[d:, d:] = core
    return UnitaryMatrix(block)


def run_fixed_phase(alg, inst):
    return _fixed_run(alg, lambda kind: controlled_phase(inst, kind))
