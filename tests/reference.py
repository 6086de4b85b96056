"""Slow, obviously correct reference simulators for cross-checking phaselab.

Every query goes through a dense oracle matrix applied with
``apply_to_registers`` below: the coherent oracle ``coherent_controlled_u`` on
(B, W, C) for the purified view, ``controlled_u`` on (B, W) for one label,
and an explicit controlled phase block on (B, W) for continuous phases.
Counter spectra are read by rotating C with the inverse of ``qft_matrix``.
A step is applied factor by factor: a matrix with ``apply_to_registers`` on
the leading registers its dimension spans, a permutation by re-indexing the
amplitudes, never with ``_Step @``. The dense
``kron`` construction of the optimal circuits lives here too. None of this
shares code with the simulation kernel in ``phaselab.simulate`` or with the
builders in ``phaselab.algorithms``, so agreement between them is evidence.
The one exception is ``haar_trial`` at the end, the reference for how
Haar trials are batched and chunked: it runs one trial through the
kernel's ``_evolve``, drawing one step at a time.
"""

import math

import numpy as np

from phaselab.fourier import qft_matrix
from phaselab.linalg import StateVector, UnitaryMatrix
from phaselab.oracles import coherent_controlled_u, controlled_u
from phaselab.fourier import _spectrum
from phaselab.simulate import COUNTER, OUTPUT, _evolve, _label_turns, _start, standard_layout


def zero_state(layout):
    """All-zeros computational basis state."""
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(layout, amps)


def apply_to_registers(state, u, targets):
    """Apply ``u`` to the listed registers, identity on the rest.

    The matrix is interpreted over the tensor product of the target registers
    in the given order (first target most significant).
    """
    axes = [state.layout.axis(t) for t in targets]
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate target registers: {targets}")
    dims = state.layout.dims
    block = math.prod(dims[a] for a in axes)
    if block != u.dim:
        raise ValueError(
            f"target registers {targets} span dimension {block}, matrix has dimension {u.dim}"
        )
    psi = np.moveaxis(state.amps.reshape(dims), axes, range(len(axes)))
    moved_shape = psi.shape
    psi = u.matrix @ psi.reshape(block, -1)
    psi = np.moveaxis(psi.reshape(moved_shape), range(len(axes)), axes)
    return StateVector(state.layout, psi.reshape(-1))


def projection_norm_sq(state, register, value):
    """Probability weight of a computational basis value on one register."""
    axis = state.layout.axis(register)
    dim = state.layout.dims[axis]
    if not 0 <= value < dim:
        raise IndexError(f"value {value} out of range for register {register!r} (dim {dim})")
    sub = np.take(state.amps.reshape(state.layout.dims), value, axis=axis)
    return float(np.sum(np.abs(sub) ** 2))


def apply_step(state, step):
    """The step's factors in order on a state over its layout, optionally
    with more registers appended (the purified counter)."""
    for factor in step.factors:
        if isinstance(factor, np.ndarray):
            # row i of the step's registers takes the amplitudes of row perm[i]
            amps = state.amps.reshape(step.layout.total_dim, -1)[factor]
            state = StateVector(state.layout, amps.reshape(-1))
        else:
            state = apply_to_registers(state, factor, leading_labels(step.layout, factor.dim))
    return state


def leading_labels(layout, dim):
    """The first registers of ``layout`` whose dimensions multiply to ``dim``."""
    for k in range(1, len(layout.labels) + 1):
        if math.prod(layout.dims[:k]) == dim:
            return list(layout.labels[:k])
    raise ValueError(f"no leading registers of {layout.registers} span dimension {dim}")


def dense_step(step):
    """The step as a dense matrix, one basis state at a time."""
    dim = step.layout.total_dim
    cols = [apply_step(StateVector(step.layout, e), step).amps for e in np.eye(dim)]
    return np.array(cols).T


def complete_orthonormal_basis(u):
    """Gram-Schmidt completion of C^len(u) one accepted row at a time (two
    passes) over the computational basis in index order, skipping a
    candidate whose residual norm is below 1e-8; row 0 is the unit seed u."""
    rows = [np.asarray(u, dtype=np.complex128)]
    nrm = np.linalg.norm(rows[0])
    if not abs(nrm - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"seed vector norm {nrm} deviates from 1")
    dim = len(rows[0])
    for k in range(dim):
        if len(rows) == dim:
            break
        cand = np.zeros(dim, dtype=np.complex128)
        cand[k] = 1.0
        for r in rows:
            cand = cand - np.vdot(r, cand) * r
        res = np.linalg.norm(cand)
        if res < 1e-8:
            continue
        cand /= res
        for r in rows:
            cand = cand - np.vdot(r, cand) * r
        rows.append(cand / np.linalg.norm(cand))
    return np.array(rows)


def haar_unitary(dim, rng):
    """The dense Haar draw as its formula (Mezzadri 2007,
    arXiv:math-ph/0609050): the real, then the imaginary part of a dim x dim
    Gaussian, a QR of their sum over sqrt(2), and each column of Q turned by
    the phase of its R diagonal entry."""
    re = rng.standard_normal((dim, dim))
    im = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def dense_threshold_toggle(n, threshold, work_dim=2):
    d2 = 2 * work_dim
    flip = np.zeros((d2, d2), dtype=np.complex128)
    flip[:work_dim, work_dim:] = np.eye(work_dim)
    flip[work_dim:, :work_dim] = np.eye(work_dim)
    keep = np.eye(d2, dtype=np.complex128)
    mat = np.zeros((n * d2, n * d2), dtype=np.complex128)
    for k in range(n):
        mat[k * d2 : (k + 1) * d2, k * d2 : (k + 1) * d2] = flip if k >= threshold else keep
    return mat


def dense_assemble(n, q, prep_o, eigenstate):
    """Start vector and dense full-layout steps of the optimal circuit, built
    with ``kron``: the start is column 0 of the dense preparation, the state
    it makes from all-zeros, and no step prepares."""
    work_dim = eigenstate.shape[0]
    prep_w = complete_orthonormal_basis(eigenstate).T
    start = np.kron(prep_o, np.kron(np.eye(2), prep_w))[:, 0]
    iqft = np.kron(qft_matrix(n).matrix.conj().T, np.eye(2 * work_dim))
    if q == 0:
        return start, [iqft]
    toggles = [dense_threshold_toggle(n, j, work_dim) for j in range(q + 1)]
    steps = [toggles[1]]
    for j in range(1, q):
        steps.append(toggles[j + 1] @ toggles[j])
    steps.append(iqft @ toggles[q])
    return start, steps


def truncated_optimal(n, q, eigenstate):
    target = np.zeros(n, dtype=np.complex128)
    target[: q + 1] = 1.0 / np.sqrt(q + 1)
    return dense_assemble(n, q, complete_orthonormal_basis(target).T, eigenstate)


def cemm(n, eigenstate):
    return dense_assemble(n, n - 1, qft_matrix(n).matrix, eigenstate)


def purified_initial(alg):
    """The start on the algorithm's registers, C in the zero Fourier state."""
    amps = np.kron(alg.start, np.full(alg.n, 1.0 / np.sqrt(alg.n)))
    return StateVector(alg.layout.extended(COUNTER, alg.n), amps)


def fourier_weights(state, register):
    """Outcome probabilities after the inverse transform on one register."""
    dim = state.layout.dims[state.layout.axis(register)]
    rotated = apply_to_registers(state, qft_matrix(dim).adjoint, [register])
    probs = np.abs(rotated.tensor_view()) ** 2
    axis = state.layout.axis(register)
    return probs.sum(axis=tuple(i for i in range(probs.ndim) if i != axis))


def purified_run(alg, family):
    """Final purified state and the counter spectrum after every step."""
    oracles = {m: coherent_controlled_u(family, m) for m in set(alg.exponents)}
    state = apply_step(purified_initial(alg), alg.steps[0])
    snapshots = [fourier_weights(state, COUNTER)]
    for m, step in zip(alg.exponents, alg.steps[1:]):
        state = apply_to_registers(state, oracles[m], ["B", "W", COUNTER])
        state = apply_step(state, step)
        snapshots.append(fourier_weights(state, COUNTER))
    return state, snapshots


def run_purified(alg, family):
    return purified_run(alg, family)[0]


def _fixed_run(alg, oracle):
    """Run with ``oracle(m)`` on (B, W) between consecutive steps, m the
    query's exponent."""
    state = apply_step(StateVector(alg.layout, alg.start), alg.steps[0])
    for m, step in zip(alg.exponents, alg.steps[1:]):
        state = apply_to_registers(state, oracle(m), ["B", "W"])
        state = apply_step(state, step)
    return state


def run_fixed_y(alg, family, y):
    return _fixed_run(alg, lambda m: controlled_u(family, y, m))


def success_probability_average(alg, family):
    return sum(
        projection_norm_sq(run_fixed_y(alg, family, y), OUTPUT, y) for y in range(family.n)
    ) / family.n


def controlled_phase(inst, m):
    """|0><0| I + |1><1| V^m on (B, W) for the continuous-phase unitary V."""
    proj = np.outer(inst.eigenstate, inst.eigenstate.conj())
    d = inst.work_dim
    core = np.eye(d) + (np.exp(2j * np.pi * inst.theta * m) - 1) * proj
    block = np.eye(2 * d, dtype=np.complex128)
    block[d:, d:] = core
    return UnitaryMatrix(block)


def run_fixed_phase(alg, inst):
    return _fixed_run(alg, lambda m: controlled_phase(inst, m))



def search_environment(steps, family, slot):
    """Columns a before the slot and the slot's environment G of a
    forward-query search over dense steps, the O(q²) way.

    Column y of a runs label y from |0..0> through the slots before
    ``slot``. Column y of G re-evolves U_slot a_y forward through every
    later slot, keeps its O = y rows, then undoes the later slots backward.
    Each oracle is the dense ``controlled_u`` on (B, W), padded with the
    identity on the leading O register.
    """
    n = family.n
    dim = steps[0].shape[0]
    a_cols, g_cols = [], []
    for y in range(n):
        oracle = np.kron(np.eye(n), controlled_u(family, y).matrix)
        vec = np.zeros(dim, dtype=np.complex128)
        vec[0] = 1.0
        for step in steps[:slot]:
            vec = oracle @ (step @ vec)
        a_cols.append(vec)
        vec = steps[slot] @ vec
        for step in steps[slot + 1 :]:
            vec = step @ (oracle @ vec)
        keep = np.zeros((n, dim // n))
        keep[y] = 1.0
        vec = vec * keep.reshape(-1)
        for step in steps[: slot : -1]:
            vec = oracle.conj().T @ (step.conj().T @ vec)
        g_cols.append(vec)
    return np.array(a_cols).T, np.array(g_cols).T


class OneDraw:
    """The Haar column step drawn one step at a time: the real, then the
    imaginary part of one dim x m Gaussian per call, its QR with each column
    of Q turned by the phase of its R diagonal entry, applied as V R_X."""

    def __init__(self, rng):
        self.rng = rng

    def __matmul__(self, cols):
        dim, m = cols.shape
        z = self.rng.standard_normal((dim, m)) + 1j * self.rng.standard_normal((dim, m))
        v, r = np.linalg.qr(z / np.sqrt(2))
        d = np.diagonal(r)
        return (v * (d / np.abs(d))) @ np.linalg.qr(cols, mode="r")


def haar_trial(family, exponents, rng):
    """One Haar column run on its own: ``OneDraw`` steps on ``rng`` through
    ``_evolve`` on the n label columns. Returns the final columns and the
    counter spectrum after every step."""
    n = family.n
    layout = standard_layout(n, family.work_dim)
    steps = [OneDraw(rng)] * (len(exponents) + 1)
    snaps = []
    cols = _evolve(
        _start(layout, n), steps, exponents, n, family.eigenstate,
        _label_turns(range(n), n), lambda c: snaps.append(_spectrum(c) / n),
    )
    return cols, snaps
