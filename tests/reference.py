"""Slow, obviously correct reference simulators for cross-checking phaselab.

Registers are addressed by position, as in ``phaselab``: O, B and W at 0, 1
and 2, then any ancillas, and the purified counter C appended after them.
Every query goes through a dense oracle matrix that this module builds
itself, label by label, and applies with ``apply_to_registers`` below:
``controlled_u`` on (B, W) for one label, the coherent oracle
``coherent_controlled_u`` on (B, W, C) for the purified view, whose counter
block y is label y's ``controlled_u``, and an explicit controlled phase block
on (B, W) for continuous phases. Counter spectra are read by rotating C with
the inverse of ``qft_matrix``. A step is applied factor by factor: a matrix
with ``apply_to_registers`` on the leading registers its dimension spans, a
flip by swapping B's two halves at each O value its slice selects, never
with ``_Step @``. The dense
``kron`` construction of the optimal circuits lives here too. None of this
shares code with the oracle in ``phaselab.oracles``, the simulation kernel in
``phaselab.simulate`` or the builders in ``phaselab.algorithms``, so
agreement between them is evidence.
The one exception is ``haar_trial`` at the end, the reference for how
Haar trials are batched and chunked: it runs one trial through the
kernel's ``_evolve``, drawing one step at a time.
"""

import math

import numpy as np

from phaselab.fourier import qft_matrix
from phaselab.linalg import RegisterLayout, StateVector, UnitaryMatrix, _integer
from phaselab.fourier import _spectrum
from phaselab.oracles import _label_roots
from phaselab.simulate import _evolve, _start, standard_layout


def zero_state(layout):
    """All-zeros computational basis state."""
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(layout, amps)


def apply_to_registers(state, u, axes):
    """Apply ``u`` to the registers at the listed positions, identity on the
    rest; a negative position counts from the end.

    The matrix is interpreted over the tensor product of the target registers
    in the given order (first target most significant).
    """
    dims = state.layout.dims
    axes = [range(len(dims))[a] for a in axes]  # IndexError when out of range
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate target registers: {axes}")
    block = math.prod(dims[a] for a in axes)
    if block != u.dim:
        raise ValueError(
            f"target registers {axes} span dimension {block}, matrix has dimension {u.dim}"
        )
    psi = np.moveaxis(state.amps.reshape(dims), axes, range(len(axes)))
    moved_shape = psi.shape
    psi = u.matrix @ psi.reshape(block, -1)
    psi = np.moveaxis(psi.reshape(moved_shape), range(len(axes)), axes)
    return StateVector(state.layout, psi.reshape(-1))


def projection_norm_sq(state, axis, value):
    """Probability weight of a computational basis value on the register at
    position ``axis``."""
    dim = state.layout.dims[axis]
    if not 0 <= value < dim:
        raise IndexError(f"value {value} out of range for register {axis} (dim {dim})")
    sub = np.take(state.amps.reshape(state.layout.dims), value, axis=axis)
    return float(np.sum(np.abs(sub) ** 2))


def apply_step(state, step):
    """The step's factors in order on a state over its layout, optionally
    with more registers appended (the purified counter)."""
    for factor in step.factors:
        if isinstance(factor, slice):
            # amplitude (o, b, rest) moves to (o, 1 - b, rest) for each o selected
            n = step.layout.dims[0]
            amps = state.amps.reshape(n, 2, -1).copy()
            for o in range(n)[factor]:
                amps[o] = amps[o, [1, 0]]
            state = StateVector(state.layout, amps.reshape(-1))
        else:
            state = apply_to_registers(state, factor, leading_axes(step.layout, factor.dim))
    return state


def leading_axes(layout, dim):
    """The positions of the first registers of ``layout`` whose dimensions
    multiply to ``dim``."""
    for k in range(1, len(layout.dims) + 1):
        if math.prod(layout.dims[:k]) == dim:
            return list(range(k))
    raise ValueError(f"no leading registers of dims {layout.dims} span dimension {dim}")


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


def _member_matrix(family, phase_power):
    """I + (w^phase_power - 1)|u><u|: w^phase_power on the eigenstate u,
    identity on its complement."""
    u = family.eigenstate
    phase = np.exp(2j * np.pi * (phase_power / family.n))
    return np.eye(len(u), dtype=np.complex128) + (phase - 1) * np.outer(u, u.conj())


def controlled_u(family, y, exponent=1):
    """Controlled member y on (control qubit, work): |0><0| I + |1><1| U_y^m
    for m = ``exponent``.

    The exponent is reduced modulo n first, since U_y^n is the identity.
    """
    y, exponent = _integer(y, "label"), _integer(exponent, "query exponent")
    if not 0 <= y < family.n:
        raise IndexError(f"label {y} out of range for {family.n} phases")
    d = family.work_dim
    block = np.eye(2 * d, dtype=np.complex128)
    block[d:, d:] = _member_matrix(family, (y * exponent) % family.n)
    return UnitaryMatrix(block)


def coherent_controlled_u(family, exponent=1):
    """Coherent oracle on (B, W, C), C least significant: the rows and
    columns with C = y hold label y's ``controlled_u``."""
    n, d = family.n, family.work_dim
    dim = 2 * d * n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for y in range(n):
        mat[y::n, y::n] = controlled_u(family, y, exponent).matrix
    return UnitaryMatrix(mat)


def purified_initial(alg):
    """The start on the algorithm's registers, then C in the zero Fourier
    state as one more register, at position ``len(alg.layout.dims)``."""
    amps = np.kron(alg.start, np.full(alg.n, 1.0 / np.sqrt(alg.n)))
    return StateVector(RegisterLayout(alg.layout.dims + (alg.n,)), amps)


def fourier_weights(state, axis):
    """Outcome probabilities after the inverse transform on the register at
    position ``axis``."""
    axis = range(len(state.layout.dims))[axis]
    rotated = apply_to_registers(state, qft_matrix(state.layout.dims[axis]).adjoint, [axis])
    probs = np.abs(rotated.tensor_view()) ** 2
    return probs.sum(axis=tuple(i for i in range(probs.ndim) if i != axis))


def purified_run(alg, family):
    """Final purified state and the counter spectrum after every step."""
    oracles = {m: coherent_controlled_u(family, m) for m in set(alg.exponents)}
    counter = len(alg.layout.dims)  # C follows the algorithm's registers
    state = apply_step(purified_initial(alg), alg.steps[0])
    snapshots = [fourier_weights(state, counter)]
    for m, step in zip(alg.exponents, alg.steps[1:]):
        state = apply_to_registers(state, oracles[m], [1, 2, counter])
        state = apply_step(state, step)
        snapshots.append(fourier_weights(state, counter))
    return state, snapshots


def run_purified(alg, family):
    return purified_run(alg, family)[0]


def _fixed_run(alg, oracle):
    """Run with ``oracle(m)`` on (B, W), positions 1 and 2, between
    consecutive steps, m the query's exponent."""
    state = apply_step(StateVector(alg.layout, alg.start), alg.steps[0])
    for m, step in zip(alg.exponents, alg.steps[1:]):
        state = apply_to_registers(state, oracle(m), [1, 2])
        state = apply_step(state, step)
    return state


def run_fixed_y(alg, family, y):
    return _fixed_run(alg, lambda m: controlled_u(family, y, m))


def success_probability_average(alg, family):
    return sum(
        projection_norm_sq(run_fixed_y(alg, family, y), 0, y) for y in range(family.n)
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
        _start(layout.total_dim, n), steps, exponents, n, family.eigenstate,
        _label_roots(range(n), n), lambda c: snaps.append(_spectrum(c) / n),
    )
    return cols, snaps
