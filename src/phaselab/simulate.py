"""Query-algorithm runs in the fixed-label and purified views.

An algorithm owns registers O (output, dim n), B (oracle control wire,
dim 2), W (work space the oracle acts on) and optionally more. Its steps
are unitaries over those registers, each stored as a short product of
local factors (a matrix on a few registers, or a basis permutation);
between consecutive steps the simulator applies the oracle to (B, W). The
purified view appends a counter register C of dimension n initialized to
the zero Fourier state, which makes the purified state
(1/sqrt(n)) sum_y |psi_y>|y> with psi_y the fixed-label run of member y.

So every view is one computation: ``_evolve`` runs a dim x m matrix whose
columns each carry one oracle phase, a query being a rank-1 update on the
B = 1 slice along the eigenstate. The counter spectrum of the purified
state is an FFT along the columns.

Success probabilities are computed exactly from amplitudes in all
verification paths; sampling never enters these functions.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fourier import _spectrum, fourier_weights
from .linalg import (
    UNITARITY_TOL,
    RegisterLayout,
    StateVector,
    UnitaryMatrix,
    _haar_isometries,
    haar_random_unitary,
)
from .oracles import FORWARD, PhaseInstance, PhaseOracleFamily

OUTPUT = "O"
CONTROL = "B"
WORK = "W"
COUNTER = "C"


@dataclass(frozen=True, eq=False)
class Step:
    """One interleaving unitary as an ordered product of local factors.

    A factor is either ``(matrix, targets)``, a ``UnitaryMatrix`` on the
    listed registers (first target most significant) and the identity on
    the rest, or a basis permutation: an int array ``perm`` of length
    ``layout.total_dim`` that sends basis state perm[i] to i. Factors apply
    in the listed order. Each is checked once, at its own size: targets
    exist and are distinct, the matrix dimension matches the registers it
    spans, and a permutation is a bijection. A matrix is not re-checked for
    unitarity; ``UnitaryMatrix`` did that when it was built.
    """

    layout: RegisterLayout
    factors: tuple

    def __post_init__(self):
        factors = tuple(_checked_factor(self.layout, f) for f in self.factors)
        if not factors:
            raise ValueError("a step needs at least one factor")
        object.__setattr__(self, "factors", factors)

    def __matmul__(self, cols: np.ndarray) -> np.ndarray:
        """The step applied to a dim x m column matrix; returns a new array.

        Row i after a permutation factor is row perm[i] before it; a matrix
        factor on every register in layout order is a plain product.
        """
        for factor in self.factors:
            if isinstance(factor, np.ndarray):
                cols = cols[factor]
            else:
                cols = _apply_factor(cols, self.layout, *factor)
        return cols


def _checked_factor(layout: RegisterLayout, factor):
    if isinstance(factor, tuple):
        u, targets = factor
        if not isinstance(u, UnitaryMatrix):
            raise TypeError(f"a matrix factor must be a UnitaryMatrix, got {type(u).__name__}")
        targets = tuple(targets)
        unknown = [t for t in targets if t not in layout.labels]
        if unknown:
            raise ValueError(f"unknown target registers {unknown}, layout has {layout.labels}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate target registers: {targets}")
        span = math.prod(layout.dim_of(t) for t in targets)
        if span != u.dim:
            raise ValueError(
                f"target registers {targets} span dimension {span}, matrix has dimension {u.dim}"
            )
        return u, targets
    perm = np.array(factor)
    if perm.dtype.kind not in "iu":
        raise TypeError(f"a permutation factor must be an integer array, got {perm.dtype}")
    total = layout.total_dim
    if perm.shape != (total,):
        raise ValueError(f"permutation has shape {perm.shape}, layout expects ({total},)")
    if not np.array_equal(np.sort(perm), np.arange(total)):
        raise ValueError("permutation factor is not a bijection of the basis states")
    perm.setflags(write=False)
    return perm


def _apply_factor(cols, layout: RegisterLayout, u: UnitaryMatrix, targets) -> np.ndarray:
    """``u`` on the target registers of every column, identity elsewhere."""
    if targets == layout.labels:
        return u.matrix @ cols
    axes = [layout.axis(t) for t in targets]
    k = len(axes)
    block = tuple(layout.dims[a] for a in axes)
    t = cols.reshape(layout.dims + (cols.shape[-1],))
    t = np.tensordot(u.matrix.reshape(block + block), t, axes=(range(k, 2 * k), axes))
    return np.moveaxis(t, range(k), axes).reshape(cols.shape)


@dataclass(frozen=True, eq=False)
class QueryAlgorithm:
    """Register layout plus the interleaving unitaries of a q-query algorithm.

    ``steps`` holds q+1 ``Step``s over the layout; a dense ``UnitaryMatrix``
    passed in becomes the one-factor step on every register, without a copy
    or a second unitarity check. ``exponents`` holds the oracle power of each
    query, an int (numpy ints are stored as int; a bool is rejected). The
    initial state is all-zeros; any other start state is folded into the
    first step.
    """

    n: int
    layout: RegisterLayout
    steps: tuple[Step, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        exponents = tuple(self.exponents)
        if any(isinstance(m, bool) or not isinstance(m, numbers.Integral) for m in exponents):
            raise ValueError(f"query exponents must be integers, got {exponents!r}")
        object.__setattr__(self, "exponents", tuple(map(int, exponents)))
        if self.n < 1:
            raise ValueError(f"problem size must be >= 1, got {self.n}")
        if self.layout.dim_of(OUTPUT) != self.n:
            raise ValueError("output register O must have dimension n")
        if self.layout.dim_of(CONTROL) != 2:
            raise ValueError("control wire B must have dimension 2")
        self.layout.axis(WORK)
        if COUNTER in self.layout.labels:
            raise ValueError("label C is reserved for the purified counter register")
        labels = self.layout.labels
        steps = tuple(
            Step(self.layout, ((s, labels),)) if isinstance(s, UnitaryMatrix) else s
            for s in self.steps
        )
        if len(steps) < 1:
            raise ValueError("an algorithm needs at least one step")
        if len(self.exponents) != len(steps) - 1:
            raise ValueError(
                f"{len(steps)} steps require {len(steps) - 1} query exponents, "
                f"got {len(self.exponents)}"
            )
        for i, step in enumerate(steps):
            if not isinstance(step, Step):
                raise TypeError(f"step {i} must be a Step or a UnitaryMatrix")
            if step.layout != self.layout:
                raise ValueError(f"step {i} is over {step.layout.registers}, not the layout")
        object.__setattr__(self, "steps", steps)

    @property
    def q(self) -> int:
        return len(self.exponents)

    @property
    def work_dim(self) -> int:
        return self.layout.dim_of(WORK)


@dataclass(frozen=True, eq=False)
class RunTranscript:
    """Counter-spectrum snapshots of one purified run.

    ``counter_weights[j]`` is the Fourier weight vector of C after j queries
    (the algorithm steps in between leave it unchanged).
    """

    n: int
    q: int
    counter_weights: tuple[np.ndarray, ...]
    final_state: StateVector

    def __post_init__(self):
        if len(self.counter_weights) != self.q + 1:
            raise ValueError(f"expected {self.q + 1} snapshots, got {len(self.counter_weights)}")
        for j, w in enumerate(self.counter_weights):
            total = float(np.sum(w))
            if not abs(total - 1.0) <= 1e-9:  # NaN fails too
                raise ValueError(f"snapshot {j} weights sum to {total}, expected 1")


def _check_compatible(alg: QueryAlgorithm, family: PhaseOracleFamily) -> None:
    if alg.n != family.n:
        raise ValueError(f"algorithm expects {alg.n} phases, family has {family.n}")
    if alg.work_dim != family.work_dim:
        raise ValueError(
            f"work register has dimension {alg.work_dim}, family acts on {family.work_dim}"
        )


@functools.lru_cache(maxsize=64)
def _query_blocks(layout: RegisterLayout):
    """The layout's dims merged into ``(A, lo, M, hi, R)``, with B and W at
    axes 1 and 3 in layout order and A, M and R the products of the dims
    before, between and after them; and whether W comes before B.
    ``_query`` appends the columns to R."""
    ax_b, ax_w = layout.axis(CONTROL), layout.axis(WORK)
    first, second = sorted((ax_b, ax_w))
    dims = layout.dims
    blocks = (
        math.prod(dims[:first]), dims[first], math.prod(dims[first + 1 : second]),
        dims[second], math.prod(dims[second + 1 :]),
    )
    return blocks, ax_w < ax_b


def _query(cols: np.ndarray, layout: RegisterLayout, eigenstate, factor) -> np.ndarray:
    """One oracle call on every column: W <- W + factor * u<u|W> where B = 1.

    ``factor[j]`` is e^(2 pi i phi_j m) - 1 for column j's phase phi_j and the
    query power m; the B = 0 slice and the complement of u are left alone.
    Writes into ``cols`` when it is contiguous; callers use the return value.
    """
    (a, lo, mid, hi, r), w_first = _query_blocks(layout)
    m = cols.shape[-1]
    t = cols.reshape(a, lo, mid, hi, r * m)
    # the B = 1 slice as (A, M, W, R * m): W next to the columns
    s = t[:, :, :, 1].swapaxes(1, 2) if w_first else t[:, 1]
    inner = (eigenstate.conj() @ s).reshape(-1, m) * factor
    s += eigenstate[:, None] * inner.reshape(a, mid, 1, r * m)
    return t.reshape(cols.shape)


def _evolve(cols, steps, exponents, layout, eigenstate, turns, snapshots=None) -> np.ndarray:
    """Apply steps[0], then each query followed by the next step, to the columns.

    ``turns(m)`` gives, in turns, the phase of every column's oracle raised
    to the power m. When ``snapshots`` is a list, the counter spectrum of the
    columns (one per label of an n-phase family) is appended after each step.
    A step is anything that maps the columns with ``@``: a ``Step`` or a
    dense matrix.
    """
    factors = {}
    steps = iter(steps)
    cols = next(steps) @ cols
    if snapshots is not None:
        snapshots.append(_spectrum(cols) / cols.shape[-1])
    for m, step in zip(exponents, steps):
        if m not in factors:
            factors[m] = np.exp(2j * np.pi * turns(m)) - 1.0
        cols = step @ _query(cols, layout, eigenstate, factors[m])
        if snapshots is not None:
            snapshots.append(_spectrum(cols) / cols.shape[-1])
    return cols


def _start(layout: RegisterLayout, m: int) -> np.ndarray:
    """m columns, each the all-zeros basis state."""
    cols = np.zeros((layout.total_dim, m), dtype=np.complex128)
    cols[0] = 1.0
    return cols


def _label_turns(labels, n):
    """Phases labels/n raised to m, with y*m reduced mod n first; ``n`` is
    the family size or an array of per-column denominators."""
    labels = np.asarray(labels)
    return lambda m: (labels * m % n) / n


def _run(alg: QueryAlgorithm, eigenstate, turns, m: int, snapshots=None) -> np.ndarray:
    """The algorithm on m columns started at all-zeros; see ``_evolve``."""
    return _evolve(
        _start(alg.layout, m), alg.steps, alg.exponents, alg.layout, eigenstate, turns, snapshots
    )


def _run_labels(alg: QueryAlgorithm, family: PhaseOracleFamily, labels, snapshots=None):
    """Column j is the fixed-label run of family member labels[j]."""
    _check_compatible(alg, family)
    turns = _label_turns(labels, family.n)
    return _run(alg, family.eigenstate, turns, len(labels), snapshots)


def _label_success(cols: np.ndarray, layout: RegisterLayout) -> float:
    """Weight of O = y in column y, averaged over the columns."""
    t = cols.reshape(layout.dims + (cols.shape[-1],))
    diag = np.diagonal(t, axis1=layout.axis(OUTPUT), axis2=t.ndim - 1)
    return float(np.sum(np.abs(diag) ** 2)) / cols.shape[-1]


def run_fixed_phase(alg: QueryAlgorithm, inst: PhaseInstance) -> StateVector:
    """Final state when the oracle is a continuous-phase unitary."""
    if alg.work_dim != inst.work_dim:
        raise ValueError(
            f"work register has dimension {alg.work_dim}, instance acts on {inst.work_dim}"
        )
    cols = _run(alg, inst.eigenstate, lambda m: np.array([inst.theta * m]), 1)
    return StateVector(alg.layout, cols[:, 0])


def _purified_state(layout: RegisterLayout, cols: np.ndarray) -> StateVector:
    """The purified state of n label columns over ``layout``."""
    # C is the least significant register, so column y is the C = y slice
    n = cols.shape[-1]
    return StateVector(layout.extended(COUNTER, n), cols.reshape(-1) / np.sqrt(n))


def run_purified(alg: QueryAlgorithm, family: PhaseOracleFamily) -> StateVector:
    """Final state on (algorithm registers) x C in the purified view."""
    return _purified_state(alg.layout, _run_labels(alg, family, range(alg.n)))


def run_purified_transcript(alg: QueryAlgorithm, family: PhaseOracleFamily) -> RunTranscript:
    """Purified run keeping a counter-spectrum snapshot after every query."""
    snaps = []
    cols = _run_labels(alg, family, range(alg.n), snaps)
    return RunTranscript(
        n=alg.n, q=alg.q, counter_weights=tuple(snaps),
        final_state=_purified_state(alg.layout, cols),
    )


def counter_leakage(state: StateVector, budget: int) -> float:
    """Total Fourier weight of the counter register beyond ``budget``."""
    return leakage_from_weights(fourier_weights(state, COUNTER), range(budget + 1))


def leakage_from_weights(weights: np.ndarray, allowed) -> float:
    """Total weight of a Fourier weight vector outside an index set."""
    allowed = set(allowed)
    return float(sum(w for k, w in enumerate(weights) if k not in allowed))


def reachable_counter_values(exponents, n: int) -> list[set[int]]:
    """Counter values (mod n) reachable after each prefix of a query schedule.

    Each query adds its exponent on the branch where the control wire is set
    and the work register sits on the eigenstate, and leaves the counter
    alone on every other branch, so the reachable set after j queries is the
    set of subset sums of the first j exponents.

    Returns q+1 sets; entry j applies after j queries.
    """
    cur = {0}
    sets = [set(cur)]
    for m in exponents:
        cur = cur | {(v + m) % n for v in cur}
        sets.append(set(cur))
    return sets


def success_probability_purified(state: StateVector) -> float:
    """Probability that measuring O and C in the computational basis agrees."""
    layout = state.layout
    ax_o, ax_c = layout.axis(OUTPUT), layout.axis(COUNTER)
    if layout.dims[ax_o] != layout.dims[ax_c]:
        raise ValueError("output and counter registers must have equal dimension")
    probs = np.abs(state.tensor_view()) ** 2
    other = tuple(i for i in range(probs.ndim) if i not in (ax_o, ax_c))
    joint = probs.sum(axis=other)
    return float(np.trace(joint))


def success_probability_average(alg: QueryAlgorithm, family: PhaseOracleFamily) -> float:
    """Success probability averaged over a uniformly random family member."""
    return _label_success(_run_labels(alg, family, range(family.n)), alg.layout)


def standard_layout(n: int, work_dim: int = 2) -> RegisterLayout:
    """The (O, B, W) layout shared by the built-in algorithm constructors."""
    return RegisterLayout(((OUTPUT, n), (CONTROL, 2), (WORK, work_dim)))


def haar_random_algorithm(
    n: int,
    q: int,
    seed,
    work_dim: int = 2,
    exponents: tuple[int, ...] | None = None,
) -> QueryAlgorithm:
    """Algorithm with q+1 independent Haar-random steps on (O, B, W)."""
    if q < 0:
        raise ValueError(f"query count must be >= 0, got {q}")
    rng = np.random.default_rng(seed)
    layout = standard_layout(n, work_dim)
    steps = tuple(haar_random_unitary(layout.total_dim, rng) for _ in range(q + 1))
    if exponents is None:
        exponents = (FORWARD,) * q
    return QueryAlgorithm(n=n, layout=layout, steps=steps, exponents=exponents)


def _checked_isometries(rng, count: int, dim: int, m: int) -> np.ndarray:
    """``count`` dim x m isometries from ``_haar_isometries``, stacked on
    axis 0, after rejecting m > dim; every V is checked here, once:
    max |V†V - I| <= 1e-9, and NaN fails."""
    if m > dim:
        raise ValueError(f"cannot draw a {dim} x {m} isometry: more columns than rows")
    v = _haar_isometries(rng, count, dim, m)
    dev = np.max(np.abs(v.conj().swapaxes(1, 2) @ v - np.eye(m)))
    if not dev <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(f"sampled isometry fails its check: max |V†V - I| = {dev:.3e}")
    return v


class _IsometryStep:
    """A Haar-random step drawn only on the columns it acts on.

    ``_IsometryStep(V) @ X`` for a dim x m column matrix X (m <= dim) is
    V R_X, where X = Q_X R_X is a reduced QR; one exists even when X is rank
    deficient, as the all-zeros start columns are. For V a Haar-random
    isometry drawn independently of X, as ``_checked_isometries`` gives,
    this has the law of U X for a fresh Haar-random unitary U on C^dim:
    U X = (U Q_X) R_X, and U Q_X is a Haar-random isometry, the first m
    columns of U W for any unitary W completing Q_X, with U W Haar by the
    invariance of Haar measure (Mezzadri 2007, arXiv:math-ph/0609050). So a
    run of such steps has the law of the same run on
    ``haar_random_algorithm``, though a seed maps to different columns. A
    step costs two thin QRs and an m x m check, not a dim x dim QR and a
    dim x dim check.
    """

    def __init__(self, v: np.ndarray):
        self.v = v

    def __matmul__(self, cols: np.ndarray) -> np.ndarray:
        return self.v @ np.linalg.qr(cols, mode="r")


def _haar_run(family: PhaseOracleFamily, exponents, rng, snapshots=None) -> np.ndarray:
    """Label columns of a Haar-random algorithm on (O, B, W) querying with
    ``exponents``, the isometries of its len(exponents) + 1 steps drawn at
    once by ``_checked_isometries`` on ``rng``; column y is the fixed-label
    run of member y, as in ``_run_labels``. For rows that need no algorithm
    object."""
    n = family.n
    layout = standard_layout(n, family.work_dim)
    vs = _checked_isometries(rng, len(exponents) + 1, layout.total_dim, n)
    steps = [_IsometryStep(v) for v in vs]
    turns = _label_turns(range(n), n)
    return _evolve(_start(layout, n), steps, exponents, layout, family.eigenstate, turns, snapshots)


def _haar_transcript(family: PhaseOracleFamily, exponents, rng) -> RunTranscript:
    """``run_purified_transcript`` of the Haar-random run of ``_haar_run``."""
    snaps = []
    cols = _haar_run(family, exponents, rng, snaps)
    layout = standard_layout(family.n, family.work_dim)
    return RunTranscript(
        n=family.n, q=len(exponents), counter_weights=tuple(snaps),
        final_state=_purified_state(layout, cols),
    )
