"""Query-algorithm runs in the fixed-label and purified views.

A register is its position. An algorithm owns registers O (output, dim
n), B (oracle control wire, dim 2) and W (work space the oracle acts on) at
positions 0, 1 and 2, then any ancillas, and a start state, all-zeros
unless given; another register order is a relabelling of the basis that
the steps can absorb. Its steps are unitaries over those registers, each
stored as a short product of local factors (a matrix on the leading
registers, or a slice of O on which B is flipped); between consecutive
steps the simulator applies the oracle to (B, W). The purified view appends a
counter register C of dimension n last, at ``COUNTER = -1``, in the zero
Fourier state, which makes the purified state (1/sqrt(n)) sum_y
|psi_y>|y> with psi_y the fixed-label run of member y.

So every view is one computation: ``_evolve`` runs a dim x m matrix whose
columns each carry one oracle root of unity, a query being a rank-1 update
on the B = 1 slice along the eigenstate. Once per run, ``_evolve`` asks
``_basis_index`` whether the eigenstate is exactly a basis vector e_k, as
in every family the package builds; if so each query updates only the
B = 1, W = k row block, equal entry for entry to the rank-1 update.
``_counter_spectra`` reads the counter spectrum straight off the label
columns as an FFT along them, and
``_check_spectra`` checks once that it sums to 1; ``_label_success`` and
``_outcome_weights`` read O off the leading axis. Haar-random trials that
need no algorithm object run side by side in that same matrix, n label
columns per trial: ``_haar_runs`` draws each trial's steps on its own
generator, only on the columns they act on, and runs a whole chunk of
trials as one ``_evolve`` call, each trial bit for bit its own run.

Success probabilities are computed exactly from amplitudes in all
verification paths; sampling never enters these functions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fourier import _spectrum, fourier_weights
from .linalg import (
    NORM_TOL,
    RegisterLayout,
    StateVector,
    UnitaryMatrix,
    _check_isometry,
    _haar_isometries,
    _integer,
    _unit_vector,
    haar_random_unitary,
)
from .oracles import FORWARD, PhaseOracleFamily, _label_roots

COUNTER = -1  # the purified counter's position: after the algorithm's registers


@dataclass(frozen=True, eq=False)
class _Step:
    """One interleaving unitary as an ordered product of local factors.

    A factor is either a ``UnitaryMatrix`` on the leading registers of the
    layout whose dimensions multiply to its own (O alone for a k x k matrix
    with k = dim O, every register for a dense step) and the identity on
    the rest, or a ``slice`` of O, with no step, on which B is flipped and
    everything else is left alone. Factors apply in the listed order. Only
    the package builds steps, from factors valid by construction, so
    nothing is checked, copied or frozen here: ``QueryAlgorithm`` wraps a
    dense ``UnitaryMatrix`` whose dimension it checked, and ``_assemble``
    its walk of slices and the cached F†.
    """

    layout: RegisterLayout
    factors: tuple

    def __matmul__(self, cols: np.ndarray) -> np.ndarray:
        """The step applied to a dim x m column matrix; returns a new array
        and never writes into ``cols``.

        A flip is one copy of the columns and one slice assignment on the
        (n, 2, rest) view, rows indexed by O and B. A k x k matrix factor is
        one product on the (k, rest) reshape view, rows indexed by its
        leading registers and columns by the rest.
        """
        for factor in self.factors:
            if isinstance(factor, slice):
                n = self.layout.dims[0]
                flipped = cols.copy()
                flipped.reshape(n, 2, -1)[factor] = cols.reshape(n, 2, -1)[factor, ::-1]
                cols = flipped
            else:
                cols = (factor.matrix @ cols.reshape(factor.dim, -1)).reshape(cols.shape)
        return cols


@dataclass(frozen=True, eq=False)
class QueryAlgorithm:
    """Register layout plus the interleaving unitaries of a q-query algorithm.

    The layout starts O, B (dimension 2), W, so the problem size ``n`` is
    ``dims[0]`` and ``work_dim`` is ``dims[2]``; any later registers are
    ancillas, and none is reserved: the purified counter follows them all.

    ``steps`` holds q+1 steps over the layout. A step from outside the
    package is a dense ``UnitaryMatrix`` of the layout's dimension, which
    becomes the one-factor ``_Step`` on every register, without a copy or a
    second unitarity check; a ``_Step`` taken from another algorithm's
    ``steps`` must be over the same layout. ``exponents`` holds the oracle
    power of each query, an int (numpy ints are stored as int; a bool is
    rejected).
    ``start`` is the initial state, a finite unit vector over the layout,
    stored frozen; the default is the all-zeros basis state.
    """

    layout: RegisterLayout
    steps: tuple[_Step, ...]
    exponents: tuple[int, ...]
    start: np.ndarray | None = None

    def __post_init__(self):
        exponents = tuple(_integer(m, "query exponent") for m in self.exponents)
        object.__setattr__(self, "exponents", exponents)
        dims = self.layout.dims
        if len(dims) < 3 or dims[1] != 2:
            raise ValueError(
                f"an algorithm's registers must start O, B (dimension 2), W, got dims {dims}"
            )
        total = self.layout.total_dim
        steps = []
        for i, step in enumerate(self.steps):
            if isinstance(step, UnitaryMatrix):
                if step.dim != total:
                    raise ValueError(
                        f"dense step {i} has dimension {step.dim}, layout expects {total}"
                    )
                step = _Step(self.layout, (step,))
            if not isinstance(step, _Step):
                raise TypeError(f"step {i} must be a UnitaryMatrix, got {type(step).__name__}")
            if step.layout is not self.layout and step.layout != self.layout:
                raise ValueError(f"step {i} is over dims {step.layout.dims}, not the layout")
            steps.append(step)
        if not steps:
            raise ValueError("an algorithm needs at least one step")
        if len(exponents) != len(steps) - 1:
            raise ValueError(
                f"{len(steps)} steps require {len(steps) - 1} query exponents, "
                f"got {len(exponents)}"
            )
        object.__setattr__(self, "steps", tuple(steps))
        start = np.eye(1, total) if self.start is None else self.start
        start = _unit_vector(start, "start")
        if start.shape != (total,):
            raise ValueError(f"start has length {start.shape[0]}, layout expects {total}")
        object.__setattr__(self, "start", start)

    @property
    def n(self) -> int:
        return self.layout.dims[0]

    @property
    def q(self) -> int:
        return len(self.exponents)

    @property
    def work_dim(self) -> int:
        return self.layout.dims[2]


@dataclass(frozen=True, eq=False)
class RunTranscript:
    """Counter-spectrum snapshots of one purified run.

    ``counter_weights[j]`` is the Fourier weight vector of C after j queries
    (the algorithm steps in between leave it unchanged).
    """

    counter_weights: tuple[np.ndarray, ...]
    final_state: StateVector

    def __post_init__(self):
        _check_spectra(self.counter_weights)


def _counter_spectra(cols: np.ndarray, n: int) -> np.ndarray:
    """Counter weights of each run of n label columns side by side in a
    dim x (T n) matrix, shape (T, n): run t's purified state is its columns
    over sqrt(n), and its weights are ``_spectrum(cols_t) / n`` bit for bit."""
    return _spectrum(cols.reshape(cols.shape[0], -1, n)) / n


def _check_spectra(spectra, name="snapshot {}".format) -> None:
    """Raise ``ValueError`` naming the first entry j of ``spectra`` that does
    not sum to 1 within ``NORM_TOL`` as ``name(j)``, by default snapshot j,
    the spectrum after j queries; NaN and Inf fail."""
    totals = np.sum(spectra, axis=-1)
    ok = np.abs(totals - 1.0) <= NORM_TOL  # NaN and Inf compare False
    if not ok.all():
        j = int(np.argmin(ok))
        raise ValueError(f"{name(j)} weights sum to {float(totals[j])}, expected 1")


def _check_compatible(alg: QueryAlgorithm, family: PhaseOracleFamily) -> None:
    if alg.n != family.n:
        raise ValueError(f"algorithm expects {alg.n} phases, family has {family.n}")
    if alg.work_dim != family.work_dim:
        raise ValueError(
            f"work register has dimension {alg.work_dim}, family acts on {family.work_dim}"
        )


def _basis_index(eigenstate):
    """What ``_query`` takes for the eigenstate u: the pair (k, len(u)) when
    u is exactly the basis vector e_k, one entry equal to 1.0 and every other
    entry 0, else u itself. A phased or tilted e_k is not a basis vector."""
    nonzero = np.flatnonzero(eigenstate)
    if len(nonzero) == 1 and eigenstate[nonzero[0]] == 1.0:
        return int(nonzero[0]), len(eigenstate)
    return eigenstate


def _query(cols: np.ndarray, n: int, eigenstate, factor) -> np.ndarray:
    """One oracle call on every column: W <- W + factor * u<u|W> where B = 1.

    The rows are over (O, B, W[, ancillas]) with dims (n, 2, len(u), ...).
    ``factor[j]`` is e^(2 pi i phi_j m) - 1 for column j's phase phi_j and the
    query power m; the B = 0 slice and the complement of u are left alone.
    ``eigenstate`` is what ``_basis_index`` returns for u, decided once per
    run by the caller. Any unit u takes the rank-1 update: one vector-matrix
    product for <u|W> and one broadcast update. For u = e_k, the pair
    (k, w), <u|W> is exactly the B = 1, W = k row block s, so the call is
    one update s <- s + s * factor, equal to the rank-1 update entry for
    entry (only the sign of a zero can differ).
    Writes into ``cols`` when it is contiguous; callers use the return value.
    """
    m = cols.shape[-1]
    if isinstance(eigenstate, tuple):
        k, w = eigenstate
        t = cols.reshape(n, 2, w, -1, m)
        s = t[:, 1, k]  # (O, rest, m)
        s += s * factor
        return t.reshape(cols.shape)
    t = cols.reshape(n, 2, len(eigenstate), -1)
    s = t[:, 1]  # the B = 1 slice, (O, W, rest * m)
    inner = (eigenstate.conj() @ s).reshape(-1, m) * factor
    s += eigenstate[:, None] * inner.reshape(n, 1, -1)
    return t.reshape(cols.shape)


def _evolve(cols, steps, exponents, n, eigenstate, roots, snapshot=None) -> np.ndarray:
    """Apply steps[0], then each query followed by the next step, to the columns.

    The rows are over (O, B, W[, ancillas]) with dim O = n, as in ``_query``,
    and ``_basis_index`` decides once how every query applies the eigenstate.
    ``roots(m)``, called once per exponent, gives every column's oracle root
    of unity to the power m (``oracles._label_roots`` on a grid); an exponent
    is any hashable value ``roots`` reads, such as an int, or a tuple with
    one power per run for ``_haar_runs``. When given, ``snapshot(cols)`` is
    called after each step. A step is anything that maps the columns with
    ``@``: a ``_Step``, an ``_IsometryStep`` or a dense matrix.
    """
    eigenstate = _basis_index(eigenstate)
    factors = {}
    steps = iter(steps)
    cols = next(steps) @ cols
    if snapshot is not None:
        snapshot(cols)
    for m, step in zip(exponents, steps):
        if m not in factors:
            factors[m] = roots(m) - 1.0
        cols = step @ _query(cols, n, eigenstate, factors[m])
        if snapshot is not None:
            snapshot(cols)
    return cols


def _start(dim: int, m: int) -> np.ndarray:
    """m columns of length dim, each the all-zeros basis state."""
    cols = np.zeros((dim, m), dtype=np.complex128)
    cols[0] = 1.0
    return cols


def _run(alg: QueryAlgorithm, eigenstate, roots, m: int, snapshot=None) -> np.ndarray:
    """The algorithm on m columns, each started at ``alg.start``; ``roots`` as in ``_evolve``."""
    cols = np.repeat(alg.start[:, None], m, axis=1)
    return _evolve(cols, alg.steps, alg.exponents, alg.n, eigenstate, roots, snapshot)


def _run_labels(alg: QueryAlgorithm, family: PhaseOracleFamily, snapshot=None):
    """Column y is the fixed-label run of family member y, for y < n."""
    _check_compatible(alg, family)
    roots = _label_roots(range(family.n), family.n)
    return _run(alg, family.eigenstate, roots, family.n, snapshot)


def _label_success(cols: np.ndarray) -> float:
    """Weight of O = y in column y of the n label columns, averaged over them."""
    n = cols.shape[-1]
    diag = np.diagonal(cols.reshape(n, -1, n), axis1=0, axis2=2)
    return float(np.sum(np.abs(diag) ** 2)) / n


def _outcome_weights(cols: np.ndarray, n: int) -> np.ndarray:
    """Entry [y, j] is the probability of outcome y on O, of dimension n, in
    column j: the squared amplitudes summed over every other register."""
    return (np.abs(cols.reshape(n, -1, cols.shape[-1])) ** 2).sum(axis=1)


def _purified_state(layout: RegisterLayout, cols: np.ndarray) -> StateVector:
    """The purified state of n label columns over ``layout``."""
    # C is the last, least significant register, so column y is the C = y slice
    n = cols.shape[-1]
    purified = RegisterLayout(layout.dims + (n,))
    return StateVector(purified, cols.reshape(-1) / np.sqrt(n))


def run_purified(alg: QueryAlgorithm, family: PhaseOracleFamily) -> StateVector:
    """Final state on (algorithm registers) x C in the purified view."""
    return _purified_state(alg.layout, _run_labels(alg, family))


def run_purified_transcript(alg: QueryAlgorithm, family: PhaseOracleFamily) -> RunTranscript:
    """Purified run keeping a counter-spectrum snapshot after every query."""
    snaps = []
    cols = _run_labels(alg, family, lambda c: snaps.append(_counter_spectra(c, alg.n)[0]))
    return RunTranscript(tuple(snaps), _purified_state(alg.layout, cols))


def counter_leakage(state: StateVector, budget: int) -> float:
    """Total Fourier weight of the counter register beyond ``budget``."""
    budget = _integer(budget, "leakage budget", 0)
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
    n = _integer(n, "number of phases", 1)
    cur = {0}
    sets = [set(cur)]
    for m in exponents:
        m = _integer(m, "query exponent")
        cur = cur | {(v + m) % n for v in cur}
        sets.append(set(cur))
    return sets


def success_probability_purified(state: StateVector) -> float:
    """Probability that measuring O, the first register, and C, the last,
    in the computational basis agrees."""
    dims = state.layout.dims
    if len(dims) < 2 or dims[0] != dims[COUNTER]:
        raise ValueError(f"O and C must be two registers of equal dimension, got dims {dims}")
    probs = np.abs(state.tensor_view()) ** 2
    joint = probs.sum(axis=tuple(range(1, probs.ndim - 1)))
    return float(np.trace(joint))


def success_probability_average(alg: QueryAlgorithm, family: PhaseOracleFamily) -> float:
    """Success probability averaged over a uniformly random family member."""
    return _label_success(_run_labels(alg, family))


def standard_layout(n: int, work_dim: int = 2) -> RegisterLayout:
    """The (O, B, W) layout shared by the built-in algorithm constructors,
    one cached value per (n, work_dim)."""
    n, work_dim = _integer(n, "problem size", 1), _integer(work_dim, "work dimension", 1)
    return _standard_layout(n, work_dim)


@functools.lru_cache(maxsize=64)
def _standard_layout(n: int, work_dim: int) -> RegisterLayout:
    return RegisterLayout((n, 2, work_dim))


def haar_random_algorithm(n: int, q: int, seed) -> QueryAlgorithm:
    """Algorithm with q+1 independent Haar-random steps on (O, B, W) and q
    forward queries; ``dataclasses.replace`` sets another schedule."""
    q = _integer(q, "query count", 0)
    rng = np.random.default_rng(seed)
    layout = standard_layout(n)
    # one draw per step, not one stacked (q+1, dim, dim) draw: stacking
    # holds every step's Gaussian and QR work at once, and raised the peak
    # RSS of a haar-grid benchmark pass (dim up to 256) from 57 MB to 92 MB
    steps = tuple(haar_random_unitary(layout.total_dim, rng) for _ in range(q + 1))
    return QueryAlgorithm(layout, steps, (FORWARD,) * q)


class _IsometryStep:
    """Haar-random steps drawn only on the columns they act on, one per run
    of m columns side by side.

    ``_IsometryStep(V) @ X`` for V of shape (T, dim, m), or (dim, m) for
    T = 1, and a dim x (T m) column matrix X maps run t's columns X_t
    (m <= dim) to V_t R_t, where X_t = Q_t R_t is a reduced QR; one exists
    even when X_t is rank deficient, as the all-zeros start columns are. For
    V_t a Haar-random isometry drawn independently of X_t, as
    ``_haar_isometries`` gives, this has the law of U X_t for a fresh
    Haar-random unitary U on C^dim: U X_t = (U Q_t) R_t, and U Q_t is a
    Haar-random isometry, the first m columns of U W for any unitary W
    completing Q_t, with U W Haar by the invariance of Haar measure
    (Mezzadri 2007, arXiv:math-ph/0609050). So a run of such steps has the
    law of the same run on ``haar_random_algorithm``, though a seed maps to
    different columns. Per run, a step costs two thin QRs (V_t's draw and
    X_t's) and an m x m check, not a dim x dim QR and a dim x dim check; the
    runs share one stacked QR and one stacked product, and run t's result
    does not depend on the runs beside it, bit for bit.
    """

    def __init__(self, v: np.ndarray):
        self.v = v

    def __matmul__(self, cols: np.ndarray) -> np.ndarray:
        dim, m = self.v.shape[-2:]
        out = np.empty(cols.shape, dtype=np.complex128)
        runs = cols.reshape(dim, -1, m).swapaxes(0, 1)  # (T, dim, m) views
        r = np.linalg.qr(runs, mode="r")
        np.matmul(self.v, r, out=out.reshape(dim, -1, m).swapaxes(0, 1))
        return out


# Most complex elements of isometries one ``_haar_runs`` chunk draws at
# once (4 MB): n = 64 at q = 12 is one trial a chunk, not 25 trials' 85 MB.
_CHUNK_ELEMENTS = 1 << 18


def _haar_runs(family: PhaseOracleFamily, exponents, rngs):
    """Haar-random algorithms on (O, B, W), run side by side; yields each
    trial's dim x n label columns, as in ``_run_labels``, and its (q+1, n)
    counter spectra, row j after j queries, in trial order.

    Trial t queries with ``exponents[t]`` (the same number q for every
    trial) and draws the isometries of its q+1 steps at once by
    ``_haar_isometries`` on ``rngs[t]``. The trials go in chunks of at most
    ``_CHUNK_ELEMENTS`` drawn elements, and a chunk is one ``_evolve`` run
    over dim x (T n) columns: its steps are ``_IsometryStep``s, each query
    has one factor per column, from that trial's exponent, and
    ``_counter_spectra`` reads the spectra after each step. A trial's result
    does not depend on the trials beside it or on the chunking, bit for bit.
    A trial that fails ``_check_isometry`` or ``_check_spectra`` raises
    ``ValueError`` when its turn comes, after the trials before it.
    """
    n = family.n
    dim = standard_layout(n, family.work_dim).total_dim
    q = len(exponents[0])
    size = max(1, _CHUNK_ELEMENTS // ((q + 1) * dim * n))
    for lo in range(0, len(rngs), size):
        batch = rngs[lo : lo + size]
        powers = np.array(exponents[lo : lo + size], dtype=int).reshape(len(batch), q)
        vs, dev = _haar_isometries(batch, q + 1, dim, n)
        roots = _label_roots(np.tile(np.arange(n), len(batch)), n)
        snaps = []
        cols = _evolve(
            _start(dim, len(batch) * n),
            [_IsometryStep(vs[:, j]) for j in range(q + 1)],
            [tuple(m) for m in powers.T],
            n,
            family.eigenstate,
            lambda m: roots(np.repeat(m, n)),
            lambda c: snaps.append(_counter_spectra(c, n)),
        ).reshape(dim, -1, n)
        del vs  # before the next chunk draws, while the trials are read
        spectra = np.stack(snaps, axis=1)  # (T, q+1, n)
        for t in range(len(batch)):
            _check_isometry(dev[t])
            _check_spectra(spectra[t])
            yield cols[:, t], spectra[t]
