"""Verification sweeps with seeded, reproducible, tabular output.

Every experiment produces rows in one fixed schema so that a single CSV/JSON
writer serves all sweep kinds. Columns are reused where a kind has no
natural probability: counter scans report their worst leakage in
``observed_probability`` against a ``bound_value`` equal to the leakage
budget, so the ``gap >= 0`` reading stays "this row passed".

All randomness is derived from the config seed; grid points get independent
per-task seeds that do not depend on execution order, so results merge
deterministically under any worker count.
"""

from __future__ import annotations

import datetime as _dt
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._version import __version__
from .algorithms import (
    _epr_computational,
    _outcome_weights,
    build_truncated_optimal,
    cemm_on_continuous_phase,
    epr_fourier_deviation,
    phase_distance,
    round_to_grid,
)
from .linalg import AMP_TOL, PROB_TOL, RegisterLayout, StateVector, UnitaryMatrix, haar_random_unitary
from .oracles import FORWARD, PhaseInstance, PhaseOracleFamily, default_family
from .simulate import (
    COUNTER,
    OUTPUT,
    QueryAlgorithm,
    _evolve,
    _haar_run,
    _haar_transcript,
    _label_success,
    _label_turns,
    _purified_state,
    _query,
    _run,
    _run_labels,
    _start,
    counter_leakage,
    leakage_from_weights,
    reachable_counter_values,
    run_purified,
    standard_layout,
    success_probability_purified,
)

EXPERIMENT_KINDS = (
    "bound-sweep",
    "counter-scan",
    "random-stress",
    "cemm-curve",
    "epr-check",
    "reduction-check",
)

# Kinds whose rows are indexed by (n, q); the others take one task per n.
_Q_KINDS = ("bound-sweep", "counter-scan", "random-stress", "reduction-check")

# Kinds that compute each row once and never read ``trials``.
_SINGLE_TRIAL_KINDS = ("cemm-curve", "epr-check", "reduction-check")

CSV_HEADER = "n,q,kind,trial,seed,observed_probability,bound_value,gap,max_leakage,wall_time_ms"

# Fourier weight allowed outside the schedule-consistent counter range.
LEAKAGE_BUDGET = AMP_TOL

# Output rows carry counter leakages at an absolute resolution of 1e-20. A
# leakage that is exactly zero comes out of BLAS as roundoff near 1e-29 that
# changes with the BLAS thread count; every tolerance is 1e-10 or wider.
RESOLUTION_DECIMALS = 20

# Row kinds whose observed_probability is itself a counter leakage.
_LEAKAGE_ROW_KINDS = ("forward", "schedule")

_ROW_KIND_CODES = {
    "optimal": 0,
    "haar": 1,
    "adversarial": 2,
    "forward": 3,
    "schedule": 4,
    "cemm": 5,
    "epr": 6,
    "reduction": 7,
}


class VerificationError(RuntimeError):
    """A sweep row violated a proven bound or leakage budget."""


def _sequence(name: str, values):
    if not isinstance(values, (list, tuple, range)):
        raise ValueError(f"{name} must be a list, got {values!r}")
    return values


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _integers(name: str, values) -> tuple[int, ...]:
    return tuple(_integer(name, v) for v in _sequence(name, values))


def _real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} entries must be real numbers, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n_values: tuple[int, ...]
    q_values: tuple[int, ...] = ()
    trials: int = 1
    seed: int = 0
    theta_grid: tuple[float, ...] | None = None
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        object.__setattr__(self, "n_values", _integers("n_values", self.n_values))
        object.__setattr__(self, "q_values", _integers("q_values", self.q_values))
        object.__setattr__(self, "trials", _integer("trials", self.trials))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.theta_grid is not None:
            grid = tuple(_real("theta_grid", t) for t in _sequence("theta_grid", self.theta_grid))
            object.__setattr__(self, "theta_grid", grid)
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}, expected one of {EXPERIMENT_KINDS}")
        if not self.n_values:
            raise ValueError("at least one n value is required")
        if any(n < 1 for n in self.n_values):
            raise ValueError(f"all n values must be >= 1, got {self.n_values}")
        if any(q < 0 for q in self.q_values):
            raise ValueError(f"all q values must be >= 0, got {self.q_values}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, got {self.output_path!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.kind in _Q_KINDS and self.q_values:
            if max(self.q_values) > max(self.n_values) - 1:
                raise ValueError(
                    f"q={max(self.q_values)} exceeds max(n)-1={max(self.n_values) - 1}"
                )
        if self.kind == "cemm-curve":
            if not self.theta_grid:
                raise ValueError("cemm-curve requires a theta grid")
            if min(self.n_values) < 2:
                raise ValueError(f"cemm-curve needs grid sizes n >= 2, got {self.n_values}")
            if any(not 0.0 <= t < 1.0 for t in self.theta_grid):
                raise ValueError("theta values must lie in [0, 1)")
        elif self.theta_grid is not None:
            raise ValueError(f"{self.kind} does not read theta_grid")
        if self.kind not in _Q_KINDS and self.q_values:
            raise ValueError(f"{self.kind} does not read q_values")
        if self.kind in _SINGLE_TRIAL_KINDS and self.trials != 1:
            raise ValueError(f"{self.kind} does not read trials, got trials={self.trials}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**data)


@dataclass(frozen=True)
class ResultRow:
    n: int
    q: int
    kind: str
    trial: int
    seed: int
    observed_probability: float
    bound_value: float
    gap: float
    max_leakage: float
    wall_time_ms: float


_ROW_FIELDS = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ResultRow, ...]
    metadata: dict

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            values = _rendered(r).values()
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json

        payload = {"metadata": self.metadata, "rows": [_rendered(r) for r in self.rows]}
        return json.dumps(payload, indent=2) + "\n"

    def rendered(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown output format {fmt!r}")


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _rendered(row: ResultRow) -> dict:
    """The row's fields with its leakages rounded to ``RESOLUTION_DECIMALS``
    decimal places; every other value is kept as computed."""
    out = {name: getattr(row, name) for name in _ROW_FIELDS}
    keys = ("max_leakage",)
    if row.kind in _LEAKAGE_ROW_KINDS:
        keys += ("observed_probability",)
    for key in keys:
        out[key] = round(out[key], RESOLUTION_DECIMALS) + 0.0  # + 0.0 turns -0.0 into 0.0
    return out


def derive_seed(master: int, row_kind: str, n: int, q: int, trial: int) -> int:
    """Per-task seed independent of execution order, stable across platforms."""
    code = _ROW_KIND_CODES[row_kind]
    ss = np.random.SeedSequence(
        [int(master) & 0xFFFFFFFFFFFFFFFF, code, int(n), int(q), int(trial)]
    )
    return int(ss.generate_state(1, np.uint64)[0])


def _metadata(cfg: ExperimentConfig) -> dict:
    return {
        "tool": "phaselab",
        "version": __version__,
        "kind": cfg.kind,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "config": asdict(cfg),
    }


def _guard(row: ResultRow) -> ResultRow:
    """Fail the sweep on a row over its leakage budget or its bound, or NaN."""
    if not row.max_leakage <= LEAKAGE_BUDGET:
        raise VerificationError(
            f"counter leakage {row.max_leakage!r} exceeds budget {LEAKAGE_BUDGET} "
            f"(n={row.n} q={row.q} kind={row.kind} trial={row.trial} seed={row.seed})"
        )
    if not row.gap >= -PROB_TOL:
        raise VerificationError(
            f"bound violated: n={row.n} q={row.q} kind={row.kind} trial={row.trial} "
            f"seed={row.seed} observed={row.observed_probability!r} "
            f"bound={row.bound_value!r} gap={row.gap!r}"
        )
    return row


def _row(kind: str, n: int, q: int, trial: int, seed: int, bound: float, measure) -> ResultRow:
    """Time ``measure() -> (observed, leakage)`` and return its guarded row.

    The config is checked before any row runs, so a ``ValueError`` from
    ``measure`` is a failed numerical check (a sampled isometry, a
    unitarity or norm check) and is raised as a ``VerificationError`` that
    names the row."""
    t0 = time.perf_counter()
    try:
        observed, leak = measure()
    except ValueError as exc:
        raise VerificationError(
            f"{exc} (n={n} q={q} kind={kind} trial={trial} seed={seed})"
        ) from exc
    ms = (time.perf_counter() - t0) * 1000.0
    return _guard(ResultRow(n, q, kind, trial, seed, observed, bound, bound - observed, leak, ms))


def _bound_sweep_rows(cfg: ExperimentConfig, n: int, q: int) -> list[ResultRow]:
    """The saturating algorithm plus ``trials`` Haar-random ones, drawn on
    their label columns by ``_haar_run``; every row must satisfy
    observed <= (q+1)/n within tolerance."""
    family = default_family(n)
    layout = standard_layout(n)
    bound = (q + 1) / n

    def measure(cols):
        return _label_success(cols, layout), counter_leakage(_purified_state(layout, cols), q)

    def optimal():
        return measure(_run_labels(build_truncated_optimal(n, q), family, range(n)))

    def haar(seed):
        return measure(_haar_run(family, [1] * q, np.random.default_rng(seed)))

    seed = derive_seed(cfg.seed, "optimal", n, q, 0)
    rows = [_row("optimal", n, q, 0, seed, bound, optimal)]
    for t in range(cfg.trials):
        seed = derive_seed(cfg.seed, "haar", n, q, t)
        rows.append(_row("haar", n, q, t, seed, bound, lambda: haar(seed)))
    return rows


_SCHEDULE_EXPONENTS = (1, -1, 2, 3, 5)


def _counter_scan_rows(cfg: ExperimentConfig, n: int, q: int) -> list[ResultRow]:
    """Worst per-step counter leakage of Haar-random algorithms, drawn on
    their label columns by ``_haar_run``.

    ``forward`` rows query forward only; ``schedule`` rows draw the query
    exponents from {1, -1, 2, 3, 5}, from the generator that then
    draws the steps. Both check the weight outside the subset-sum reachable
    set of the schedule prefix, which for forward queries is the weight
    beyond index j after j queries.
    """
    family = default_family(n)

    def measure(seed, schedule):
        rng = np.random.default_rng(seed)
        exponents = [1] * q
        if schedule:
            exponents = [int(m) for m in rng.choice(_SCHEDULE_EXPONENTS, size=q)]
        tr = _haar_transcript(family, exponents, rng)
        reach = reachable_counter_values(exponents, n)
        leak = max(
            leakage_from_weights(w, allowed) for w, allowed in zip(tr.counter_weights, reach)
        )
        return leak, leak

    scans = ("forward", "schedule") if q else ("forward",)
    rows = []
    for t in range(cfg.trials):
        for kind in scans:
            seed = derive_seed(cfg.seed, kind, n, q, t)
            schedule = kind == "schedule"
            rows.append(_row(kind, n, q, t, seed, LEAKAGE_BUDGET, lambda: measure(seed, schedule)))
    return rows


def _thin_polar(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The unitary U maximizing Re Tr(U† E) for E = G A†, G and A dim x k.

    E has rank at most k. With complete QRs G = Q_g R_g and A = Q_a R_a,
    E = Q_g[:, :k] C Q_a[:, :k]† for the k x k core C = R_g[:k] R_a[:k]†.
    With C = W S V†, U = Q_g[:, :k] W V† Q_a[:, :k]† + Q_g[:, k:] Q_a[:, k:]†
    is unitary and Re Tr(U† E) = Tr S, the nuclear norm of E. The part
    outside E's range is a fixed function of (G, A), so the same inputs
    always give the same U.
    """
    k = g.shape[1]
    qg, rg = np.linalg.qr(g, mode="complete")
    qa, ra = np.linalg.qr(a, mode="complete")
    w, _, vh = np.linalg.svd(rg[:k] @ ra[:k].conj().T)
    qg[:, :k] = qg[:, :k] @ (w @ vh)
    return qg @ qa.conj().T


def _sweep(steps: list, family: PhaseOracleFamily) -> float:
    """Re-optimize each dense step of a forward-query search in place, left
    to right; returns the success of the result.

    The backward environments are built once, right to left, as adjoints:
    H_q = I and H_s = Q† U_{s+1}† H_{s+1}, with the inverse query of label y
    on column block y. Column block y of H_s is R_s[y]†, where R_s[y] is the
    O = y rows of U_q Q_y ... U_{s+1} Q_y. The sweep reads H_s only while
    slots s+1..q are still the ones it was built from, so it is exact. With
    a the columns before slot s and b = U_s a, column y of the environment
    G is R_s[y]† R_s[y] b_y, and the slot becomes ``_thin_polar(G, a)``. A
    slot costs one dim x dim product and one batched query, not a re-run of
    every later slot.
    """
    n = family.n
    layout = standard_layout(n, family.work_dim)
    dim = layout.total_dim
    u = family.eigenstate
    ahead = np.exp(2j * np.pi * _label_turns(range(n), n)(1)) - 1.0  # one forward query
    undo = np.repeat(ahead.conj(), dim // n)  # its inverse, on the rows of each O block
    envs = [np.eye(dim, dtype=np.complex128)]
    for step in steps[:0:-1]:
        envs.append(_query(step.conj().T @ envs[-1], layout, u, undo))
    a = _start(layout, n)  # columns before the slot, one per label
    for slot, h in enumerate(reversed(envs)):
        h = h.reshape(dim, n, dim // n)
        r = np.einsum("iyj,iy->yj", h.conj(), steps[slot] @ a)
        steps[slot] = _thin_polar(np.einsum("iyj,yj->iy", h, r), a)
        if slot < len(steps) - 1:
            a = _query(steps[slot] @ a, layout, u, ahead)
    return _label_success(steps[-1] @ a, layout)


def adversarial_search(
    n: int,
    q: int,
    iterations: int,
    seed,
    initial: QueryAlgorithm | None = None,
) -> tuple[float, QueryAlgorithm]:
    """Local search for the most successful q-query algorithm.

    Haar restarts plus slot-wise re-optimization: the success functional is
    linearized in one step unitary, whose maximizer under Re Tr is the polar
    factor of the environment matrix on its range. Each update is monotone,
    so the search can only climb toward the proven ceiling (q+1)/n.
    ``iterations`` counts full slot sweeps across all restarts.

    A sweep costs O(q) dim x dim products: the backward environments of
    every slot are built once per sweep, and the environment of rank <= n
    takes a thin polar update (QRs of the two dim x n factors and an SVD of
    their n x n core), as in the environment sweeps of tensor networks
    (Evenbly & Vidal, PRB 79, 144108 (2009), arXiv:0707.1454). See
    ``_sweep`` and ``_thin_polar``.
    """
    if q < 0:
        raise ValueError(f"query count must be >= 0, got {q}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    family = default_family(n)
    layout = standard_layout(n)
    dim = layout.total_dim
    rng = np.random.default_rng(seed)
    turns = _label_turns(range(n), n)

    def success(steps):
        cols = _evolve(_start(layout, n), steps, [1] * q, layout, family.eigenstate, turns)
        return _label_success(cols, layout)

    best_p = -1.0
    best_steps = None
    done = 0
    use_initial = initial is not None
    while done < iterations:
        if use_initial:
            if initial.layout != layout or initial.q != q:
                raise ValueError("initial algorithm does not match the search space")
            steps = [s @ np.eye(dim, dtype=np.complex128) for s in initial.steps]
            use_initial = False
        else:
            steps = [haar_random_unitary(dim, rng).matrix for _ in range(q + 1)]
        prev = success(steps)
        if prev > best_p:
            best_p, best_steps = prev, [s.copy() for s in steps]
        while done < iterations:
            p = _sweep(steps, family)
            done += 1
            if p > best_p:
                best_p, best_steps = p, [s.copy() for s in steps]
            if p - prev < 1e-12:
                break
            prev = p

    alg = QueryAlgorithm(
        n=n,
        layout=layout,
        steps=tuple(UnitaryMatrix(s) for s in best_steps),
        exponents=(FORWARD,) * q,
    )
    return best_p, alg


def _stress_rows(cfg: ExperimentConfig, n: int, q: int) -> list[ResultRow]:
    """Best success probability ``adversarial_search`` finds; ``trials``
    bounds the search iterations. It must stay at or below (q+1)/n."""
    seed = derive_seed(cfg.seed, "adversarial", n, q, 0)

    def measure():
        best, alg = adversarial_search(n, q, cfg.trials, seed)
        return best, counter_leakage(run_purified(alg, default_family(n)), q)

    return [_row("adversarial", n, q, 0, seed, (q + 1) / n, measure)]


def _cemm_rows(cfg: ExperimentConfig, n: int) -> list[ResultRow]:
    """Probability that the rounded grid-n estimate lands within 1/(2n) of
    the true phase, for each configured phase; plus a worst-over-grid row."""
    eps = 1.0 / (2 * n)

    def measure(theta):
        dist = cemm_on_continuous_phase(PhaseInstance(theta, [1.0, 0.0]), n)
        near = (p for y, p in enumerate(dist) if phase_distance(y / n, theta) <= eps + 1e-12)
        return float(sum(near)), 0.0

    rows = [
        _row("cemm", n, n - 1, i, cfg.seed, 1.0, lambda: measure(theta))
        for i, theta in enumerate(cfg.theta_grid)
    ]
    worst = min(r.observed_probability for r in rows)
    rows.append(ResultRow(n, n - 1, "cemm-worst", -1, cfg.seed, worst, 1.0, 1.0 - worst, 0.0, 0.0))
    return rows


def _epr_rows(cfg: ExperimentConfig, n: int) -> list[ResultRow]:
    """Entrywise agreement of the two maximally-correlated-state constructions;
    the deviation lands in the leakage column, where ``_guard`` holds it to
    the leakage budget."""

    def measure():
        pair = StateVector(RegisterLayout(((OUTPUT, n), (COUNTER, n))), _epr_computational(n))
        return success_probability_purified(pair), epr_fourier_deviation(n)

    return [_row("epr", n, 0, 0, cfg.seed, 1.0, measure)]


def _reduction_chain(alg: QueryAlgorithm) -> list[tuple[float, float]]:
    """Check the rounding reduction exactly on the estimator that reads
    outcome y' of ``alg`` as the phase y'/n; returns (p_m, r_m) for m = 1..n.

    One kernel run covers Theta_n = {y/m : 1 <= m <= n, 0 <= y < m}, one
    column per phase. p_m is the worst case over Theta_n of
    P(|estimate - theta| < 1/(2m)); the premise is strict, so a distance
    within 1e-12 of 1/(2m) is a miss. r_m is the success of rounding the
    estimate to the m-grid with ``round_to_grid``, averaged over the m
    labels. Rounding recovers every estimate inside the premise, and the
    rounded estimator is a q-query m-phase distinguisher, so
    p_m <= r_m <= (q+1)/m; a break or a NaN raises ``VerificationError``.
    """
    n, q = alg.n, alg.q
    # every (y, m) in order, so y/m is entry m(m-1)/2 + y; np.unique keeps
    # one column per phase in lowest terms and maps each entry to it
    m_all = np.repeat(np.arange(1, n + 1), np.arange(1, n + 1))
    y_all = np.arange(len(m_all)) - m_all * (m_all - 1) // 2
    g = np.gcd(y_all, m_all)
    (num, den), column = np.unique([y_all // g, m_all // g], axis=1, return_inverse=True)
    eigenstate = default_family(n, alg.work_dim).eigenstate
    cols = _run(alg, eigenstate, _label_turns(num, den), len(num))
    weights = _outcome_weights(cols, alg.layout)
    estimates = np.arange(n) / n
    dist = phase_distance(estimates[:, None], num / den)
    chain = []
    for m in range(1, n + 1):
        p = float(np.where(dist < 1 / (2 * m) - 1e-12, weights, 0.0).sum(axis=0).min())
        label_cols = column[m * (m - 1) // 2 : m * (m + 1) // 2]
        rounded = round_to_grid(estimates, m)
        r = float(weights[np.arange(n), label_cols[rounded]].sum()) / m
        if not (p <= r + PROB_TOL and r <= (q + 1) / m + PROB_TOL):
            raise VerificationError(
                f"rounding reduction broken: n={n} q={q} m={m} p_m={p!r} r_m={r!r} "
                f"bound={(q + 1) / m!r}"
            )
        chain.append((p, r))
    return chain


def _reduction_rows(cfg: ExperimentConfig, n: int, q: int) -> list[ResultRow]:
    """The estimation bound on the q-query optimal estimator read as y'/n:
    the chain of ``_reduction_chain`` holds at every m <= n, and the row
    reports p_n against (q+1)/n."""

    def measure():
        return _reduction_chain(build_truncated_optimal(n, q))[-1][0], 0.0

    return [_row("reduction", n, q, 0, cfg.seed, (q + 1) / n, measure)]


_RUNNERS = {
    "bound-sweep": _bound_sweep_rows,
    "counter-scan": _counter_scan_rows,
    "random-stress": _stress_rows,
    "cemm-curve": _cemm_rows,
    "epr-check": _epr_rows,
    "reduction-check": _reduction_rows,
}


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run every task of ``cfg`` and merge the rows in task order.

    Tasks are the (n, q) grid for the kinds that take q, with the configured
    q values that fit each n (none configured: 0..min(n-1, 12)), and one task
    per n otherwise. ``jobs`` caps the worker threads.
    """
    if cfg.kind in _Q_KINDS:
        tasks = [
            (n, q)
            for n in cfg.n_values
            for q in cfg.q_values or range(min(n - 1, 12) + 1)
            if q <= n - 1
        ]
    else:
        tasks = [(n,) for n in cfg.n_values]
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    def work(task):
        return _RUNNERS[cfg.kind](cfg, *task)

    if jobs == 1 or len(tasks) <= 1:
        groups = [work(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            groups = list(pool.map(work, tasks))
    rows = tuple(row for group in groups for row in group)
    return ExperimentResult(rows, _metadata(cfg))
