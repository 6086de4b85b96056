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

import copy
import datetime as _dt
import functools
import numbers
import os
import platform
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from ._version import __version__
from .algorithms import (
    _epr_computational,
    build_truncated_optimal,
    cemm_on_continuous_phase,
    epr_fourier_deviation,
    phase_distance,
    round_to_grid,
)
from .linalg import (
    AMP_TOL,
    PROB_TOL,
    RegisterLayout,
    StateVector,
    UnitaryMatrix,
    _integer,
    haar_random_unitary,
)
from .oracles import FORWARD, PhaseInstance, PhaseOracleFamily, default_family
from .simulate import (
    COUNTER,
    OUTPUT,
    QueryAlgorithm,
    _check_spectra,
    _counter_spectra,
    _evolve,
    _haar_runs,
    _label_success,
    _label_turns,
    _outcome_weights,
    _query,
    _run,
    _run_labels,
    _start,
    leakage_from_weights,
    reachable_counter_values,
    standard_layout,
    success_probability_purified,
)

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


def _integers(name: str, values, minimum: int) -> tuple[int, ...]:
    return tuple(_integer(v, name, minimum) for v in _sequence(name, values))


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
        object.__setattr__(self, "n_values", _integers("n_values", self.n_values, 1))
        object.__setattr__(self, "q_values", _integers("q_values", self.q_values, 0))
        object.__setattr__(self, "trials", _integer(self.trials, "trials", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.theta_grid is not None:
            grid = tuple(_real("theta_grid", t) for t in _sequence("theta_grid", self.theta_grid))
            object.__setattr__(self, "theta_grid", grid)
        if not isinstance(self.kind, str) or self.kind not in KINDS:  # a JSON list is unhashable
            raise ValueError(f"unknown experiment kind {self.kind!r}, expected one of {tuple(KINDS)}")
        kind = KINDS[self.kind]
        if not self.n_values:
            raise ValueError("at least one n value is required")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, got {self.output_path!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if kind.takes_q and self.q_values:
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
        if not kind.takes_q and self.q_values:
            raise ValueError(f"{self.kind} does not read q_values")
        if kind.trials is None and self.trials != 1:
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

CSV_HEADER = ",".join(_ROW_FIELDS)


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


# The variables that set the BLAS thread count, which the last bits of
# probabilities and gaps depend on (see the README's determinism contract).
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _environment() -> dict:
    """The numeric environment rows are computed in, read once per process:
    numpy's build config and the platform lookup cost ~0.4 ms, and every
    ``run_experiment`` call builds metadata, which gets a copy."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        **{var: os.environ.get(var) for var in _THREAD_VARS},
        "platform": platform.platform(),
    }


def _metadata(cfg: ExperimentConfig) -> dict:
    return {
        "tool": "phaselab",
        "version": __version__,
        "kind": cfg.kind,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "config": asdict(cfg),
        "environment": copy.deepcopy(_environment()),
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


def _readout(q: int, cols, spectra) -> tuple[float, float]:
    """A row's (success, leakage): the success of its label columns averaged
    over the labels, and the weight of its final spectrum beyond index q."""
    return _label_success(cols), leakage_from_weights(spectra[-1], range(q + 1))


def _measured(alg: QueryAlgorithm) -> tuple[float, float]:
    """``_readout`` of ``alg`` run on the default family's label columns,
    whose (1, n) spectrum is checked first."""
    cols = _run_labels(alg, default_family(alg.n), range(alg.n))
    spectra = _counter_spectra(cols, alg.n)
    _check_spectra(spectra)
    return _readout(alg.q, cols, spectra)


def _haar_rows(
    cfg: ExperimentConfig, kind: str, n: int, q: int, bound: float, measure, schedule=None
) -> list[ResultRow]:
    """``cfg.trials`` rows of Haar-random algorithms, run side by side on
    their label columns by ``_haar_runs``; trial t has seed
    ``derive_seed(cfg.seed, kind, n, q, t)``.

    ``schedule(rng)`` draws a trial's q query exponents from its generator,
    which then draws the steps (default: q forward queries), and
    ``measure(exponents, (cols, spectra))`` gives a row's (observed,
    leakage). Row t reads trial t off the batch, so a failed check names its
    own trial, and each row is timed at an equal share of the batch: the
    work of a batch lands in the row that first reads it.
    """
    seeds = [derive_seed(cfg.seed, kind, n, q, t) for t in range(cfg.trials)]
    rngs = [np.random.default_rng(s) for s in seeds]
    exponents = [[1] * q if schedule is None else schedule(rng) for rng in rngs]
    runs = zip(exponents, _haar_runs(default_family(n), exponents, rngs))
    rows = [
        _row(kind, n, q, t, s, bound, lambda: measure(*next(runs))) for t, s in enumerate(seeds)
    ]
    ms = sum(r.wall_time_ms for r in rows) / len(rows)
    return [replace(r, wall_time_ms=ms) for r in rows]


def _bound_sweep_rows(cfg: ExperimentConfig, n: int, q: int) -> list[ResultRow]:
    """The saturating algorithm plus ``trials`` Haar-random ones; every row
    must satisfy observed <= (q+1)/n within tolerance."""
    bound = (q + 1) / n
    seed = derive_seed(cfg.seed, "optimal", n, q, 0)
    rows = [_row("optimal", n, q, 0, seed, bound, lambda: _measured(build_truncated_optimal(n, q)))]
    return rows + _haar_rows(cfg, "haar", n, q, bound, lambda _, run: _readout(q, *run))


_SCHEDULE_EXPONENTS = (1, -1, 2, 3, 5)


def _counter_scan_rows(cfg: ExperimentConfig, n: int, q: int) -> list[ResultRow]:
    """Worst per-step counter leakage of Haar-random algorithms, one batch
    per scan, the rows alternating by trial.

    ``forward`` rows query forward only; ``schedule`` rows draw the query
    exponents from {1, -1, 2, 3, 5}, from the generator that then
    draws the steps. Both check the weight outside the subset-sum reachable
    set of the schedule prefix, which for forward queries is the weight
    beyond index j after j queries.
    """

    def measure(exps, run):
        _, spectra = run
        reach = reachable_counter_values(exps, n)
        leak = max(leakage_from_weights(w, allowed) for w, allowed in zip(spectra, reach))
        return leak, leak

    def schedule(rng):
        return [int(m) for m in rng.choice(_SCHEDULE_EXPONENTS, size=q)]

    scans = [_haar_rows(cfg, "forward", n, q, LEAKAGE_BUDGET, measure)]
    if q:
        scans.append(_haar_rows(cfg, "schedule", n, q, LEAKAGE_BUDGET, measure, schedule))
    return [row for trial in zip(*scans) for row in trial]


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

    The backward environments are built once, right to left, as in the
    environment sweeps of tensor networks (Evenbly & Vidal, PRB 79, 144108
    (2009), arXiv:0707.1454), and as adjoints: H_q = I and
    H_s = Q† U_{s+1}† H_{s+1}, with the inverse query of label y on column
    block y. Column block y of H_s is R_s[y]†, where R_s[y] is the
    O = y rows of U_q Q_y ... U_{s+1} Q_y. The sweep reads H_s only while
    slots s+1..q are still the ones it was built from, so it is exact. With
    a the columns before slot s and b = U_s a, column y of the environment
    G is R_s[y]† R_s[y] b_y, and the slot maximizes Re Tr(U† E) for
    E = G a†. A slot costs one dim x dim product and one batched query, not
    a re-run of every later slot.

    After s forward queries column y of a is sum_{j<=s} w^(yj) phi_j, with
    w = e^(2 pi i/n): the n columns span at most k = min(s+1, n) counter
    coefficients phi_j. With L[j, y] = w^(yj), L L† = n I, so the
    coefficient columns are C = a L†/n and E = (G L†) C†. The slot takes
    ``_thin_polar`` of the dim x k factors G L†[:, :k] and C[:, :k]: QRs of
    k columns and a k x k core, not n. This holds only while the counter
    weight of C beyond index s is within ``LEAKAGE_BUDGET``, which is
    checked before every slot; a ``ValueError`` names n, q and the slot.
    """
    n, q = family.n, len(steps) - 1
    layout = standard_layout(n, family.work_dim)
    dim = layout.total_dim
    u = family.eigenstate
    ahead = np.exp(2j * np.pi * _label_turns(range(n), n)(1)) - 1.0  # one forward query
    undo = np.repeat(ahead.conj(), dim // n)  # its inverse, on the rows of each O block
    dft = np.exp(-2j * np.pi * (np.outer(range(n), range(n)) % n) / n)  # L†, symmetric
    envs = [np.eye(dim, dtype=np.complex128)]
    for step in steps[:0:-1]:
        envs.append(_query(step.conj().T @ envs[-1], n, u, undo))
    a = _start(layout, n)  # columns before the slot, one per label
    for slot, h in enumerate(reversed(envs)):
        h = h.reshape(dim, n, dim // n)
        r = np.einsum("iyj,iy->yj", h.conj(), steps[slot] @ a)
        k = min(slot + 1, n)
        coeffs = a @ dft / n
        leak = float(np.sum(np.abs(coeffs[:, k:]) ** 2))
        if not leak <= LEAKAGE_BUDGET:
            raise ValueError(
                f"counter weight {leak!r} beyond index {slot} exceeds budget "
                f"{LEAKAGE_BUDGET} (n={n} q={q} slot={slot})"
            )
        g = np.einsum("iyj,yj->iy", h, r)
        steps[slot] = _thin_polar(g @ dft[:, :k], coeffs[:, :k])
        if slot < q:
            a = _query(steps[slot] @ a, n, u, ahead)
    return _label_success(steps[-1] @ a)


def adversarial_search(n: int, q: int, iterations: int, seed) -> tuple[float, QueryAlgorithm]:
    """Local search for the most successful forward-query q-query algorithm;
    returns its success and the algorithm.

    Each restart draws q+1 Haar-random steps, then sweeps them with
    ``_sweep`` until a sweep gains less than 1e-12. A sweep re-optimizes
    every slot in turn and never lowers the success, so the search can only
    climb toward the proven ceiling (q+1)/n. ``iterations`` counts sweeps
    across all restarts. A slot whose columns carry counter weight beyond
    its index, over ``LEAKAGE_BUDGET``, raises ``ValueError`` (see
    ``_sweep``).
    """
    q = _integer(q, "query count", 0)
    iterations = _integer(iterations, "iterations", 1)
    family = default_family(n)
    layout = standard_layout(n)
    dim = layout.total_dim
    rng = np.random.default_rng(seed)
    turns = _label_turns(range(n), n)

    def success(steps):
        cols = _evolve(_start(layout, n), steps, [1] * q, n, family.eigenstate, turns)
        return _label_success(cols)

    best_p = -1.0
    best_steps = None
    done = 0
    while done < iterations:
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

    return best_p, QueryAlgorithm(layout, tuple(map(UnitaryMatrix, best_steps)), (FORWARD,) * q)


def _stress_rows(cfg: ExperimentConfig, n: int, q: int) -> list[ResultRow]:
    """The success of the best algorithm ``adversarial_search`` finds,
    measured on its own label columns; ``trials`` bounds the search
    iterations. It must stay at or below (q+1)/n, and the search's reported
    success must match it within ``PROB_TOL``."""
    seed = derive_seed(cfg.seed, "adversarial", n, q, 0)

    def measure():
        best, alg = adversarial_search(n, q, cfg.trials, seed)
        observed, leak = _measured(alg)
        if not abs(best - observed) <= PROB_TOL:
            raise ValueError(f"search reports success {best!r}, its algorithm has {observed!r}")
        return observed, leak

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
    p_m <= r_m <= (q+1)/m; a break or a NaN raises ``VerificationError``,
    and a phase whose outcome weights do not sum to 1 raises ``ValueError``.
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
    weights = _outcome_weights(cols, n)
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
    # a chain that holds can still rest on scaled weights: half of every
    # weight halves p_m and r_m alike, so each phase's weights must sum to 1
    _check_spectra(weights.T, lambda j: f"phase {num[j]}/{den[j]}")
    return chain


def _reduction_rows(cfg: ExperimentConfig, n: int, q: int) -> list[ResultRow]:
    """The estimation bound on the q-query optimal estimator read as y'/n:
    the chain of ``_reduction_chain`` holds at every m <= n, and the row
    reports p_n against (q+1)/n."""

    def measure():
        return _reduction_chain(build_truncated_optimal(n, q))[-1][0], 0.0

    return [_row("reduction", n, q, 0, cfg.seed, (q + 1) / n, measure)]


@dataclass(frozen=True)
class Kind:
    """A sweep kind. ``rows(cfg, n, q)``, or ``rows(cfg, n)`` unless
    ``takes_q``, computes one task's rows; ``trials`` is the command line's
    default trial count, None for a kind that computes each row once and
    never reads ``trials``."""

    rows: Callable[..., list[ResultRow]]
    takes_q: bool
    trials: int | None


KINDS = {
    "bound-sweep": Kind(_bound_sweep_rows, takes_q=True, trials=10),
    "counter-scan": Kind(_counter_scan_rows, takes_q=True, trials=25),
    "random-stress": Kind(_stress_rows, takes_q=True, trials=200),
    "cemm-curve": Kind(_cemm_rows, takes_q=False, trials=None),
    "epr-check": Kind(_epr_rows, takes_q=False, trials=None),
    "reduction-check": Kind(_reduction_rows, takes_q=True, trials=None),
}


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run every task of ``cfg`` and merge the rows in task order.

    Tasks are the (n, q) grid for the kinds that take q, with the configured
    q values that fit each n (none configured: 0..min(n-1, 12)), and one task
    per n otherwise. ``jobs`` caps the worker threads.
    """
    kind = KINDS[cfg.kind]
    if kind.takes_q:
        tasks = [
            (n, q)
            for n in cfg.n_values
            for q in cfg.q_values or range(min(n - 1, 12) + 1)
            if q <= n - 1
        ]
    else:
        tasks = [(n,) for n in cfg.n_values]
    jobs = _integer(jobs, "jobs", 1)

    def work(task):
        return kind.rows(cfg, *task)

    if jobs == 1 or len(tasks) <= 1:
        groups = [work(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            groups = list(pool.map(work, tasks))
    rows = tuple(row for group in groups for row in group)
    return ExperimentResult(rows, _metadata(cfg))
