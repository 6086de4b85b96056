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
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .algorithms import (
    build_truncated_optimal,
    cemm_on_continuous_phase,
    epr_fourier_deviation,
    epr_state,
    phase_distance,
    reduction_estimator_to_pd,
)
from .linalg import AMP_TOL, PROB_TOL, UnitaryMatrix, haar_random_unitary
from .oracles import FORWARD, PhaseInstance, QueryKind, default_family
from .simulate import (
    QueryAlgorithm,
    _evolve,
    _label_success,
    _label_turns,
    _query,
    _start,
    counter_leakage,
    haar_random_algorithm,
    leakage_from_weights,
    reachable_counter_values,
    run_purified,
    run_purified_transcript,
    standard_layout,
    success_probability_average,
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

CSV_HEADER = "n,q,kind,trial,seed,observed_probability,bound_value,gap,max_leakage,wall_time_ms"

# Fourier weight allowed outside the schedule-consistent counter range.
LEAKAGE_BUDGET = AMP_TOL

# Output rows carry counter leakages at an absolute resolution of 1e-20. A
# leakage that is exactly zero comes out of BLAS as roundoff near 1e-29 that
# changes with the BLAS thread count; every tolerance is 1e-10 or wider.
RESOLUTION_DECIMALS = 20

# Row kinds whose observed_probability is itself a counter leakage.
_LEAKAGE_ROW_KINDS = ("forward", "schedule")

# Default success floors probed by reduction-check when none are configured.
DEFAULT_SUCCESS_FLOORS = (0.3, 0.6, 0.9)

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
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "q_values", tuple(int(q) for q in self.q_values))
        if self.theta_grid is not None:
            object.__setattr__(self, "theta_grid", tuple(float(t) for t in self.theta_grid))
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
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.kind in ("bound-sweep", "counter-scan", "random-stress") and self.q_values:
            if max(self.q_values) > max(self.n_values) - 1:
                raise ValueError(
                    f"q={max(self.q_values)} exceeds max(n)-1={max(self.n_values) - 1}"
                )
        if self.kind == "cemm-curve":
            if not self.theta_grid:
                raise ValueError("cemm-curve requires a theta grid")
            if any(not 0.0 <= t < 1.0 for t in self.theta_grid):
                raise ValueError("theta values must lie in [0, 1)")
        if self.kind == "reduction-check" and self.theta_grid:
            if any(not 0.0 < p <= 1.0 for p in self.theta_grid):
                raise ValueError("success floors must lie in (0, 1]")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
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
    out = asdict(row)
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
    echo = asdict(cfg)
    echo["n_values"] = list(cfg.n_values)
    echo["q_values"] = list(cfg.q_values)
    echo["theta_grid"] = list(cfg.theta_grid) if cfg.theta_grid is not None else None
    return {
        "tool": "phaselab",
        "version": __version__,
        "kind": cfg.kind,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "config": echo,
    }


def _q_range(cfg: ExperimentConfig, n: int) -> list[int]:
    """Configured q values applicable to one n; empty config means the
    default scan 0..min(n-1, 12)."""
    if cfg.q_values:
        return [q for q in cfg.q_values if q <= n - 1]
    return list(range(min(n - 1, 12) + 1))


def _guard_bound(row: ResultRow) -> ResultRow:
    if row.gap < -PROB_TOL:
        raise VerificationError(
            f"bound violated: n={row.n} q={row.q} kind={row.kind} trial={row.trial} "
            f"seed={row.seed} observed={row.observed_probability!r} "
            f"bound={row.bound_value!r} gap={row.gap!r}"
        )
    return row


def _guard_leakage(row: ResultRow) -> ResultRow:
    if row.max_leakage > LEAKAGE_BUDGET:
        raise VerificationError(
            f"counter leakage {row.max_leakage!r} exceeds budget {LEAKAGE_BUDGET} "
            f"(n={row.n} q={row.q} kind={row.kind} trial={row.trial} seed={row.seed})"
        )
    return row


def _map_tasks(tasks, worker, jobs):
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(tasks) <= 1:
        groups = [worker(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            groups = list(pool.map(worker, tasks))
    return [row for group in groups for row in group]


def _grid(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    return [(n, q) for n in cfg.n_values for q in _q_range(cfg, n)]


def run_bound_sweep(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Per (n, q): the saturating algorithm plus ``trials`` Haar-random ones.

    Every row must satisfy observed <= (q+1)/n within tolerance; a violation
    aborts the sweep with the offending seed in the error message.
    """

    def worker(pair):
        n, q = pair
        family = default_family(n)
        bound = (q + 1) / n
        rows = []

        t0 = time.perf_counter()
        seed = derive_seed(cfg.seed, "optimal", n, q, 0)
        alg = build_truncated_optimal(n, q)
        observed = success_probability_average(alg, family)
        leak = counter_leakage(run_purified(alg, family), q)
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            _guard_bound(
                ResultRow(n, q, "optimal", 0, seed, observed, bound, bound - observed, leak, ms)
            )
        )

        for t in range(cfg.trials):
            t0 = time.perf_counter()
            seed = derive_seed(cfg.seed, "haar", n, q, t)
            alg = haar_random_algorithm(n, q, seed)
            observed = success_probability_average(alg, family)
            leak = counter_leakage(run_purified(alg, family), q)
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(
                _guard_bound(
                    ResultRow(n, q, "haar", t, seed, observed, bound, bound - observed, leak, ms)
                )
            )
        return rows

    rows = _map_tasks(_grid(cfg), worker, jobs)
    return ExperimentResult(tuple(rows), _metadata(cfg))


_SCHEDULE_EXPONENTS = (1, -1, 2, 3, 5)


def run_counter_scan(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Worst per-step counter leakage of Haar-random algorithms.

    ``forward`` rows check weight beyond index j after j queries; ``schedule``
    rows draw the query kinds from {forward, inverse, power(2|3|5)} and check
    weight outside the subset-sum reachable set of the schedule prefix.
    """

    def worker(pair):
        n, q = pair
        family = default_family(n)
        rows = []
        for t in range(cfg.trials):
            t0 = time.perf_counter()
            seed = derive_seed(cfg.seed, "forward", n, q, t)
            alg = haar_random_algorithm(n, q, seed)
            tr = run_purified_transcript(alg, family)
            leak = max(float(w[j + 1 :].sum()) for j, w in enumerate(tr.counter_weights))
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(
                _guard_leakage(
                    ResultRow(
                        n, q, "forward", t, seed, leak, LEAKAGE_BUDGET,
                        LEAKAGE_BUDGET - leak, leak, ms,
                    )
                )
            )
            if q == 0:
                continue
            t0 = time.perf_counter()
            seed = derive_seed(cfg.seed, "schedule", n, q, t)
            rng = np.random.default_rng(seed)
            exponents = [int(m) for m in rng.choice(_SCHEDULE_EXPONENTS, size=q)]
            kinds = tuple(QueryKind(m) for m in exponents)
            alg = haar_random_algorithm(n, q, rng, kinds=kinds)
            tr = run_purified_transcript(alg, family)
            reach = reachable_counter_values(exponents, n)
            leak = max(
                leakage_from_weights(w, allowed)
                for w, allowed in zip(tr.counter_weights, reach)
            )
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(
                _guard_leakage(
                    ResultRow(
                        n, q, "schedule", t, seed, leak, LEAKAGE_BUDGET,
                        LEAKAGE_BUDGET - leak, leak, ms,
                    )
                )
            )
        return rows

    rows = _map_tasks(_grid(cfg), worker, jobs)
    return ExperimentResult(tuple(rows), _metadata(cfg))


def adversarial_search(
    n: int,
    q: int,
    iterations: int,
    seed,
    work_dim: int = 2,
    initial: QueryAlgorithm | None = None,
) -> tuple[float, QueryAlgorithm]:
    """Local search for the most successful q-query algorithm.

    Haar restarts plus slot-wise re-optimization: the success functional is
    linearized in one step unitary, whose maximizer under Tr is the polar
    factor of the accumulated environment matrix. Each update is monotone,
    so the search can only climb toward the proven ceiling (q+1)/n.
    ``iterations`` counts full slot sweeps across all restarts.
    """
    family = default_family(n, work_dim)
    layout = standard_layout(n, work_dim)
    dim = layout.total_dim
    rng = np.random.default_rng(seed)
    u = family.eigenstate
    turns = _label_turns(range(n), n)
    forward = [1] * q
    ahead = np.exp(2j * np.pi * turns(1)) - 1.0  # one forward query, per label
    undo = ahead.conj()  # its inverse: the same update with the phases negated
    # P_y: keep the O = y rows of column y
    on_label = (np.arange(n)[:, None] == np.arange(n)).reshape(n, 1, n)

    def success(steps):
        return _label_success(_evolve(_start(layout, n), steps, forward, layout, u, turns), layout)

    def sweep(steps):
        a = _start(layout, n)  # columns before step ``slot``, one per label
        for slot in range(q + 1):
            psi = _evolve(a, steps[slot:], forward, layout, u, turns)
            g = (psi.reshape(n, -1, n) * on_label).reshape(dim, n)
            for i in range(q, slot, -1):
                g = _query(steps[i].conj().T @ g, layout, u, undo)
            w, _, vh = np.linalg.svd(g @ a.conj().T)
            steps[slot] = w @ vh
            if slot < q:
                a = _query(steps[slot] @ a, layout, u, ahead)

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
            sweep(steps)
            done += 1
            p = success(steps)
            if p > best_p:
                best_p, best_steps = p, [s.copy() for s in steps]
            if p - prev < 1e-12:
                break
            prev = p

    alg = QueryAlgorithm(
        n=n,
        layout=layout,
        steps=tuple(UnitaryMatrix(s) for s in best_steps),
        kinds=(FORWARD,) * q,
    )
    return best_p, alg


def run_adversarial_search(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Best success probability found per (n, q); ``trials`` bounds the
    search iterations. Results must stay at or below (q+1)/n."""

    def worker(pair):
        n, q = pair
        t0 = time.perf_counter()
        seed = derive_seed(cfg.seed, "adversarial", n, q, 0)
        best, alg = adversarial_search(n, q, cfg.trials, seed)
        leak = counter_leakage(run_purified(alg, default_family(n)), q)
        bound = (q + 1) / n
        ms = (time.perf_counter() - t0) * 1000.0
        return [
            _guard_bound(
                ResultRow(n, q, "adversarial", 0, seed, best, bound, bound - best, leak, ms)
            )
        ]

    rows = _map_tasks(_grid(cfg), worker, jobs)
    return ExperimentResult(tuple(rows), _metadata(cfg))


def run_cemm_curve(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Probability that the rounded grid-n estimate lands within 1/(2n) of
    the true phase, for each configured phase; plus a worst-over-grid row."""
    if not cfg.theta_grid:
        raise ValueError("cemm-curve requires a theta grid")

    def worker(n):
        rows = []
        eps = 1.0 / (2 * n)
        worst = None
        for i, theta in enumerate(cfg.theta_grid):
            t0 = time.perf_counter()
            dist = cemm_on_continuous_phase(_instance(theta), n)
            observed = float(
                sum(p for y, p in enumerate(dist) if phase_distance(y / n, theta) <= eps + 1e-12)
            )
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(
                _guard_bound(
                    ResultRow(n, n - 1, "cemm", i, cfg.seed, observed, 1.0, 1.0 - observed, 0.0, ms)
                )
            )
            if worst is None or observed < worst:
                worst = observed
        rows.append(
            ResultRow(n, n - 1, "cemm-worst", -1, cfg.seed, worst, 1.0, 1.0 - worst, 0.0, 0.0)
        )
        return rows

    rows = _map_tasks(list(cfg.n_values), worker, jobs)
    return ExperimentResult(tuple(rows), _metadata(cfg))


def _instance(theta: float, work_dim: int = 2) -> PhaseInstance:
    eig = np.zeros(work_dim, dtype=np.complex128)
    eig[0] = 1.0
    return PhaseInstance(theta=theta, eigenstate=eig)


def run_epr_check(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Entrywise agreement of the two maximally-correlated-state constructions;
    the deviation lands in the leakage column."""

    def worker(n):
        t0 = time.perf_counter()
        dev = epr_fourier_deviation(n)
        observed = success_probability_purified(epr_state(n).state)
        ms = (time.perf_counter() - t0) * 1000.0
        row = ResultRow(n, 0, "epr", 0, cfg.seed, observed, 1.0, 1.0 - observed, dev, ms)
        return [_guard_leakage(_guard_bound(row))]

    rows = _map_tasks(list(cfg.n_values), worker, jobs)
    return ExperimentResult(tuple(rows), _metadata(cfg))


def run_reduction_check(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Monte Carlo check that rounding preserves an estimator's success.

    A synthetic estimator errs within radius 0.9/(2n) (inside the rounding
    premise) with probability p and guesses uniformly otherwise; the wrapped
    solver must then hit the hidden label with empirical frequency at least
    p minus two standard errors. The probed p values ride in ``theta_grid``.
    """
    floors = cfg.theta_grid if cfg.theta_grid else DEFAULT_SUCCESS_FLOORS

    def worker(n):
        rows = []
        for i, p in enumerate(floors):
            t0 = time.perf_counter()
            seed = derive_seed(cfg.seed, "reduction", n, i, 0)
            rng = np.random.default_rng(seed)
            radius = 0.9 / (2 * n)

            def estimator(inst):
                if rng.random() < p:
                    return (inst.theta + rng.uniform(-radius, radius)) % 1.0
                return rng.random()

            solver = reduction_estimator_to_pd(estimator, epsilon=1.0 / (2 * n))
            hits = 0
            for _ in range(cfg.trials):
                y = int(rng.integers(n))
                if solver.solve(_instance(y / n)) == y:
                    hits += 1
            observed = hits / cfg.trials
            floor = p - 2.0 * np.sqrt(p * (1 - p) / cfg.trials)
            if observed < floor:
                raise VerificationError(
                    f"reduction success {observed} fell below floor {floor} "
                    f"(n={n} p={p} seed={seed})"
                )
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(
                _guard_bound(
                    ResultRow(
                        n, 0, f"reduction-p{p:g}", i, seed, observed, 1.0,
                        1.0 - observed, 0.0, ms,
                    )
                )
            )
        return rows

    rows = _map_tasks(list(cfg.n_values), worker, jobs)
    return ExperimentResult(tuple(rows), _metadata(cfg))


_RUNNERS = {
    "bound-sweep": run_bound_sweep,
    "counter-scan": run_counter_scan,
    "random-stress": run_adversarial_search,
    "cemm-curve": run_cemm_curve,
    "epr-check": run_epr_check,
    "reduction-check": run_reduction_check,
}


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    return _RUNNERS[cfg.kind](cfg, jobs=jobs)
