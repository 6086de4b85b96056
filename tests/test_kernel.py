"""The simulation kernel against the dense reference in ``reference.py``.

Random problem sizes, work dimensions, eigenstates, trailing ancilla
registers, query schedules (negative powers and powers >= n included) and
steps (local matrix factors on leading registers, flips of B over ranges
of O, dense matrices): every public simulator must agree with the
reference to 1e-12, success must stay under the counter-support bound, and
the counter spectrum must stay inside the subset-sum reachable sets. A
query on a basis eigenstate e_k takes its own route, one update of the
B = 1, W = k row block; it must equal the rank-1 update entry for entry,
and every other eigenstate must keep the rank-1 route.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from phaselab.algorithms import build_truncated_optimal, cemm_on_continuous_phase
from phaselab.fourier import fourier_weights
from phaselab.linalg import RegisterLayout, StateVector, haar_random_unitary
from phaselab.oracles import PhaseInstance, PhaseOracleFamily
from phaselab.simulate import (
    COUNTER,
    QueryAlgorithm,
    _basis_index,
    _query,
    _run,
    _run_labels,
    _Step,
    counter_leakage,
    leakage_from_weights,
    reachable_counter_values,
    run_purified,
    run_purified_transcript,
    success_probability_average,
    success_probability_purified,
)

TOL = 1e-12


def random_step(layout, rng):
    """A dense Haar step, or one to three factors in random order: Haar
    matrices on the leading registers, a prefix of random length, and flips
    of B over random ranges of O, empty and full ones included."""
    if rng.random() < 0.25:
        return _Step(layout, (haar_random_unitary(layout.total_dim, rng),))
    factors = []
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.3:
            factors.append(random_flip(layout.dims[0], rng))
            continue
        dim = math.prod(layout.dims[: rng.integers(1, len(layout.dims) + 1)])
        factors.append(haar_random_unitary(dim, rng))
    return _Step(layout, factors)


def random_flip(n, rng):
    """A slice of O: empty, all of O, or between two random ends."""
    kind = rng.random()
    if kind < 0.2:
        start = int(rng.integers(0, n + 1))
        return slice(start, start)
    if kind < 0.4:
        return slice(0, n)
    start, stop = sorted(int(k) for k in rng.integers(0, n + 1, size=2))
    return slice(start, stop)


def random_case(n, work_dim, anc_dim, exponents, seed, local=False, basis=None):
    """A random algorithm on an (O, B, W[, anc]) layout and a family whose
    eigenstate is a random unit vector, or the basis vector e_basis when
    ``basis`` is an index into W (negative from the end). Steps are dense
    Haar unitaries, or ``random_step``s when ``local``; half the algorithms
    start in a random unit vector, the rest at all-zeros."""
    rng = np.random.default_rng(seed)
    layout = RegisterLayout((n, 2, work_dim) + ((anc_dim,) if anc_dim else ()))
    if local:
        steps = [random_step(layout, rng) for _ in range(len(exponents) + 1)]
    else:
        steps = [haar_random_unitary(layout.total_dim, rng) for _ in range(len(exponents) + 1)]
    start = None
    if rng.random() < 0.5:
        start = random_unit_columns(layout.total_dim, 1, rng)[:, 0]
    alg = QueryAlgorithm(layout, steps, exponents, start)
    # drawn even when ``basis`` replaces it, so theta is the same either way
    eig = rng.standard_normal(work_dim) + 1j * rng.standard_normal(work_dim)
    eig /= np.linalg.norm(eig)
    if basis is not None:
        eig = np.eye(work_dim)[basis]
    family = PhaseOracleFamily(n, eig)
    return alg, family, float(rng.uniform())


def check_against_reference(alg, family, theta):
    q = alg.q
    for y, col in enumerate(_run_labels(alg, family).T):
        np.testing.assert_allclose(col, reference.run_fixed_y(alg, family, y).amps, rtol=0, atol=TOL)
    inst = PhaseInstance(theta=theta, eigenstate=family.eigenstate)
    np.testing.assert_allclose(
        _run(alg, inst.eigenstate, lambda m: np.exp(2j * np.pi * np.array([theta * m])), 1)[:, 0],
        reference.run_fixed_phase(alg, inst).amps, rtol=0, atol=TOL,
    )

    ref_state, ref_snaps = reference.purified_run(alg, family)
    state = run_purified(alg, family)
    assert state.layout == ref_state.layout  # the counter is appended last
    np.testing.assert_allclose(state.amps, ref_state.amps, rtol=0, atol=TOL)
    tr = run_purified_transcript(alg, family)
    np.testing.assert_allclose(tr.final_state.amps, ref_state.amps, rtol=0, atol=TOL)
    np.testing.assert_allclose(np.array(tr.counter_weights), ref_snaps, rtol=0, atol=TOL)
    np.testing.assert_allclose(
        fourier_weights(state, COUNTER),
        reference.fourier_weights(ref_state, len(alg.layout.dims)),
        rtol=0, atol=TOL,
    )
    assert counter_leakage(ref_state, q) == pytest.approx(
        float(ref_snaps[-1][q + 1 :].sum()), abs=TOL
    )

    avg = success_probability_average(alg, family)
    assert avg == pytest.approx(reference.success_probability_average(alg, family), abs=TOL)
    assert avg == pytest.approx(success_probability_purified(ref_state), abs=TOL)
    return avg, tr


@pytest.mark.parametrize(
    "n,work_dim,anc_dim,exponents,seed",
    [
        (4, 2, 0, (1, 1, 1), 1),
        (5, 3, 2, (-1, 2, 7), 2),
        (3, 1, 3, (4, -5), 3),
        (6, 2, 2, (), 4),
    ],
)
def test_kernel_matches_reference(n, work_dim, anc_dim, exponents, seed):
    check_against_reference(*random_case(n, work_dim, anc_dim, exponents, seed))


exponent = st.sampled_from([1, -1]) | st.integers(-20, 20)
# a basis eigenstate, e_0 or e_(w-1), in 20 of the 60 derandomized cases
basis = st.sampled_from([None, None, 0, -1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 7),
    work_dim=st.integers(1, 3),
    anc_dim=st.sampled_from([0, 2, 3]),
    exponents=st.lists(exponent, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    basis=basis,
)
def test_kernel_properties(n, work_dim, anc_dim, exponents, seed, basis):
    alg, family, theta = random_case(
        n, work_dim, anc_dim, exponents, seed, local=True, basis=basis
    )
    avg, tr = check_against_reference(alg, family, theta)

    reach = reachable_counter_values(exponents, n)
    for w, allowed in zip(tr.counter_weights, reach):
        assert leakage_from_weights(w, allowed) <= 1e-10
    # the counter's Fourier support after the last query caps the success
    assert avg <= len(reach[-1]) / n + 1e-9
    if set(exponents) <= {1, -1}:
        assert avg <= (alg.q + 1) / n + 1e-9


def random_unit_columns(dim, m, rng):
    cols = rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m))
    return cols / np.linalg.norm(cols, axis=0)


@pytest.mark.parametrize(
    "layouts",
    [
        [(3, 2, 1), (3, 2, 2)],
        [(4, 2, 3), (2, 2, 3, 3)],
        [(2, 2, 2, 3), (5, 2, 1, 2)],
    ],
    ids=["work-dim-1-2", "work-dim-3", "trailing-ancilla"],
)
def test_query_matches_dense_oracle(layouts):
    """``_query`` on each column against the dense controlled phase block on
    (B, W) of ``reference.controlled_phase``, over (O, B, W[, anc]), for a
    random eigenstate and the basis eigenstates e_0 and e_(w-1)."""
    rng = np.random.default_rng(len(layouts[0]))
    for dims in layouts:
        layout = RegisterLayout(dims)
        n, work_dim = layout.dims[0], layout.dims[2]
        e = np.eye(work_dim, dtype=np.complex128)
        for eigenstate in (random_unit_columns(work_dim, 1, rng)[:, 0], e[0], e[-1]):
            cols = random_unit_columns(layout.total_dim, 5, rng)
            thetas = rng.uniform(size=5)
            factor = np.exp(2j * np.pi * thetas) - 1.0
            got = _query(cols.copy(), n, _basis_index(eigenstate), factor)
            for j, theta in enumerate(thetas):
                oracle = reference.controlled_phase(PhaseInstance(theta, eigenstate), 1)
                state = StateVector(layout, cols[:, j])
                want = reference.apply_to_registers(state, oracle, [1, 2])
                np.testing.assert_allclose(got[:, j], want.amps, rtol=0, atol=TOL)


@pytest.mark.parametrize("dims", [(3, 2, 1), (4, 2, 3), (2, 2, 2, 3), (5, 2, 2, 2)])
def test_basis_route_equals_the_rank_1_update(dims):
    """On u = e_k, for every k, the basis route gives exactly the rank-1
    update s + u ((u^H s) f) on the B = 1 slice s, with its operands in the
    rank-1 route's order, on random columns with exact zeros planted."""
    rng = np.random.default_rng(sum(dims))
    layout = RegisterLayout(dims)
    n, work_dim = dims[0], dims[2]
    for k in range(work_dim):
        u = np.eye(work_dim, dtype=np.complex128)[k]
        assert _basis_index(u) == (k, work_dim)
        cols = random_unit_columns(layout.total_dim, 6, rng)
        cols[rng.random(cols.shape) < 0.1] = 0.0
        factor = np.exp(2j * np.pi * rng.uniform(size=6)) - 1.0
        s = cols.reshape(n, 2, work_dim, -1, 6)[:, 1]  # (O, W, rest, m)
        want = cols.copy().reshape(n, 2, work_dim, -1, 6)
        inner = np.einsum("w,owrm->orm", u.conj(), s) * factor
        want[:, 1] = s + u[:, None, None] * inner[:, None]
        got = _query(cols.copy(), n, _basis_index(u), factor)
        np.testing.assert_array_equal(got, want.reshape(cols.shape))


def test_only_an_exact_basis_vector_takes_the_basis_route():
    tilted = np.array([1 - 1e-12, np.sqrt(2e-12 - 1e-24)], dtype=np.complex128)
    assert abs(np.linalg.norm(tilted) - 1.0) <= 1e-15
    for u in (np.exp(0.7j) * np.eye(2)[0], tilted, np.ones(2) / np.sqrt(2)):
        assert _basis_index(u) is u
    assert _basis_index(np.eye(3)[1]) == (1, 3)
    assert _basis_index(np.eye(1, dtype=np.complex128)[0]) == (0, 1)


# e_0, e_1, (e_0 + e_1)/sqrt(2) and e^(0.7i) e_0 on a qubit, and e_2 at work dim 3
ROUTE_EIGENSTATES = [
    np.array([1, 0]),
    np.array([0, 1]),
    np.array([1, 1]) / np.sqrt(2),
    np.exp(0.7j) * np.array([1, 0]),
    np.array([0, 0, 1]),
]


@pytest.mark.parametrize("n", [2, 5, 16, 33])
def test_both_routes_give_the_same_physics(n):
    """Through the public API, on both query routes, every eigenstate of
    ``ROUTE_EIGENSTATES`` gives the same estimator distribution within
    1e-12, and the truncated optimal estimator succeeds with (q+1)/n on
    each, for every q < n."""
    for theta in (0.3, 0.5 / n):
        dists = [cemm_on_continuous_phase(PhaseInstance(theta, u), n) for u in ROUTE_EIGENSTATES]
        for dist in dists[1:]:
            np.testing.assert_allclose(dist, dists[0], rtol=0, atol=TOL)
    for u in ROUTE_EIGENSTATES:
        family = PhaseOracleFamily(n, u)
        for q in range(n):
            got = success_probability_average(build_truncated_optimal(n, q, u), family)
            assert got == pytest.approx((q + 1) / n, abs=TOL)
