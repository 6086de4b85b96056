"""The simulation kernel against the dense reference in ``reference.py``.

Random problem sizes, work dimensions, eigenstates, trailing ancilla
registers, query schedules (negative powers and powers >= n included) and
steps (local matrix factors on leading registers, basis permutations, dense
matrices): every public simulator must agree with the reference to 1e-12,
success must stay under the counter-support bound, and the counter spectrum
must stay inside the subset-sum reachable sets.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from phaselab.fourier import fourier_weights
from phaselab.linalg import RegisterLayout, StateVector, haar_random_unitary
from phaselab.oracles import PhaseInstance, PhaseOracleFamily
from phaselab.simulate import (
    QueryAlgorithm,
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
    matrices on the leading registers, a prefix of random length, and random
    basis permutations."""
    if rng.random() < 0.25:
        return _Step(layout, (haar_random_unitary(layout.total_dim, rng),))
    factors = []
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.3:
            factors.append(rng.permutation(layout.total_dim))
            continue
        dim = math.prod(layout.dims[: rng.integers(1, len(layout.dims) + 1)])
        factors.append(haar_random_unitary(dim, rng))
    return _Step(layout, factors)


def random_case(n, work_dim, anc_dim, exponents, seed, local=False):
    """A random algorithm on an (O, B, W[, anc]) layout and a family whose
    eigenstate is a random unit vector. Steps are dense Haar unitaries,
    or ``random_step``s when ``local``; half the algorithms start in a random
    unit vector, the rest at all-zeros."""
    rng = np.random.default_rng(seed)
    regs = (("O", n), ("B", 2), ("W", work_dim)) + ((("anc", anc_dim),) if anc_dim else ())
    layout = RegisterLayout(regs)
    if local:
        steps = [random_step(layout, rng) for _ in range(len(exponents) + 1)]
    else:
        steps = [haar_random_unitary(layout.total_dim, rng) for _ in range(len(exponents) + 1)]
    start = None
    if rng.random() < 0.5:
        start = random_unit_columns(layout.total_dim, 1, rng)[:, 0]
    alg = QueryAlgorithm(layout, steps, exponents, start)
    eig = rng.standard_normal(work_dim) + 1j * rng.standard_normal(work_dim)
    family = PhaseOracleFamily(n, eig / np.linalg.norm(eig))
    return alg, family, float(rng.uniform())


def check_against_reference(alg, family, theta):
    n, q = alg.n, alg.q
    for y in range(n):
        np.testing.assert_allclose(
            _run_labels(alg, family, [y])[:, 0], reference.run_fixed_y(alg, family, y).amps,
            rtol=0, atol=TOL,
        )
    inst = PhaseInstance(theta=theta, eigenstate=family.eigenstate)
    np.testing.assert_allclose(
        _run(alg, inst.eigenstate, lambda m: np.array([theta * m]), 1)[:, 0],
        reference.run_fixed_phase(alg, inst).amps, rtol=0, atol=TOL,
    )

    ref_state, ref_snaps = reference.purified_run(alg, family)
    np.testing.assert_allclose(run_purified(alg, family).amps, ref_state.amps, rtol=0, atol=TOL)
    tr = run_purified_transcript(alg, family)
    np.testing.assert_allclose(tr.final_state.amps, ref_state.amps, rtol=0, atol=TOL)
    np.testing.assert_allclose(np.array(tr.counter_weights), ref_snaps, rtol=0, atol=TOL)
    np.testing.assert_allclose(
        fourier_weights(ref_state, "C"), reference.fourier_weights(ref_state, "C"),
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 7),
    work_dim=st.integers(1, 3),
    anc_dim=st.sampled_from([0, 2, 3]),
    exponents=st.lists(exponent, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_properties(n, work_dim, anc_dim, exponents, seed):
    alg, family, theta = random_case(n, work_dim, anc_dim, exponents, seed, local=True)
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
        [(("O", 3), ("B", 2), ("W", 1)), (("O", 3), ("B", 2), ("W", 2))],
        [(("O", 4), ("B", 2), ("W", 3)), (("O", 2), ("B", 2), ("W", 3), ("anc", 3))],
        [(("O", 2), ("B", 2), ("W", 2), ("anc", 3)), (("O", 5), ("B", 2), ("W", 1), ("anc", 2))],
    ],
    ids=["work-dim-1-2", "work-dim-3", "trailing-ancilla"],
)
def test_query_matches_dense_oracle(layouts):
    """``_query`` on each column against the dense controlled phase block on
    (B, W) of ``reference.controlled_phase``, over (O, B, W[, anc])."""
    rng = np.random.default_rng(len(layouts[0]))
    for regs in layouts:
        layout = RegisterLayout(regs)
        n, work_dim = layout.dims[0], layout.dims[2]
        eigenstate = random_unit_columns(work_dim, 1, rng)[:, 0]
        cols = random_unit_columns(layout.total_dim, 5, rng)
        thetas = rng.uniform(size=5)
        got = _query(cols.copy(), n, eigenstate, np.exp(2j * np.pi * thetas) - 1.0)
        for j, theta in enumerate(thetas):
            oracle = reference.controlled_phase(PhaseInstance(theta, eigenstate), 1)
            want = reference.apply_to_registers(StateVector(layout, cols[:, j]), oracle, ["B", "W"])
            np.testing.assert_allclose(got[:, j], want.amps, rtol=0, atol=TOL)
