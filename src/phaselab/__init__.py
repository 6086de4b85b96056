"""phaselab: a numerical lab for phase-oracle query bounds.

Simulates oracle-aided query algorithms against families of commuting phase
unitaries, in both the fixed-label and purified (counter-register) views,
and verifies the exact finite-size facts behind the (q+1)/n success ceiling:
counter-spectrum sparsity, bound tightness, the basis-change identity of the
maximally correlated state, and the rounding reduction from estimation to
distinguishing.
"""

from ._version import __version__
from .algorithms import (
    build_truncated_optimal,
    cemm_on_continuous_phase,
    epr_fourier_deviation,
    phase_distance,
    round_to_grid,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    VerificationError,
    adversarial_search,
    run_experiment,
)
from .fourier import (
    fourier_weights,
    qft_matrix,
)
from .linalg import (
    RegisterLayout,
    StateVector,
    UnitaryMatrix,
    haar_random_unitary,
)
from .oracles import (
    FORWARD,
    PhaseInstance,
    PhaseOracleFamily,
    coherent_controlled_u,
    default_family,
)
from .simulate import (
    QueryAlgorithm,
    RunTranscript,
    counter_leakage,
    haar_random_algorithm,
    reachable_counter_values,
    run_purified,
    run_purified_transcript,
    standard_layout,
    success_probability_average,
    success_probability_purified,
)

__all__ = [name for name in dir() if not name.startswith("_")]
