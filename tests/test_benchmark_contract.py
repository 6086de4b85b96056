"""What the benchmark's workloads rely on in phaselab must hold.

``perfbench/workloads.py`` reaches phaselab only through ``<module>.<name>``
on the modules it imports, so deleting or renaming one of those names breaks
the benchmark; this test makes the suite fail first. Its ``haar-grid``
workload also replays ``haar_random_unitary`` on the stream that
``haar_random_algorithm`` drew from, as criterion 2's cross-check rebuilds
that algorithm from its seed.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from phaselab.linalg import haar_random_unitary
from phaselab.simulate import haar_random_algorithm, standard_layout

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MODULES = ("algorithms", "cli", "experiments", "fourier", "linalg", "oracles", "simulate")


def referenced_names():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return sorted(
        {
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
        }
    )


@pytest.mark.parametrize("ref", referenced_names())
def test_referenced_name_exists(ref):
    module, name = ref.split(".")
    assert hasattr(importlib.import_module(f"phaselab.{module}"), name), ref


@pytest.mark.parametrize("n,q,seed", [(2, 0, 3), (4, 3, 11), (8, 5, 2**63 + 5), (64, 2, 7)])
def test_haar_algorithm_steps_are_successive_unitary_draws(n, q, seed):
    # step j of haar_random_algorithm(n, q, seed) is draw j of
    # haar_random_unitary on default_rng(seed), bit for bit
    rng = np.random.default_rng(seed)
    dim = standard_layout(n).total_dim
    steps = haar_random_algorithm(n, q, seed).steps
    assert len(steps) == q + 1
    for step in steps:
        (factor,) = step.factors
        np.testing.assert_array_equal(factor.matrix, haar_random_unitary(dim, rng).matrix)
