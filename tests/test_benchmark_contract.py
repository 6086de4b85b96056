"""Every phaselab name the benchmark's workloads call must exist.

``perfbench/workloads.py`` reaches phaselab only through ``<module>.<name>``
on the modules it imports, so deleting or renaming one of those names breaks
the benchmark; this test makes the suite fail first.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
